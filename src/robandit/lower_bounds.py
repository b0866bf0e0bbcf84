"""Hard instances and the sample-complexity lower-bound evaluator.

A classical bandit instance with smoothed-Bernoulli observable laws can be
expressed as the contaminated view of a hidden instance whose effective gaps
equal the classical gaps: the best arm's hidden distribution sits as high as
the contamination budget allows, every rival's as low. Running any
contaminated-bandit algorithm on the observable laws therefore inherits the
classical information-theoretic lower bound, stated here via the
smoothed-Bernoulli KL divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandit import BanditInstance
from .contamination import (
    AtomTriggeredCoupling,
    ContaminatedArm,
    FixedContamination,
    contaminated_cdf,
)
from .distributions import (
    AdversaryModel,
    Bernoulli,
    Dirac,
    Distribution,
    FamilyParams,
    Mixture,
    SmoothedBernoulli,
    Uniform,
    _is_unique,
    _median_mad,
    _median_pair,
    median_shift_bound,
)
from .errors import LiftingError, ParameterOutOfRangeError
from .estimators import _delta_log

__all__ = [
    "kl_smoothed_bernoulli",
    "kl_quadratic_constant",
    "lower_bound_samples",
    "LiftedInstance",
    "oblivious_lifting",
    "malicious_lifting",
    "lifted_effective_gaps",
]


def kl_smoothed_bernoulli(p: float, q: float) -> float:
    """KL divergence between smoothed Bernoulli laws: half the Bernoulli KL."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ParameterOutOfRangeError("parameters must lie strictly inside (0, 1)")
    return 0.5 * (p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q)))


def kl_quadratic_constant(eta: float, grid: int = 200) -> float:
    """Smallest constant C with KL <= C (p - q)^2 over [eta, 1 - eta], by grid."""
    if not 0.0 < eta < 0.5:
        raise ParameterOutOfRangeError(f"eta must lie in (0, 1/2), got {eta}")
    ps = np.linspace(eta, 1.0 - eta, grid)
    p, q = np.meshgrid(ps, ps, indexing="ij")
    off_diagonal = p != q
    p, q = p[off_diagonal], q[off_diagonal]
    kl = 0.5 * (p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q)))
    return float(np.max(kl / (p - q) ** 2, initial=0.0))


def lower_bound_samples(
    gaps, alpha: float, delta: float, c_eta: float = 1.0
) -> float:
    """Expected-sample lower bound for identifying the best arm at the given gaps.

    Valid for delta below 3/20; the constant ``c_eta`` calibrates the
    quadratic KL bound and is a configuration input, not a derived value.
    """
    gaps = [float(g) for g in gaps]
    if not gaps or not all(g > 0 for g in gaps):
        raise ParameterOutOfRangeError(f"gaps must be positive, got {gaps}", "gaps")
    if not 0.0 < delta < 3.0 / 20.0:
        raise ParameterOutOfRangeError(
            f"delta={delta} outside (0, 0.15), the validity range of the bound", "delta"
        )
    if not 0.0 <= alpha < math.inf:
        raise ParameterOutOfRangeError(f"alpha must be nonnegative and finite, got {alpha}", "alpha")
    if not 0.0 < c_eta < math.inf:
        raise ParameterOutOfRangeError(f"c_eta must be positive and finite, got {c_eta}", "c_eta")
    try:
        total = sum(1.0 / max(g, alpha) ** 2 for g in gaps)
    except OverflowError:
        key = "alpha" if alpha > max(gaps) else "gaps"
        raise ParameterOutOfRangeError(
            f"{key} {max(alpha, *gaps)} squares past the floats", key
        ) from None
    bound = (c_eta / 4.0) * total * _delta_log(1.0 / (2.4 * delta), delta)
    if not 0.0 < bound < math.inf:
        raise ParameterOutOfRangeError(
            f"c_eta={c_eta} makes the bound {bound}, not positive and finite", "c_eta"
        )
    return bound


@dataclass(frozen=True)
class LiftedInstance:
    """A hidden contaminated instance whose observable laws are smoothed
    Bernoullis. Arms are reordered so the best arm has index 0;
    ``original_indices[i]`` maps back to the caller's ordering."""

    p: tuple[float, ...]
    eps: float
    model: AdversaryModel
    lifted_arms: tuple[ContaminatedArm, ...]
    observable_law: tuple[SmoothedBernoulli, ...]
    original_indices: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.p)

    @property
    def classical_gaps(self) -> tuple[float, ...]:
        return tuple(self.p[0] - pi for pi in self.p[1:])

    def instance(self) -> BanditInstance:
        return BanditInstance(self.lifted_arms)

    def family_for(self, t_bar: float, mad_ratio: float = 2.0):
        """Family parameters valid for every hidden arm: per-arm slope bounds
        follow from the hidden cdfs' exact slope (the slope-MAD product is
        2(1 - eps) for the oblivious lifting, 2 for the malicious one)."""
        product = 2.0 if self.model is AdversaryModel.MALICIOUS else 2.0 * (1.0 - self.eps)
        mads = [_median_mad(arm.dist)[1] for arm in self.lifted_arms]
        return FamilyParams(
            t_bar=t_bar,
            slope_bound=max(product / m for m in mads),
            mad_bound=max(mads),
            mad_ratio=mad_ratio,
        )


def _check_lift_params(p, eps: float) -> list[float]:
    values = [float(v) for v in p]
    if len(values) < 1:
        raise ParameterOutOfRangeError("need at least one arm parameter", "p")
    if any(not 1.0 / 3.0 <= v <= 2.0 / 3.0 for v in values):
        raise ParameterOutOfRangeError(f"arm parameters must lie in [1/3, 2/3], got {values}", "p")
    if not 0.0 < eps < 1.0 / 15.0:
        raise ParameterOutOfRangeError(f"eps must lie in (0, 1/15), got {eps}", "eps")
    return values


def _best_first(values: list[float]) -> tuple[list[float], tuple[int, ...]]:
    best = max(range(len(values)), key=lambda i: (values[i], -i))
    order = [best] + [i for i in range(len(values)) if i != best]
    return [values[i] for i in order], tuple(order)


def _hidden_median(dist: Distribution) -> float:
    med_lo, med_hi = _median_pair(dist)
    if not _is_unique(med_lo, med_hi):
        raise LiftingError(f"hidden median is not unique: [{med_lo}, {med_hi}]")
    return med_lo


# Half-width of the bracket that certifies a hidden median: a quarter of the
# absolute 1e-10 the median may stray from its target. Where m +- t rounds to
# m, the bracket is empty and the search decides.
_MEDIAN_BRACKET = 2.5e-11


def _assert_lifting(lifted: LiftedInstance, median_shifts: tuple[float, ...]) -> None:
    """Construction self-checks: the observable law matches on a grid and the
    hidden medians are unique and sit exactly one bias away from the
    observable ones.

    A hidden median is certified by one cdf call: with m = pi + shift and
    t = _MEDIAN_BRACKET, F(m - t) < 1/2 < F(m + t) puts every median in
    (m - t, m + t], so it is unique within _UNIQUE_TOL and within 1e-10 of m.
    This needs a cdf that is monotone in floating point, as the hidden
    Bernoulli + Uniform mixtures' is. Where the bracket fails, the median
    search decides and words the rejection."""
    grid = np.linspace(-0.25, 1.25, 1001)
    for arm, law, shift, pi in zip(
        lifted.lifted_arms, lifted.observable_law, median_shifts, lifted.p
    ):
        gap = np.max(np.abs(contaminated_cdf(arm, grid) - law.cdf(grid)))
        if gap > 1e-12:
            raise LiftingError(f"observable law mismatch: sup distance {gap:.3e}")
        m = pi + shift
        below, above = arm.dist.cdf([m - _MEDIAN_BRACKET, m + _MEDIAN_BRACKET])
        if below < 0.5 < above:
            continue
        hidden_median = _hidden_median(arm.dist)
        if abs((hidden_median - pi) - shift) > 1e-10:
            raise LiftingError(
                f"hidden median {hidden_median} not shifted by {shift} from {pi}"
            )


def _lift(p, eps: float, model: AdversaryModel, hidden_arm) -> LiftedInstance:
    """Lifted instance of ``p``, best arm first: ``hidden_arm(pi, best)`` gives
    each arm's hidden law, strategy and hidden median shift, and the arm is
    observed as SmoothedBernoulli(pi). Self-checked before it is returned."""
    values, order = _best_first(_check_lift_params(p, eps))
    arms = []
    shifts = []
    for rank, pi in enumerate(values):
        hidden, strategy, shift = hidden_arm(pi, rank == 0)
        arms.append(ContaminatedArm(dist=hidden, strategy=strategy, eps=eps, model=model))
        shifts.append(shift)
    lifted = LiftedInstance(
        p=tuple(values),
        eps=eps,
        model=model,
        lifted_arms=tuple(arms),
        observable_law=tuple(SmoothedBernoulli(pi) for pi in values),
        original_indices=order,
    )
    _assert_lifting(lifted, tuple(shifts))
    return lifted


def oblivious_lifting(p, eps: float) -> LiftedInstance:
    """Hidden instance for the oblivious adversary.

    The best arm mixes a rescaled Bernoulli with the uniform so that adding an
    eps point mass at 0 reproduces its smoothed Bernoulli exactly while its
    hidden median sits eps above the observable one; rivals symmetrically sit
    eps below with their point mass at 1.
    """

    def hidden_arm(pi, best):
        weights = [(1.0 - 2.0 * eps) / (2.0 * (1.0 - eps)), 1.0 / (2.0 * (1.0 - eps))]
        if best:
            atom = Bernoulli(pi / (1.0 - 2.0 * eps))
            return Mixture(weights, [atom, Uniform(0.0, 1.0)]), FixedContamination(Dirac(0.0)), eps
        atom = Bernoulli((pi - 2.0 * eps) / (1.0 - 2.0 * eps))
        return Mixture(weights, [atom, Uniform(0.0, 1.0)]), FixedContamination(Dirac(1.0)), -eps

    return _lift(p, eps, AdversaryModel.OBLIVIOUS, hidden_arm)


def malicious_lifting(p, eps: float) -> LiftedInstance:
    """Hidden instance for the malicious adversary.

    Couplings fire only on the Bernoulli atom (value 1 for the best arm, 0 for
    rivals) with the probability that makes the flag marginal exactly
    Bernoulli(eps); the hidden medians sit a full 2 eps away from the
    observable ones, the widest displacement this model allows.
    """

    def hidden_arm(pi, best):
        if best:
            hidden = Mixture([0.5, 0.5], [Bernoulli(pi + 2.0 * eps), Uniform(0.0, 1.0)])
            flip = eps / (pi / 2.0 + eps)
            return hidden, AtomTriggeredCoupling(trigger=1.0, flip_prob=flip, point=0.0), 2.0 * eps
        hidden = Mixture([0.5, 0.5], [Bernoulli(pi - 2.0 * eps), Uniform(0.0, 1.0)])
        flip = eps / ((1.0 - pi) / 2.0 + eps)
        return hidden, AtomTriggeredCoupling(trigger=0.0, flip_prob=flip, point=1.0), -2.0 * eps

    return _lift(p, eps, AdversaryModel.MALICIOUS, hidden_arm)


def lifted_effective_gaps(lifted: LiftedInstance) -> tuple[float, ...]:
    """Effective gaps of the hidden arms using their exact per-arm biases.

    These equal the classical gaps of the observable instance: the lifting
    spends the entire bias budget moving the medians apart.
    """
    medians = [_hidden_median(arm.dist) for arm in lifted.lifted_arms]
    biases = [median_shift_bound(arm.dist, lifted.eps, lifted.model) for arm in lifted.lifted_arms]
    pessimistic = medians[0] - biases[0]
    return tuple(pessimistic - (medians[i] + biases[i]) for i in range(1, lifted.k))
