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
    Mixture,
    SmoothedBernoulli,
    Uniform,
    robust_moments,
)
from .errors import LiftingError, ParameterOutOfRangeError

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
    first = 0.0 if p == 0.0 else p * math.log(p / q)
    second = 0.0 if p == 1.0 else (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return 0.5 * (first + second)


def kl_quadratic_constant(eta: float, grid: int = 200) -> float:
    """Smallest constant C with KL <= C (p - q)^2 over [eta, 1 - eta], by grid."""
    if not 0.0 < eta < 0.5:
        raise ParameterOutOfRangeError(f"eta must lie in (0, 1/2), got {eta}")
    ps = np.linspace(eta, 1.0 - eta, grid)
    best = 0.0
    for p in ps:
        for q in ps:
            if p == q:
                continue
            best = max(best, kl_smoothed_bernoulli(float(p), float(q)) / (p - q) ** 2)
    return best


def lower_bound_samples(
    gaps, alpha: float, delta: float, c_eta: float = 1.0
) -> float:
    """Expected-sample lower bound for identifying the best arm at the given gaps.

    Valid for delta below 3/20; the constant ``c_eta`` calibrates the
    quadratic KL bound and is a configuration input, not a derived value.
    """
    gaps = [float(g) for g in gaps]
    if not gaps or any(g <= 0 for g in gaps):
        raise ParameterOutOfRangeError("gaps must be positive")
    if not 0.0 < delta < 3.0 / 20.0:
        raise ParameterOutOfRangeError(
            f"delta={delta} outside (0, 0.15), the validity range of the bound"
        )
    if alpha < 0:
        raise ParameterOutOfRangeError("alpha must be nonnegative")
    if not c_eta > 0:
        raise ParameterOutOfRangeError("c_eta must be positive")
    total = sum(1.0 / max(g, alpha) ** 2 for g in gaps)
    return (c_eta / 4.0) * total * math.log(1.0 / (2.4 * delta))


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
        from .distributions import FamilyParams

        product = 2.0 if self.model is AdversaryModel.MALICIOUS else 2.0 * (1.0 - self.eps)
        mads = [robust_moments(arm.dist).mad for arm in self.lifted_arms]
        return FamilyParams(
            t_bar=t_bar,
            slope_bound=max(product / m for m in mads),
            mad_bound=max(mads),
            mad_ratio=mad_ratio,
        )


def _check_lift_params(p, eps: float) -> list[float]:
    values = [float(v) for v in p]
    if len(values) < 1:
        raise ParameterOutOfRangeError("need at least one arm parameter")
    if any(not 1.0 / 3.0 <= v <= 2.0 / 3.0 for v in values):
        raise ParameterOutOfRangeError("arm parameters must lie in [1/3, 2/3]")
    if not 0.0 < eps < 1.0 / 15.0:
        raise ParameterOutOfRangeError(f"eps must lie in (0, 1/15), got {eps}")
    return values


def _best_first(values: list[float]) -> tuple[list[float], tuple[int, ...]]:
    best = max(range(len(values)), key=lambda i: (values[i], -i))
    order = [best] + [i for i in range(len(values)) if i != best]
    return [values[i] for i in order], tuple(order)


def _assert_lifting(lifted: LiftedInstance, median_shifts: tuple[float, ...]) -> None:
    """Construction self-checks: the observable law matches on a grid and the
    hidden medians sit exactly one bias away from the observable ones."""
    grid = np.linspace(-0.25, 1.25, 1001)
    for arm, law, shift, pi in zip(
        lifted.lifted_arms, lifted.observable_law, median_shifts, lifted.p
    ):
        gap = np.max(np.abs(np.asarray(contaminated_cdf(arm, grid)) - np.asarray(law.cdf(grid))))
        if gap > 1e-12:
            raise LiftingError(f"observable law mismatch: sup distance {gap:.3e}")
        hidden_median = robust_moments(arm.dist).median
        if abs(abs(hidden_median - pi) - abs(shift)) > 1e-10:
            raise LiftingError(
                f"hidden median {hidden_median} not shifted by {shift} from {pi}"
            )


def oblivious_lifting(p, eps: float) -> LiftedInstance:
    """Hidden instance for the oblivious adversary.

    The best arm mixes a rescaled Bernoulli with the uniform so that adding an
    eps point mass at 0 reproduces its smoothed Bernoulli exactly while its
    hidden median sits eps above the observable one; rivals symmetrically sit
    eps below with their point mass at 1.
    """
    values, order = _best_first(_check_lift_params(p, eps))
    w_atom = (1.0 - 2.0 * eps) / (2.0 * (1.0 - eps))
    w_unif = 1.0 / (2.0 * (1.0 - eps))
    arms = []
    laws = []
    shifts = []
    for rank, pi in enumerate(values):
        if rank == 0:
            hidden = Mixture(
                [w_atom, w_unif], [Bernoulli(pi / (1.0 - 2.0 * eps)), Uniform(0.0, 1.0)]
            )
            strategy = FixedContamination(Dirac(0.0))
            shifts.append(eps)
        else:
            hidden = Mixture(
                [w_atom, w_unif],
                [Bernoulli((pi - 2.0 * eps) / (1.0 - 2.0 * eps)), Uniform(0.0, 1.0)],
            )
            strategy = FixedContamination(Dirac(1.0))
            shifts.append(-eps)
        arms.append(
            ContaminatedArm(dist=hidden, strategy=strategy, eps=eps, model=AdversaryModel.OBLIVIOUS)
        )
        laws.append(SmoothedBernoulli(pi))
    lifted = LiftedInstance(
        p=tuple(values),
        eps=eps,
        model=AdversaryModel.OBLIVIOUS,
        lifted_arms=tuple(arms),
        observable_law=tuple(laws),
        original_indices=order,
    )
    _assert_lifting(lifted, tuple(shifts))
    return lifted


def malicious_lifting(p, eps: float) -> LiftedInstance:
    """Hidden instance for the malicious adversary.

    Couplings fire only on the Bernoulli atom (value 1 for the best arm, 0 for
    rivals) with the probability that makes the flag marginal exactly
    Bernoulli(eps); the hidden medians sit a full 2 eps away from the
    observable ones, the widest displacement this model allows.
    """
    values, order = _best_first(_check_lift_params(p, eps))
    arms = []
    laws = []
    shifts = []
    for rank, pi in enumerate(values):
        if rank == 0:
            hidden = Mixture([0.5, 0.5], [Bernoulli(pi + 2.0 * eps), Uniform(0.0, 1.0)])
            strategy = AtomTriggeredCoupling(
                trigger=1.0, flip_prob=eps / (pi / 2.0 + eps), point=0.0
            )
            shifts.append(2.0 * eps)
        else:
            hidden = Mixture([0.5, 0.5], [Bernoulli(pi - 2.0 * eps), Uniform(0.0, 1.0)])
            strategy = AtomTriggeredCoupling(
                trigger=0.0, flip_prob=eps / ((1.0 - pi) / 2.0 + eps), point=1.0
            )
            shifts.append(-2.0 * eps)
        arms.append(
            ContaminatedArm(dist=hidden, strategy=strategy, eps=eps, model=AdversaryModel.MALICIOUS)
        )
        laws.append(SmoothedBernoulli(pi))
    lifted = LiftedInstance(
        p=tuple(values),
        eps=eps,
        model=AdversaryModel.MALICIOUS,
        lifted_arms=tuple(arms),
        observable_law=tuple(laws),
        original_indices=order,
    )
    _assert_lifting(lifted, tuple(shifts))
    return lifted


def _exact_bias(dist: Distribution, eps: float, model: AdversaryModel) -> float:
    """Tight per-arm bias from the arm's own quantiles, not the family bound."""
    median = robust_moments(dist).median
    if model is AdversaryModel.MALICIOUS:
        up = dist.quantile_right(0.5 + eps) - median
        down = median - dist.quantile_left(0.5 - eps)
        return max(up, down)
    hi = 1.0 / (2.0 * (1.0 - eps))
    lo = (1.0 - 2.0 * eps) / (2.0 * (1.0 - eps))
    return max(dist.quantile_right(hi) - median, median - dist.quantile_left(lo))


def lifted_effective_gaps(lifted: LiftedInstance) -> tuple[float, ...]:
    """Effective gaps of the hidden arms using their exact per-arm biases.

    These equal the classical gaps of the observable instance: the lifting
    spends the entire bias budget moving the medians apart.
    """
    medians = [robust_moments(arm.dist).median for arm in lifted.lifted_arms]
    biases = [_exact_bias(arm.dist, lifted.eps, lifted.model) for arm in lifted.lifted_arms]
    pessimistic = medians[0] - biases[0]
    return tuple(pessimistic - (medians[i] + biases[i]) for i in range(1, lifted.k))
