"""Contamination engines for the oblivious, prescient and malicious adversaries.

A batch draw produces X_i = (1 - D_i) Y_i + D_i Z_i with Y from the arm's true
distribution and D a contamination flag of rate eps. The adversary model fixes
how much the strategy may look at: oblivious strategies fix the contamination
law a priori, prescient strategies pick every Z after seeing the whole realized
batch of (Y, D), and malicious strategies may additionally couple D to Y as
long as both marginals stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    AdversaryModel,
    Dirac,
    Distribution,
    Uniform,
)
from .errors import IncompatibleStrategyError, ParameterOutOfRangeError

__all__ = [
    "AdversaryModel",
    "FixedContamination",
    "ShiftMedianUp",
    "ShiftMedianDown",
    "UniformTailShift",
    "BelowMedianCoupling",
    "AtomTriggeredCoupling",
    "EmpiricalQuantileShift",
    "ContaminatedArm",
    "BatchDraw",
    "draw_batch",
    "contaminated_cdf",
    "malicious_median_attack",
    "median_sandwich_bounds",
    "MarginalReport",
    "verify_marginals",
    "ks_distance",
]


@dataclass(frozen=True)
class FixedContamination:
    """Contaminated samples are iid draws from a fixed distribution."""

    dist: Distribution


@dataclass(frozen=True)
class ShiftMedianUp:
    """Point mass far above the support; pushes the observable median up.

    A finite magnitude stands in for an arbitrarily remote point: any value
    beyond the order statistics in play is equivalent for median estimation.
    """

    magnitude: float = 1e6


@dataclass(frozen=True)
class ShiftMedianDown:
    magnitude: float = 1e6


@dataclass(frozen=True)
class UniformTailShift:
    """Extends a uniform arm's support on one side so the contaminated law is
    again uniform and the median moves by exactly the worst-case bias."""

    direction: int = 1

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise ParameterOutOfRangeError(f"direction must be +1 or -1, got {self.direction}")


@dataclass(frozen=True)
class BelowMedianCoupling:
    """Contaminate only draws at or below a threshold, with a fixed replacement.

    With flip_prob = 2 eps and the threshold at a continuity median, the flag's
    marginal is exactly Bernoulli(eps) while the observable median moves to the
    replacement point.
    """

    threshold: float
    flip_prob: float
    point: float


@dataclass(frozen=True)
class AtomTriggeredCoupling:
    """Contaminate only draws that hit a specific atom, with a fixed replacement."""

    trigger: float
    flip_prob: float
    point: float


@dataclass(frozen=True)
class EmpiricalQuantileShift:
    """Place every contaminated sample at an empirical quantile of the realized
    clean batch. A heuristic stressor exercising prescient batch access."""

    target_quantile: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.target_quantile < 1.0:
            raise ParameterOutOfRangeError("target_quantile must lie in (0, 1)")


ContaminationStrategy = (
    FixedContamination
    | ShiftMedianUp
    | ShiftMedianDown
    | UniformTailShift
    | BelowMedianCoupling
    | AtomTriggeredCoupling
    | EmpiricalQuantileShift
)

_COUPLED = (BelowMedianCoupling, AtomTriggeredCoupling)


@dataclass(frozen=True)
class ContaminatedArm:
    """One bandit arm: true distribution, contamination strategy, level, model."""

    dist: Distribution
    strategy: ContaminationStrategy
    eps: float
    model: AdversaryModel

    def __post_init__(self):
        if not 0.0 <= self.eps < 0.5:
            raise ParameterOutOfRangeError(f"eps must lie in [0, 1/2), got {self.eps}")
        if isinstance(self.strategy, _COUPLED) and self.model is not AdversaryModel.MALICIOUS:
            raise IncompatibleStrategyError(
                "coupled contamination flags require the malicious adversary model"
            )
        if isinstance(self.strategy, EmpiricalQuantileShift) and self.model is AdversaryModel.OBLIVIOUS:
            raise IncompatibleStrategyError(
                "batch-aware contamination requires the prescient or malicious model"
            )
        if isinstance(self.strategy, UniformTailShift) and not isinstance(self.dist, Uniform):
            raise IncompatibleStrategyError("uniform tail shift needs a uniform base distribution")


def _tail_shift_dist(base: Uniform, eps: float, direction: int) -> Uniform:
    width = base.hi - base.lo
    stretched = width / (1.0 - eps)
    if direction > 0:
        return Uniform(base.hi, base.lo + stretched)
    return Uniform(base.hi - stretched, base.lo)


def _fixed_component(arm: ContaminatedArm) -> Distribution:
    strat = arm.strategy
    if isinstance(strat, FixedContamination):
        return strat.dist
    if isinstance(strat, ShiftMedianUp):
        return Dirac(strat.magnitude)
    if isinstance(strat, ShiftMedianDown):
        return Dirac(-strat.magnitude)
    if isinstance(strat, UniformTailShift):
        return _tail_shift_dist(arm.dist, arm.eps, strat.direction)
    raise IncompatibleStrategyError(f"{type(strat).__name__} has no fixed contamination law")


@dataclass(frozen=True)
class BatchDraw:
    """Debug-mode batch retaining the internals the learner never sees."""

    x: np.ndarray
    y: np.ndarray
    d: np.ndarray
    z: np.ndarray


def median_sandwich_bounds(clean: np.ndarray, corrupted: int) -> tuple[float, float]:
    """Deterministic envelope for the empirical median of a batch in which
    ``corrupted`` of the clean values were replaced by arbitrary ones.

    Uses ranks floor(n/2) - s and floor(n/2) + 1 + s of the sorted clean
    values. The upper rank is one past the midpoint so the even-n midpoint
    average stays inside the envelope.
    """
    y = np.sort(np.asarray(clean, dtype=float))
    n = y.size
    s = int(corrupted)
    if not 0 <= s < n / 2:
        raise ParameterOutOfRangeError("sandwich bounds need corrupted count below n/2")
    lo_rank = max(n // 2 - s, 1)
    hi_rank = min(n // 2 + 1 + s, n)
    return float(y[lo_rank - 1]), float(y[hi_rank - 1])


def draw_batch(
    arm: ContaminatedArm, n: int, rng: np.random.Generator, debug: bool = False
):
    """Draw n contaminated samples; returns the array, or a BatchDraw in debug mode.

    The clean values are drawn first, so with eps = 0 the output is bitwise
    equal to a plain sample of the arm's distribution under a shared seed.
    Debug mode also asserts the order-statistic sandwich on the realized batch.
    """
    if n < 1:
        raise ParameterOutOfRangeError(f"batch size must be at least 1, got {n}")
    strat = arm.strategy
    y = arm.dist.sample(n, rng)
    u = rng.random(n)
    if isinstance(strat, BelowMedianCoupling):
        d = (y <= strat.threshold) & (u < strat.flip_prob)
    elif isinstance(strat, AtomTriggeredCoupling):
        d = (y == strat.trigger) & (u < strat.flip_prob)
    else:
        d = u < arm.eps

    if isinstance(strat, _COUPLED):
        z = np.full(n, strat.point)
    elif isinstance(strat, EmpiricalQuantileShift):
        # the ceil(nq)-th order statistic, which is numpy's inverted_cdf quantile
        # bitwise; picked directly because per-round batches hold a few values and
        # the general quantile routine's dispatch would cost more than the pick
        k = min(max(math.ceil(n * strat.target_quantile) - 1, 0), n - 1)
        z = np.full(n, float(np.partition(y, k)[k]))
    elif isinstance(strat, UniformTailShift) and arm.eps == 0.0:
        z = np.full(n, np.nan)  # never selected; the stretched law is undefined at eps=0
    else:
        z = _fixed_component(arm).sample(n, rng)

    x = np.where(d, z, y)
    if debug:
        s = int(d.sum())
        if 2 * s < n:
            lo, hi = median_sandwich_bounds(y, s)
            med = float(np.median(x))
            if not lo <= med <= hi:
                raise AssertionError(
                    f"median sandwich violated: {med} outside [{lo}, {hi}] with {s} corrupted"
                )
        return BatchDraw(x=x, y=y, d=d, z=z)
    return x


def contaminated_cdf(arm: ContaminatedArm, x):
    """Exact cdf of the observable (contaminated) law, where one exists."""
    strat = arm.strategy
    xs = np.asarray(x, dtype=float)
    base = np.asarray(arm.dist.cdf(xs))
    if arm.eps == 0.0:
        return base if base.ndim else float(base)
    if isinstance(strat, BelowMedianCoupling):
        moved = strat.flip_prob * np.asarray(arm.dist.cdf(np.minimum(xs, strat.threshold)))
        total = strat.flip_prob * float(arm.dist.cdf(strat.threshold))
        out = base - moved + total * (xs >= strat.point)
    elif isinstance(strat, AtomTriggeredCoupling):
        mass = strat.flip_prob * float(arm.dist.atom_mass(strat.trigger))
        out = base - mass * (xs >= strat.trigger) + mass * (xs >= strat.point)
    elif isinstance(strat, EmpiricalQuantileShift):
        raise IncompatibleStrategyError("batch-aware contamination has no fixed observable law")
    else:
        g = np.asarray(_fixed_component(arm).cdf(xs))
        out = (1.0 - arm.eps) * base + arm.eps * g
    return out if out.ndim else float(out)


def malicious_median_attack(dist: Distribution, eps: float) -> ContaminatedArm:
    """Worst-case malicious coupling against a continuous-at-the-median arm.

    Flags each draw at or below the median with probability 2 eps and replaces
    it by the right quantile at level 1/2 + eps, keeping the flag marginal at
    Bernoulli(eps) while the observable median shifts by the full quantile gap.
    """
    if not 0.0 < eps < 0.5:
        raise ParameterOutOfRangeError(f"eps must lie in (0, 1/2), got {eps}")
    med_lo = dist.quantile_left(0.5)
    med_hi = dist.quantile_right(0.5)
    if abs(med_hi - med_lo) > 1e-10 * max(1.0, abs(med_lo)):
        raise ParameterOutOfRangeError("attack needs a unique median")
    median = med_lo
    if abs(float(dist.cdf(median)) - 0.5) > 1e-9:
        raise ParameterOutOfRangeError(
            "attack needs P(Y <= median) = 1/2 exactly; cdf jumps across the median"
        )
    point = dist.quantile_right(0.5 + eps)
    strategy = BelowMedianCoupling(threshold=median, flip_prob=2.0 * eps, point=point)
    return ContaminatedArm(dist=dist, strategy=strategy, eps=eps, model=AdversaryModel.MALICIOUS)


@dataclass(frozen=True)
class MarginalReport:
    passed: bool
    n: int
    d_frequency: float
    d_band: float
    ks_statistic: float
    ks_bound: float


def ks_distance(values, dist: Distribution) -> float:
    """sup_x |empirical cdf - F|, tie-aware so atoms are handled correctly."""
    xs = np.asarray(values, dtype=float)
    n = xs.size
    uniq, counts = np.unique(xs, return_counts=True)
    ecdf_hi = np.cumsum(counts) / n
    ecdf_lo = ecdf_hi - counts / n
    fs = np.asarray(dist.cdf(uniq), dtype=float)
    fs_left = fs - np.asarray(dist.atom_mass(uniq), dtype=float)
    return float(max(np.max(np.abs(fs - ecdf_hi)), np.max(np.abs(fs_left - ecdf_lo))))


def verify_marginals(
    arm: ContaminatedArm, n: int, rng: np.random.Generator, delta: float = 0.01
) -> MarginalReport:
    """Draw a debug batch and check the contamination-flag frequency and the
    clean-sample KS distance against their concentration bands."""
    band = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    if arm.eps > 0 and not band < arm.eps / 2.0:
        raise ParameterOutOfRangeError(
            f"n={n} too small: the Hoeffding band {band:.4g} must be below eps/2"
        )
    batch = draw_batch(arm, n, rng, debug=True)
    d_freq = float(batch.d.mean())
    ks = ks_distance(batch.y, arm.dist)
    ks_bound = 2.0 * band
    passed = abs(d_freq - arm.eps) <= band and ks <= ks_bound
    return MarginalReport(
        passed=passed, n=n, d_frequency=d_freq, d_band=band, ks_statistic=ks, ks_bound=ks_bound
    )
