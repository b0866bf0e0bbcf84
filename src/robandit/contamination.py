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
    _is_unique,
    _median_levels,
    _median_pair,
    _on_floats,
)
from .errors import IncompatibleStrategyError, ParameterOutOfRangeError

__all__ = [
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
    "draw_clean",
    "draw_sample",
    "segment_quantiles",
    "contaminated_cdf",
    "malicious_median_attack",
    "median_sandwich_bounds",
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


class _Coupling:
    """A strategy whose flags depend on the clean draw: it flags a triggering
    draw with probability ``flip_prob``, in [0, 1]."""

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ParameterOutOfRangeError(
                f"flip_prob must lie in [0, 1], got {self.flip_prob}", "flip_prob"
            )


@dataclass(frozen=True)
class BelowMedianCoupling(_Coupling):
    """Contaminate only draws at or below a threshold, with a fixed replacement.

    With flip_prob = 2 eps and the threshold at a continuity median, the flag's
    marginal is exactly Bernoulli(eps) while the observable median moves to the
    replacement point.
    """

    threshold: float
    flip_prob: float
    point: float


@dataclass(frozen=True)
class AtomTriggeredCoupling(_Coupling):
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

@dataclass(frozen=True)
class ContaminatedArm:
    """One bandit arm: true distribution, contamination strategy, level, model."""

    dist: Distribution
    strategy: ContaminationStrategy
    eps: float
    model: AdversaryModel

    def __post_init__(self):
        if not 0.0 <= self.eps < 0.5:
            raise ParameterOutOfRangeError(f"eps must lie in [0, 1/2), got {self.eps}", "eps")
        if isinstance(self.strategy, _Coupling):
            if self.model is not AdversaryModel.MALICIOUS:
                raise IncompatibleStrategyError(
                    "coupled contamination flags require the malicious adversary model"
                )
            # a coupling may flag an eps share of the pulls, with twice the slack
            # that malicious_median_attack's 1e-9 check on F(median) lets through
            rate = _flag_rate(self)
            if not rate <= self.eps + 2e-9 * self.strategy.flip_prob:
                raise ParameterOutOfRangeError(
                    f"{type(self.strategy).__name__} flags {rate} of the pulls, above eps {self.eps}"
                )
        if isinstance(self.strategy, EmpiricalQuantileShift) and self.model is AdversaryModel.OBLIVIOUS:
            raise IncompatibleStrategyError(
                "batch-aware contamination requires the prescient or malicious model"
            )
        if isinstance(self.strategy, UniformTailShift) and not isinstance(self.dist, Uniform):
            raise IncompatibleStrategyError("uniform tail shift needs a uniform base distribution")
        if self.eps and not isinstance(self.strategy, EmpiricalQuantileShift):
            # built once here, so that a law no pull could draw (a point mass at
            # inf or nan, a stretched law that overflows) fails before any pull
            try:
                _fixed_component(self)
            except ParameterOutOfRangeError as exc:
                name = type(self.strategy).__name__
                raise ParameterOutOfRangeError(f"{name}'s contamination law: {exc}") from exc


def _flag_rate(arm: ContaminatedArm) -> float:
    """P(D = 1) on a coupled arm: flip_prob times the chance of a triggering draw."""
    strat = arm.strategy
    if isinstance(strat, BelowMedianCoupling):
        return strat.flip_prob * arm.dist.cdf(strat.threshold)
    return strat.flip_prob * arm.dist.atom_mass(strat.trigger)


def _fixed_component(arm: ContaminatedArm) -> Distribution:
    """The law a contaminated pull is drawn from, for a strategy that fixes one."""
    strat = arm.strategy
    if isinstance(strat, FixedContamination):
        return strat.dist
    if isinstance(strat, ShiftMedianUp):
        return Dirac(strat.magnitude)
    if isinstance(strat, ShiftMedianDown):
        return Dirac(-strat.magnitude)
    if isinstance(strat, _Coupling):
        return Dirac(strat.point)
    if isinstance(strat, UniformTailShift):
        base = arm.dist
        stretched = (base.hi - base.lo) / (1.0 - arm.eps)
        if strat.direction > 0:
            return Uniform(base.hi, base.lo + stretched)
        return Uniform(base.hi - stretched, base.lo)
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


def draw_clean(arm: ContaminatedArm, n: int, rng: np.random.Generator):
    """The clean values y and contamination flags d of n draws, as ``draw_batch``
    draws them: y first, then one uniform per flag."""
    strat = arm.strategy
    y = arm.dist.sample(n, rng)
    u = rng.random(n)
    if isinstance(strat, BelowMedianCoupling):
        return y, (y <= strat.threshold) & (u < strat.flip_prob)
    if isinstance(strat, AtomTriggeredCoupling):
        return y, (y == strat.trigger) & (u < strat.flip_prob)
    return y, u < arm.eps


def segment_quantiles(y: np.ndarray, sizes, q: float) -> np.ndarray:
    """``EmpiricalQuantileShift`` values for consecutive batches of ``sizes``
    clean values ``y``: each batch's ceil(nq)-th order statistic, repeated n
    times. A batch of size 0 adds nothing.

    That order statistic is numpy's ``inverted_cdf`` quantile bitwise. Each run
    of consecutive batches of one size is sorted as the rows of one matrix by a
    stable sort, so equal values keep their order and the pick is the element
    a stable sort of its batch alone would pick. A race's rounds shrink to 2
    pulls, so the rounds of a block of pulls cost a few row sorts. A run of
    two-value batches takes one comparison instead: the second value comes
    first only if it is strictly smaller, as in a stable sort, so ties and
    signed zeros pick what it picks (clean values are never NaN).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    picks = np.empty(sizes.size, dtype=y.dtype)
    runs = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), sizes.size]
    for a, b in zip(runs, runs[1:]) if sizes.size else ():
        n = int(sizes[a])
        if n:
            rows = y[ends[a] - n : ends[b - 1]].reshape(b - a, n)
            rank = min(max(math.ceil(n * q) - 1, 0), n - 1)
            if n == 2:
                first, second = rows[:, 0], rows[:, 1]
                swap = second < first
                pick = (first, second) if rank else (second, first)
                picks[a:b] = np.where(swap, *pick)
            else:
                picks[a:b] = np.sort(rows, axis=1, kind="stable")[:, rank]
    return np.repeat(picks, sizes)


def draw_batch(
    arm: ContaminatedArm, n: int, rng: np.random.Generator, debug: bool = False
):
    """Draw n contaminated samples; returns the array, or a BatchDraw in debug mode.

    The clean values are drawn first, so with eps = 0 the output is bitwise
    equal to a plain sample of the arm's distribution under a shared seed.
    A fixed law is drawn only at flagged pulls, in order, and written over the
    clean values there; in debug mode ``z`` holds them and is NaN elsewhere.
    Debug mode also asserts the order-statistic sandwich on the realized batch.
    A consumer that reads the batch only as a multiset draws it with
    ``draw_sample`` instead, which skips the per-pull flags.
    """
    if n < 1:
        raise ParameterOutOfRangeError(f"batch size must be at least 1, got {n}")
    strat = arm.strategy
    y, d = draw_clean(arm, n, rng)
    s = int(np.count_nonzero(d))
    # no law is built without a flag: the tail shift has none at eps = 0
    if isinstance(strat, EmpiricalQuantileShift):
        z = segment_quantiles(y, [n], strat.target_quantile)
    elif not debug:
        if s:
            y[d] = _fixed_component(arm).sample(s, rng)
        return y
    else:
        z = np.full(n, np.nan)
        if s:
            z[d] = _fixed_component(arm).sample(s, rng)

    x = np.where(d, z, y)
    if debug:
        if 2 * s < n:
            lo, hi = median_sandwich_bounds(y, s)
            med = float(np.median(x))
            if not lo <= med <= hi:
                raise AssertionError(
                    f"median sandwich violated: {med} outside [{lo}, {hi}] with {s} corrupted"
                )
        return BatchDraw(x=x, y=y, d=d, z=z)
    return x


def draw_sample(arm: ContaminatedArm, n: int, rng: np.random.Generator) -> np.ndarray:
    """n contaminated values for a consumer that reads them only as a multiset
    (a median, a MAD): the same law as ``draw_batch``'s batch up to order, from
    fewer random numbers.

    At eps > 0 it draws the contaminated count s ~ Binomial(n, eps) first. A
    fixed law then gives n - s clean values followed by s values of the law;
    ``empirical_quantile`` gives n clean values, of which the last s are
    replaced by the batch's ceil(nq)-th order statistic. Flags that are iid
    Bernoulli(eps) and independent of the clean values put exactly such a
    count at exchangeable positions, so the multiset's law is ``draw_batch``'s.
    At eps = 0 this is ``arm.dist.sample(n, rng)`` bitwise. Coupled flags
    depend on the clean values, so a coupled arm draws ``draw_batch``.
    """
    if n < 1:
        raise ParameterOutOfRangeError(f"batch size must be at least 1, got {n}")
    strat = arm.strategy
    if isinstance(strat, _Coupling):
        return draw_batch(arm, n, rng)
    if not arm.eps:
        return arm.dist.sample(n, rng)
    s = int(rng.binomial(n, arm.eps))
    if isinstance(strat, EmpiricalQuantileShift):
        y = arm.dist.sample(n, rng)
        y[n - s :] = segment_quantiles(y, [n], strat.target_quantile)[n - s :]
        return y
    y = arm.dist.sample(n - s, rng)
    # as in draw_batch, no law is built without a contaminated value
    return np.concatenate((y, _fixed_component(arm).sample(s, rng))) if s else y


def contaminated_cdf(arm: ContaminatedArm, x):
    """Exact cdf of the observable (contaminated) law, where one exists."""
    return _on_floats(lambda xs: _observable_cdf(arm, xs), x)


def _observable_cdf(arm: ContaminatedArm, xs: np.ndarray) -> np.ndarray:
    strat = arm.strategy
    base = arm.dist._cdf(xs)
    if arm.eps == 0.0:
        return base
    if isinstance(strat, BelowMedianCoupling):
        moved = strat.flip_prob * arm.dist._cdf(np.minimum(xs, strat.threshold))
        return base - moved + _flag_rate(arm) * (xs >= strat.point)
    if isinstance(strat, AtomTriggeredCoupling):
        mass = _flag_rate(arm)
        return base - mass * (xs >= strat.trigger) + mass * (xs >= strat.point)
    return (1.0 - arm.eps) * base + arm.eps * _fixed_component(arm)._cdf(xs)


def malicious_median_attack(dist: Distribution, eps: float) -> ContaminatedArm:
    """Worst-case malicious coupling against a continuous-at-the-median arm.

    Flags each draw at or below the median with probability 2 eps and replaces
    it by the right quantile at level 1/2 + eps, keeping the flag marginal at
    Bernoulli(eps) while the observable median shifts by the full quantile gap.
    """
    if not 0.0 < eps < 0.5:
        raise ParameterOutOfRangeError(f"eps must lie in (0, 1/2), got {eps}")
    median, med_hi = _median_pair(dist)
    if not _is_unique(median, med_hi):
        raise ParameterOutOfRangeError("attack needs a unique median")
    if abs(dist.cdf(median) - 0.5) > 1e-9:
        raise ParameterOutOfRangeError(
            "attack needs P(Y <= median) = 1/2 exactly; cdf jumps across the median"
        )
    point = dist.quantile_right(_median_levels(eps, AdversaryModel.MALICIOUS)[1])
    strategy = BelowMedianCoupling(threshold=median, flip_prob=2.0 * eps, point=point)
    return ContaminatedArm(dist=dist, strategy=strategy, eps=eps, model=AdversaryModel.MALICIOUS)
