"""Best-arm identification under partial identifiability.

Three algorithms:

* ``run_simple`` pulls every arm the same precomputed number of times and
  returns the arm with the best empirical median.
* ``run_successive_elimination`` is the generic racing loop driven by an
  abstract estimator oracle with a known accuracy-per-round profile.
* ``run_contaminated_successive_elimination`` specializes the racing loop to
  contaminated arms: a warm-up phase buys the validity floor of the median
  concentration bound, later rounds top up samples so the running medians stay
  accurate at the shrinking per-round thresholds.

Because estimates are only identifiable up to a per-arm bias, correctness is
stated in terms of effective gaps: the best arm's pessimistic value minus a
rival's optimistic one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contamination import ContaminatedArm, EmpiricalQuantileShift, draw_batch
from .distributions import AdversaryModel, FamilyParams, contamination_bias, robust_moments
from .errors import NonUniqueMedianError, ParameterOutOfRangeError
from .estimators import EstimationParams, empirical_median, sample_size_median

__all__ = [
    "BanditInstance",
    "AlgoConfig",
    "BanditRunResult",
    "EffectiveGapReport",
    "effective_gaps",
    "run_simple",
    "simple_exploration_estimates",
    "SimpleRunOutcome",
    "run_successive_elimination",
    "run_contaminated_successive_elimination",
    "elimination_round_delta",
    "warmup_pulls",
    "RunningMedian",
]


@dataclass(frozen=True)
class BanditInstance:
    """A bank of contaminated arms sharing one contamination level and model."""

    arms: tuple[ContaminatedArm, ...]

    def __init__(self, arms):
        arms = tuple(arms)
        if not arms:
            raise ParameterOutOfRangeError("an instance needs at least one arm")
        eps = arms[0].eps
        model = arms[0].model
        if any(a.eps != eps or a.model is not model for a in arms):
            raise ParameterOutOfRangeError("all arms must share eps and adversary model")
        object.__setattr__(self, "arms", arms)

    @property
    def k(self) -> int:
        return len(self.arms)

    @property
    def eps(self) -> float:
        return self.arms[0].eps

    @property
    def model(self) -> AdversaryModel:
        return self.arms[0].model


@dataclass(frozen=True)
class AlgoConfig:
    """Run parameters shared by the bandit algorithms.

    ``threshold_variant`` selects the elimination-radius constant for the
    contaminated racing loop: "squared-slope" (default, consistent with the
    sample-size formulas) or "linear-slope" for measuring the alternative.
    """

    alpha: float
    delta: float
    family: FamilyParams
    eps0: float
    max_rounds: int = 10**6
    early_stop: bool = False
    threshold_variant: str = "squared-slope"

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ParameterOutOfRangeError(f"delta must lie in (0, 1), got {self.delta}")
        if self.alpha < 0:
            raise ParameterOutOfRangeError(f"alpha must be nonnegative, got {self.alpha}")
        if self.max_rounds < 1:
            raise ParameterOutOfRangeError("max_rounds must be positive")
        if self.threshold_variant not in ("squared-slope", "linear-slope"):
            raise ParameterOutOfRangeError(f"unknown threshold variant {self.threshold_variant!r}")

    def estimation_params(self, model: AdversaryModel) -> EstimationParams:
        return EstimationParams(eps0=self.eps0, family=self.family, model=model)


@dataclass(frozen=True)
class BanditRunResult:
    chosen_arm: int
    pulls_per_arm: tuple[int, ...]
    rounds: int
    elimination_trace: tuple[tuple[int, tuple[int, ...]], ...]
    terminated_by: str  # single-survivor | early-stop | round-cap

    @property
    def total_pulls(self) -> int:
        return sum(self.pulls_per_arm)


@dataclass(frozen=True)
class EffectiveGapReport:
    """Per-arm identifiable separation from the best arm.

    ``gaps[i]`` is None for the best arm itself. Arms whose effective gap is
    not strictly positive are statistically indistinguishable from the best
    arm and are listed in ``infeasible_arms``.
    """

    best_arm: int
    gaps: tuple[float | None, ...]
    medians: tuple[float, ...]
    mads: tuple[float, ...]
    biases: tuple[float, ...]

    @property
    def infeasible_arms(self) -> tuple[int, ...]:
        return tuple(
            i for i, g in enumerate(self.gaps) if g is not None and g <= 0.0
        )


def effective_gaps(instance: BanditInstance, family: FamilyParams) -> EffectiveGapReport:
    """Compute medians, per-arm biases and effective gaps of an instance."""
    medians = []
    mads = []
    for arm in instance.arms:
        moments = robust_moments(arm.dist)
        if not moments.median_unique:
            raise NonUniqueMedianError("effective gaps need unique medians for every arm")
        medians.append(moments.median)
        mads.append(moments.mad)
    biases = [
        contamination_bias(instance.eps, family.slope_bound, mad, instance.model)
        for mad in mads
    ]
    best = max(range(instance.k), key=lambda i: (medians[i], -i))
    pessimistic_best = medians[best] - biases[best]
    gaps: list[float | None] = []
    for i in range(instance.k):
        if i == best:
            gaps.append(None)
        else:
            gaps.append(pessimistic_best - (medians[i] + biases[i]))
    return EffectiveGapReport(
        best_arm=best,
        gaps=tuple(gaps),
        medians=tuple(medians),
        mads=tuple(mads),
        biases=tuple(biases),
    )


@dataclass(frozen=True)
class SimpleRunOutcome:
    result: BanditRunResult
    medians: tuple[float, ...]
    mads: tuple[float, ...]


def simple_exploration_estimates(
    instance: BanditInstance, config: AlgoConfig, rng: np.random.Generator
) -> SimpleRunOutcome:
    """Uniform exploration, retaining per-arm empirical medians and MADs.

    Every arm is pulled exactly the number of times needed to certify accuracy
    alpha/2 at confidence delta/k, so the total pull count is a deterministic
    function of the configuration.
    """
    if not config.alpha > 0:
        raise ParameterOutOfRangeError("uniform exploration needs alpha > 0")
    params = config.estimation_params(instance.model)
    n = sample_size_median(config.alpha / 2.0, config.delta / instance.k, params)
    medians = []
    mads = []
    for arm in instance.arms:
        xs = draw_batch(arm, n, rng)
        med = empirical_median(xs)
        medians.append(med)
        mads.append(empirical_median(np.abs(xs - med)))
    chosen = int(np.argmax(medians))
    result = BanditRunResult(
        chosen_arm=chosen,
        pulls_per_arm=(n,) * instance.k,
        rounds=1,
        elimination_trace=(),
        terminated_by="single-survivor",
    )
    return SimpleRunOutcome(result=result, medians=tuple(medians), mads=tuple(mads))


def run_simple(
    instance: BanditInstance, config: AlgoConfig, rng: np.random.Generator
) -> BanditRunResult:
    return simple_exploration_estimates(instance, config, rng).result


def elimination_round_delta(r: int, k: int, delta: float) -> float:
    """Per-round confidence share 6 delta / (pi^2 k r^2); sums to delta/k over rounds."""
    return 6.0 * delta / (math.pi**2 * k * r * r)


class RunningMedian:
    """Two-heap running median matching ``empirical_median`` exactly.

    The reference oracle for the racing kernel, which keeps sorted arrays
    instead: its tests replay the kernel against a round-by-round loop that
    pushes every pull into one of these. ``_low`` is a negated max-heap of the
    lower half, ``_high`` a min-heap of the upper half; the lower half holds
    the extra element for odd counts.
    """

    __slots__ = ("_low", "_high")

    def __init__(self):
        self._low: list[float] = []
        self._high: list[float] = []

    def push(self, value: float) -> None:
        value = float(value)
        low, high = self._low, self._high
        if low and value > -low[0]:
            heapq.heappush(high, value)
        else:
            heapq.heappush(low, -value)
        if len(low) > len(high) + 1:
            heapq.heappush(high, -heapq.heappop(low))
        elif len(high) > len(low):
            heapq.heappush(low, -heapq.heappop(high))

    @property
    def count(self) -> int:
        return len(self._low) + len(self._high)

    @property
    def median(self) -> float:
        low, high = self._low, self._high
        if not low:
            raise ParameterOutOfRangeError("running median is empty")
        if len(low) > len(high):
            return -low[0]
        return 0.5 * (-low[0] + high[0])


def _eliminate(
    survivors: list[int], estimates, radius: float
) -> tuple[list[int], tuple[int, ...]]:
    """Split survivors into those within two radii of the front-runner and the dropped rest."""
    best_value = max(estimates[i] for i in survivors)
    keep = [i for i in survivors if estimates[i] >= best_value - 2.0 * radius]
    return keep, tuple(i for i in survivors if i not in keep)


def run_successive_elimination(
    estimator: Callable[[int, np.random.Generator], float],
    k: int,
    delta: float,
    c: float,
    rng: np.random.Generator,
    max_rounds: int = 10**6,
) -> BanditRunResult:
    """Generic racing loop over an abstract estimator oracle.

    ``estimator(i, rng)`` must draw one more sample for arm i and return the
    updated estimate; after r calls the estimate must be accurate to within
    the arm's bias plus sqrt(c log(1/delta') / r) at confidence 1 - delta'.
    Arms falling 2 radii behind the front-runner are eliminated. Hitting the
    round cap is reported in ``terminated_by``, never silently.
    """
    if k < 1:
        raise ParameterOutOfRangeError("need at least one arm")
    if not 0.0 < delta < 1.0:
        raise ParameterOutOfRangeError(f"delta must lie in (0, 1), got {delta}")
    if not c > 0:
        raise ParameterOutOfRangeError(f"c must be positive, got {c}")
    if k == 1:
        return BanditRunResult(0, (0,), 0, (), "single-survivor")
    pulls = [0] * k
    estimates = [0.0] * k
    survivors = list(range(k))
    trace: list[tuple[int, tuple[int, ...]]] = []
    r = 0
    terminated_by = "single-survivor"
    while len(survivors) > 1:
        if r + 1 > max_rounds:
            terminated_by = "round-cap"
            break
        r += 1
        radius = math.sqrt(c * math.log(1.0 / elimination_round_delta(r, k, delta)) / r)
        for i in survivors:
            estimates[i] = float(estimator(i, rng))
            pulls[i] += 1
        survivors, dropped = _eliminate(survivors, estimates, radius)
        if dropped:
            trace.append((r, dropped))
    chosen = max(survivors, key=lambda i: (estimates[i], -i))
    return BanditRunResult(
        chosen_arm=int(chosen),
        pulls_per_arm=tuple(pulls),
        rounds=r,
        elimination_trace=tuple(trace),
        terminated_by=terminated_by,
    )


def warmup_pulls(k: int, delta: float, params: EstimationParams) -> int:
    """Initial pulls per arm buying the median bound's validity floor for all rounds."""
    floor_scale = 2.0 * params.median_margin() ** -2
    return math.ceil(floor_scale * math.log(math.pi**2 * k / (2.0 * delta)))


# Values a buffered arm draws at once when a round asks for more than it holds.
_REFILL_BLOCK = 256
# numpy's log may differ from math.log by a few ulps; the skip test shrinks
# its radii by this factor, so a rounding difference can only add a check.
_RADIUS_SHRINK = 1.0 - 1e-9
# Rounds covered by the first envelope scan after a check; each further scan doubles.
_SCAN_ROUNDS = 32


class _ArmStream:
    """One arm's pulls in draw order, refilled like a block-buffered puller.

    A buffered arm draws max(block, need) values whenever a round asks for
    more than it holds, and later rounds consume that draw in order; this is
    safe because its values are iid. Batch-aware ``EmpiricalQuantileShift``
    arms (block 0) draw each round's pulls as one batch, since each of their
    contaminated values depends on the batch it was drawn with.
    """

    __slots__ = ("arm", "block", "supplied", "consumed", "held")

    def __init__(self, arm: ContaminatedArm):
        self.arm = arm
        self.block = 0 if isinstance(arm.strategy, EmpiricalQuantileShift) else _REFILL_BLOCK
        self.supplied = 0
        self.consumed = 0
        self.held: list[np.ndarray] = []  # drawn values not yet consumed, in order

    def refills(self, demand: np.ndarray) -> list[tuple[int, int]]:
        """(step, size) of the draws serving the cumulative demands ``demand``:
        a draw falls on each step whose demand exceeds the supply so far."""
        if self.block == 0:
            return list(enumerate(np.diff(demand, prepend=self.consumed).tolist()))
        out = []
        supplied = self.supplied
        if demand[-1] <= supplied:
            return out
        while (j := int(np.searchsorted(demand, supplied, side="right"))) < demand.size:
            size = max(self.block, int(demand[j]) - supplied)
            out.append((j, size))
            supplied += size
        return out

    def take(self, n: int) -> np.ndarray:
        values = self.held[0] if len(self.held) == 1 else np.concatenate(self.held)
        self.held = [values[n:]] if values.size > n else []
        self.consumed += n
        return values[:n]


def _pull_rounds(
    streams: list[_ArmStream], survivors, sizes: np.ndarray, rng: np.random.Generator
) -> list[np.ndarray]:
    """Each survivor's pulls over consecutive rounds of ``sizes`` pulls each.

    Draws are issued by round, then by survivor, as a round-by-round loop
    issues them, so the generator sees the same ``draw_batch`` calls.
    """
    demand = np.cumsum(sizes)
    events = []
    for i in survivors:
        s = streams[i]
        events.extend((j, i, size) for j, size in s.refills(s.consumed + demand))
    events.sort()
    for _, i, size in events:
        s = streams[i]
        s.held.append(draw_batch(s.arm, size, rng))
        s.supplied += size
    total = int(demand[-1])
    return [streams[i].take(total) for i in survivors]


def _round_pulls(rounds: np.ndarray, floor_scale: float) -> np.ndarray:
    """Pulls per survivor in each round, 1 + ceil(2 N log((r+1)/r)).

    Values within rounding of an integer are recomputed with the scalar
    expression, so the counts never depend on numpy's log."""
    x = 2.0 * floor_scale * np.log((rounds + 1.0) / rounds)
    n = 1 + np.ceil(x).astype(np.int64)
    for j in np.flatnonzero(np.abs(x - np.rint(x)) <= 1e-9 * np.maximum(x, 1.0)):
        r = int(rounds[j])
        n[j] = 1 + math.ceil(2.0 * floor_scale * math.log((r + 1.0) / r))
    return n


class _RoundSchedule:
    """A race's per-round quantities, indexed by round and extended by doubling.

    ``cum[r]`` counts the pulls per survivor of rounds 1..r. ``width[r]`` is twice the round radius, shrunk by
    ``_RADIUS_SHRINK``. ``may_stop[r]`` marks the rounds at which the early
    stop or the round cap may fire. Index 0 is the warm-up and holds zeros.
    """

    def __init__(self, floor_scale, radii, stop_radius, max_rounds):
        self._floor_scale = floor_scale
        self._radii = radii
        self._stop_radius = stop_radius
        self._max_rounds = max_rounds
        self.cum = np.zeros(1, dtype=np.int64)
        self.width = np.zeros(1)
        self.may_stop = np.zeros(1, dtype=bool)

    def cover(self, last: int) -> None:
        """Make the arrays reach round ``last``."""
        size = self.cum.size
        if last < size:
            return
        rounds = np.arange(size, max(2 * size, last + 1))
        pulls = _round_pulls(rounds, self._floor_scale)
        width = 2.0 * _RADIUS_SHRINK * self._radii(rounds.astype(float))
        may_stop = rounds > self._max_rounds
        if self._stop_radius is not None:
            may_stop |= width <= self._stop_radius
        self.cum = np.concatenate((self.cum, self.cum[-1] + np.cumsum(pulls)))
        self.width = np.concatenate((self.width, width))
        self.may_stop = np.concatenate((self.may_stop, may_stop))


def _merged(a: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The sorted array ``a`` with ``values`` merged in, without a full sort."""
    values = np.sort(values)
    at = np.searchsorted(a, values) + np.arange(values.size)
    out = np.empty(a.size + values.size)
    rest = np.ones(out.size, dtype=bool)
    rest[at] = False
    out[at] = values
    out[rest] = a
    return out


def _sorted_median(a: np.ndarray) -> float:
    """``empirical_median`` of a sorted array."""
    mid = a.size // 2
    if a.size % 2:
        return float(a[mid])
    return 0.5 * (float(a[mid - 1]) + float(a[mid]))


def run_contaminated_successive_elimination(
    instance: BanditInstance, config: AlgoConfig, rng: np.random.Generator
) -> BanditRunResult:
    """Racing loop on contaminated arms with running empirical medians.

    After the warm-up, round r adds 1 + ceil(2 N log((r+1)/r)) pulls per
    surviving arm (N the validity-floor scale), keeping every running median
    accurate to the round radius at the round's confidence share. In
    ``early_stop`` mode the loop returns the current front-runner once the
    elimination diameter drops to alpha/2.

    Medians are evaluated only at rounds where an elimination or a stop is
    possible (envelope skipping). Each survivor's pulls are kept sorted; m
    pulls after a check at c pulls, its median lies between the check's
    order statistics of ranks lo(c+m) - m and hi(c+m), lo and hi the ranks
    of the middle pair. While the lowest such lower end stays within two
    radii of the highest upper end, no arm can be dropped, so the kernel
    draws all pulls up to the first round where that fails, in the order a
    round-by-round loop would draw them, and checks there. Results and the
    random stream equal those of the round-by-round loop.
    """
    k = instance.k
    params = config.estimation_params(instance.model)
    floor_scale = 2.0 * params.median_margin() ** -2
    warmup = warmup_pulls(k, config.delta, params)
    scale = config.family.slope_bound * config.family.mad_bound
    if config.threshold_variant == "squared-slope":
        radius_scale2 = 2.0 * scale**2
    else:
        radius_scale2 = 2.0 * config.family.slope_bound * config.family.mad_bound**2
    delta, max_rounds = config.delta, config.max_rounds
    stop_radius = config.alpha / 2.0 if config.early_stop else None

    def radius_at(r):
        return math.sqrt(radius_scale2 * math.log(3.0 / elimination_round_delta(r, k, delta)) / r)

    def radii(r):
        return np.sqrt(radius_scale2 * np.log(3.0 / elimination_round_delta(r, k, delta)) / r)

    streams = [_ArmStream(arm) for arm in instance.arms]
    warm = _pull_rounds(streams, range(k), np.array([warmup]), rng)
    if k == 1:
        return BanditRunResult(0, (warmup,), 0, (), "single-survivor")
    schedule = _RoundSchedule(floor_scale, radii, stop_radius, max_rounds)
    anchors = [np.sort(x) for x in warm]
    estimates = [_sorted_median(a) for a in anchors]
    count = warmup
    pulls = [warmup] * k

    def next_check(first: int, survivors: list[int]) -> int:
        """The first round from ``first`` on at which an elimination is
        possible or after which the race may stop; ``first - 1`` was checked."""
        rows = [anchors[i] for i in survivors]
        base = schedule.cum[first - 1]
        span = _SCAN_ROUNDS
        while True:
            last = first + span
            schedule.cover(last + 1)
            m = schedule.cum[first : last + 1] - base
            inside = m < count  # else the envelope has no order statistic to use
            lo = np.maximum((count + m + 1) // 2 - m - 1, 0)
            hi = np.minimum((count + m) // 2, count - 1)
            lowest, highest = rows[0][lo], rows[0][hi]
            for a in rows[1:]:
                np.minimum(lowest, a[lo], out=lowest)
                np.maximum(highest, a[hi], out=highest)
            hit = ~(inside & (lowest >= highest - schedule.width[first : last + 1]))
            hit |= schedule.may_stop[first + 1 : last + 2]
            j = int(hit.argmax())
            if hit[j]:
                return first + j
            first = last + 1
            span *= 2

    survivors = list(range(k))
    trace: list[tuple[int, tuple[int, ...]]] = []
    r = 0
    terminated_by = "single-survivor"
    while len(survivors) > 1:
        radius = radius_at(r + 1)
        if stop_radius is not None and 2.0 * radius <= stop_radius:
            terminated_by = "early-stop"
            break
        if r + 1 > max_rounds:
            terminated_by = "round-cap"
            break
        check = next_check(r + 1, survivors)
        sizes = np.diff(schedule.cum[r : check + 1])
        for i, values in zip(survivors, _pull_rounds(streams, survivors, sizes, rng)):
            anchors[i] = _merged(anchors[i], values)
        count += int(schedule.cum[check] - schedule.cum[r])
        if check > r + 1:
            radius = radius_at(check)
        r = check
        for i in survivors:
            pulls[i] = count
            estimates[i] = _sorted_median(anchors[i])
        survivors, dropped = _eliminate(survivors, estimates, radius)
        if dropped:
            trace.append((r, dropped))
    chosen = max(survivors, key=lambda i: (estimates[i], -i))
    return BanditRunResult(
        chosen_arm=int(chosen),
        pulls_per_arm=tuple(pulls),
        rounds=r,
        elimination_trace=tuple(trace),
        terminated_by=terminated_by,
    )
