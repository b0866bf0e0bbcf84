"""Best-arm identification under partial identifiability.

Two algorithms:

* ``run_simple`` pulls every arm the same precomputed number of times and
  chooses the arm with the best empirical median, keeping every arm's
  empirical median and MAD.
* ``run_contaminated_successive_elimination`` races contaminated arms by
  successive elimination: a warm-up phase buys the validity floor of the median
  concentration bound, later rounds top up samples so the running medians stay
  accurate at the shrinking per-round thresholds.

Because estimates are only identifiable up to a per-arm bias, correctness is
stated in terms of effective gaps: the best arm's pessimistic value minus a
rival's optimistic one.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from .contamination import (
    ContaminatedArm,
    EmpiricalQuantileShift,
    draw_batch,
    draw_clean,
    draw_sample,
    segment_quantiles,
)
from .distributions import AdversaryModel, FamilyParams, _median_mad, contamination_bias
from .errors import NonUniqueMedianError, ParameterOutOfRangeError
from .estimators import (
    _BOUNDS,
    _MAX_DRAWS,
    EstimationParams,
    _empirical_median_mad,
    _delta_log,
    _past_cap,
    sample_size_median,
)

__all__ = [
    "BanditInstance",
    "AlgoConfig",
    "BanditRunResult",
    "EffectiveGapReport",
    "effective_gaps",
    "run_simple",
    "SimpleRunOutcome",
    "run_contaminated_successive_elimination",
    "elimination_round_delta",
    "exploration_pulls",
    "race_schedule",
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

    The contaminated racing loop's radius after round r, at that round's
    confidence share s (``elimination_round_delta``), satisfies
    r * radius**2 / log(3 / s) = 2 (S M)**2, with S the family's slope bound
    and M its MAD bound, as in the sample-size formulas.
    """

    alpha: float
    delta: float
    family: FamilyParams
    eps0: float
    max_rounds: int = 10**6
    early_stop: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ParameterOutOfRangeError(f"delta must lie in (0, 1), got {self.delta}", "delta")
        if not 0.0 <= self.alpha < math.inf:
            raise ParameterOutOfRangeError(
                f"alpha must be nonnegative and finite, got {self.alpha}", "alpha"
            )
        # the round schedule computes max_rounds + 1.0, so a float must hold it
        if not 1 <= self.max_rounds <= sys.float_info.max:
            raise ParameterOutOfRangeError("max_rounds must lie in [1, 1.8e308]", "max_rounds")

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
        median, mad, median_unique, _ = _median_mad(arm.dist)
        if not median_unique:
            raise NonUniqueMedianError("effective gaps need unique medians for every arm")
        medians.append(median)
        mads.append(mad)
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


def run_simple(
    instance: BanditInstance, config: AlgoConfig, rng: np.random.Generator
) -> SimpleRunOutcome:
    """Uniform exploration, retaining per-arm empirical medians and MADs.

    Every arm is pulled ``exploration_pulls`` times, so the total pull count
    is a deterministic function of the configuration.
    """
    n = exploration_pulls(instance.k, config, instance.model)
    medians, mads = zip(
        *(_empirical_median_mad(draw_sample(arm, n, rng)) for arm in instance.arms)
    )
    chosen = int(np.argmax(medians))
    result = BanditRunResult(
        chosen_arm=chosen,
        pulls_per_arm=(n,) * instance.k,
        rounds=1,
        elimination_trace=(),
        terminated_by="single-survivor",
    )
    return SimpleRunOutcome(result=result, medians=medians, mads=mads)


def exploration_pulls(k: int, config: AlgoConfig, model: AdversaryModel) -> int:
    """Pulls per arm in uniform exploration of ``k`` arms: enough to certify
    accuracy alpha/2 at confidence delta/k. A rejection names ``alpha`` or
    the stated ``delta``, not the error level or share drawn from them."""
    if not config.alpha > 0:
        raise ParameterOutOfRangeError("uniform exploration needs alpha > 0", "alpha")
    try:
        return sample_size_median(config.alpha / 2.0, config.delta / k, config.estimation_params(model))
    except ParameterOutOfRangeError as exc:
        if exc.key not in ("error_level", "delta"):
            raise
        message = f"uniform exploration at alpha {config.alpha}: {exc}"
        if exc.key == "delta":
            message = f"delta={config.delta} is too small: its share per arm leaves no sample size"
        key = "alpha" if exc.key == "error_level" else "delta"
        raise ParameterOutOfRangeError(message, key) from exc


def elimination_round_delta(r: int, k: int, delta: float) -> float:
    """Per-round confidence share 6 delta / (pi^2 k r^2); sums to delta/k over rounds."""
    return 6.0 * delta / (math.pi**2 * k * r * r)


class RunningMedian:
    """Two-heap running median matching ``empirical_median`` exactly.

    The reference oracle for the racing kernel, which keeps a sorted window
    of order statistics per arm instead (``_MedianWindow``): its tests replay
    the kernel against a round-by-round loop that pushes every pull into one
    of these. ``_low`` is a negated max-heap of the lower half, ``_high`` a
    min-heap of the upper half; the lower half holds the extra element for
    odd counts.
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


def warmup_pulls(k: int, delta: float, params: EstimationParams) -> int:
    """Initial pulls per arm buying the median bound's validity floor for all rounds."""
    floor_scale = _BOUNDS["median"].floor_scale(params)
    count = floor_scale * _delta_log(math.pi**2 * k / (2.0 * delta), delta)
    if count > _MAX_DRAWS:
        raise _past_cap(count)
    return math.ceil(count)


# Pulls an arm draws at once from its generator.
_BLOCK = 4096
# Rounds covered by a race's first envelope scan; later scans start at twice
# the previous check distance, and each further scan doubles.
_SCAN_ROUNDS = 32
# Sorted ranks an arm's store keeps on each side of its middle pair. Each
# check merges about twice this many values, and the envelope scan stops at
# the windows' reach, so a wider window lets its doubling spans run further
# past the round that drops an arm; a narrower one makes long races check
# more often.
_HALF_WIDTH = 1024


class _ArmPulls:
    """One arm's pulls, drawn from the arm's own generator in blocks of
    ``_BLOCK`` and handed out in order.

    An iid arm's blocks are ``draw_batch`` outputs, so its j-th pull depends
    only on its generator and j. A batch-aware ``EmpiricalQuantileShift`` arm
    (``quantile`` set) draws blocks of clean values and contamination flags
    with ``draw_clean``, so these too depend only on its generator and j. Its
    adversary sees each round's pulls as one batch and places every
    contaminated value of a round at that round's ceil(nq)-th clean order
    statistic. ``ends(start, n)`` gives the ends of the rounds that end
    after pull ``start`` and by pull n, counted from the arm's first pull;
    only a batch-aware arm reads it, for each block it draws. Such an arm
    resolves the contaminated pulls of every round it now holds whole; those
    of the trailing partial round stay NaN until the next draw. ``start``
    counts the pulls before that round, and ``clean`` and ``flags`` hold its
    clean values and flags. ``held`` holds the pulls not yet handed out,
    which the envelope scan reads; they leave as views and are joined only
    at a draw.
    """

    __slots__ = ("arm", "rng", "quantile", "ends", "held", "start", "clean", "flags")

    def __init__(self, arm: ContaminatedArm, rng: np.random.Generator, ends):
        self.arm = arm
        self.rng = rng
        strat = arm.strategy
        self.quantile = strat.target_quantile if isinstance(strat, EmpiricalQuantileShift) else None
        self.ends = ends
        self.held = np.empty(0)
        self.start = 0
        self.clean, self.flags = np.empty(0), np.empty(0, bool)

    def _draw(self, blocks: int) -> None:
        """Draw ``blocks`` more blocks onto the held pulls."""
        if self.quantile is None:
            draws = [draw_batch(self.arm, _BLOCK, self.rng) for _ in range(blocks)]
            self.held = np.concatenate((self.held, *draws))
            return
        ys, ds = zip(*(draw_clean(self.arm, _BLOCK, self.rng) for _ in range(blocks)))
        y, d = np.concatenate((self.clean, *ys)), np.concatenate((self.flags, *ds))
        ends = self.ends(self.start, self.start + y.size) - self.start
        whole = int(ends[-1]) if ends.size else 0
        fill = np.full(y.size, np.nan)
        fill[:whole] = segment_quantiles(y[:whole], np.diff(ends, prepend=0), self.quantile)
        kept = self.held[: self.held.size - self.clean.size]
        self.held = np.concatenate((kept, np.where(d, fill, y)))
        self.clean, self.flags = y[whole:], d[whole:]
        self.start += whole

    def rounds(self, total: int) -> np.ndarray:
        """The arm's next ``total`` pulls, which end at a round's end."""
        short = total - self.held.size
        if short > 0:
            self._draw(-(-short // _BLOCK))
        pulls, self.held = self.held[:total], self.held[total:]
        return pulls


def _log(a: np.ndarray) -> np.ndarray:
    """``math.log`` of every entry; numpy's log may differ from it by an ulp."""
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


class _RoundSchedule:
    """A race's rounds, indexed by round and extended by doubling.

    ``cover(last)`` returns ``(cum, width)`` reaching at least round
    ``last``: ``cum[r]`` counts the pulls per survivor of rounds 1..r, after
    the ``warmup`` pulls of round 0, and ``width[r]`` is twice the round
    radius, the drop test's distance behind the leader. ``stop`` is the first
    round, of those covered and ``max_rounds + 1``, at which a stop fires, and
    ``stopped_by`` names it, the early stop when both fire. Pull counts and
    radii take ``math.log`` as a round-by-round loop would, so the envelope
    scan, the drop test and the stop test all read these.

    Every radius takes log(3 / δ_r) (``numerator``): of the median bound's
    numerators, 2 (oblivious, prescient) and 3 (malicious), the race takes
    the larger, which holds under every model. The warm-up's log(π² k / (2 δ))
    is log(3 / δ_1), and round r adds more than N log(δ_r / δ_{r+1}) pulls, N
    the floor scale, so an arm keeps the bound's validity floor at every round.

    Every entry depends only on the constructor's arguments and its round, so
    one schedule serves every race on the same parameters (``_round_schedule``
    shares it). No array reaches past round ``max_rounds + 1``, the last the
    race reads and the last ``race_schedule`` checks.
    """

    numerator = 3.0

    def __init__(self, floor_scale, radius_scale2, k, delta, stop_radius, max_rounds, warmup):
        self._rule = (floor_scale, radius_scale2, k, delta, stop_radius)
        self.max_rounds, self.warmup = max_rounds, warmup
        self.stop, self.stopped_by = max_rounds + 1, "round-cap"
        self._arrays = (np.zeros(1, dtype=np.int64), np.zeros(1))

    def cover(self, last: int) -> tuple[np.ndarray, np.ndarray]:
        """``(cum, width)``, made to reach round ``last`` or round ``max_rounds + 1``."""
        cum, width = self._arrays
        size = cum.size
        if min(last, self.max_rounds + 1) < size:
            return self._arrays
        floor_scale, radius_scale2, k, delta, stop_radius = self._rule
        r = np.arange(size, min(max(2 * size, last + 1), self.max_rounds + 2), dtype=float)
        pulls = 1 + np.ceil(2.0 * floor_scale * _log((r + 1.0) / r)).astype(np.int64)
        shares = elimination_round_delta(r, k, delta)
        widths = 2.0 * np.sqrt(radius_scale2 * _log(self.numerator / shares) / r)
        if stop_radius is not None and (early := widths <= stop_radius).any():
            self.stop, self.stopped_by = min(self.stop, size + int(early.argmax())), "early-stop"
        cum = np.concatenate((cum, cum[-1] + np.cumsum(pulls)))
        self._arrays = cum, np.concatenate((width, widths))
        return self._arrays

    def ends(self, start: int, n: int) -> np.ndarray:
        """Round ends after pull ``start`` and by pull n or the cap, counted from the first pull."""
        cum = self.cover(0)[0]
        while cum[-1] < n - self.warmup and cum.size <= self.max_rounds:
            cum = self.cover(cum.size)[0]
        lo, hi = cum.searchsorted((start - self.warmup, n - self.warmup), "right")
        return self.warmup + cum[lo:hi]


# The schedule shared by every race on the same parameters.
_round_schedule = functools.lru_cache(maxsize=8)(_RoundSchedule)


def race_schedule(k: int, config: AlgoConfig, model: AdversaryModel) -> _RoundSchedule:
    """The round schedule of a race on ``k`` arms under ``model``, its
    warm-up included, drawing nothing. A radius grows with its round's log
    term, so one whose log term at round ``max_rounds + 1`` overflows is
    rejected at ``delta``, and one whose scale 2 (S M)**2, alone or times that
    log term, overflows at the larger of ``slope_bound`` and ``mad_bound``."""
    params = config.estimation_params(model)
    warmup = warmup_pulls(k, config.delta, params)
    share = elimination_round_delta(config.max_rounds + 1.0, k, config.delta)
    log_term = math.log(_RoundSchedule.numerator / share) if share else math.inf
    if log_term == math.inf:
        message = f"delta={config.delta} is too small for a radius up to round {config.max_rounds + 1}"
        raise ParameterOutOfRangeError(message, "delta")
    slope, mad = config.family.slope_bound, config.family.mad_bound
    try:
        radius_scale2 = 2.0 * (slope * mad) ** 2
    except OverflowError:
        radius_scale2 = math.inf
    if radius_scale2 * log_term == math.inf:
        message = f"slope_bound={slope} and mad_bound={mad} make the race's radius overflow"
        raise ParameterOutOfRangeError(message, "slope_bound" if slope >= mad else "mad_bound")
    stop_radius = config.alpha / 2.0 if config.early_stop else None
    floor_scale = _BOUNDS["median"].floor_scale(params)
    args = (floor_scale, radius_scale2, k, config.delta, stop_radius, config.max_rounds, warmup)
    return _round_schedule(*args)


def _bracket(
    v: np.ndarray, lo: np.ndarray, hi: np.ndarray, m: np.ndarray, ahead: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on an arm's median after each of the increasing pull counts ``m``.

    ``v`` holds the arm's pulls so far, sorted; after m more pulls the middle
    pair has ranks ``lo + m`` and ``hi``. ``ahead`` holds the next pulls, NaN
    where unknown, and pulls past its end are unknown too. Of the first m
    pulls, B(m) lie strictly below ``v[lo[-1]]`` and N(m) are unknown or not
    strictly above ``v[hi[-1]]``, by prefix counts of the held pulls read at
    ``min(m, held.size)`` (a NaN is unknown). The bracket ``v[lo + m - N(m)]
    .. v[hi - B(m)]`` holds the middle pair: both reads lie in ``v[lo[-1]]
    .. v[hi[-1]]``, so at most ``lo + m`` pulls lie strictly below the lower
    end and at least ``hi + 1`` at or below the upper end. With no pull known
    it is ``v[lo] .. v[hi]``, and it is never wider.
    """
    held = ahead[: m[-1]]
    if not held.size:
        return v[lo], v[hi]
    at = np.minimum(m, held.size) - 1
    above, below = (held > v[hi[-1]]).cumsum()[at], (held < v[lo[-1]]).cumsum()[at]
    return v[lo + above], v[hi - below]


class _MedianWindow:
    """One arm's pulls as the order statistics around their middle pair.

    ``pulls`` holds every value taken in, one sorted chunk per ``add``.
    ``window`` holds the ranks ``base`` to ``base + window.size - 1`` sorted:
    at most ``_HALF_WIDTH`` ranks on each side of the middle pair, or all
    ranks while there are no more. It is rebuilt from ``pulls`` when a side
    with values beyond it holds fewer than half of those.
    """

    __slots__ = ("pulls", "window", "base", "count")

    def __init__(self, values: np.ndarray):
        self.pulls: list[np.ndarray] = []
        self.window = np.empty(0)
        self.base = self.count = 0
        self.add(values)

    def add(self, values: np.ndarray) -> None:
        """Take in ``values``: merge those between the window's ends and
        re-centre the window on the new middle pair."""
        values = values.copy()
        values.sort()
        self.pulls.append(values)
        w, base, n = self.window, self.base, self.count + values.size
        # an end with no values beyond it is open, so a whole window stays whole;
        # int() keeps the ranks off numpy scalars, whose arithmetic is about 4x slower
        below = int(values.searchsorted(w[0])) if base else 0
        above = values.searchsorted(w[-1], "right") if base + w.size < self.count else values.size
        # timsort merges the two sorted runs
        w = np.concatenate((w, values[below:above]))
        w.sort(kind="stable")
        base, self.count = base + below, n
        mid = (n - 1) // 2  # the middle pair's ranks are mid and n // 2
        start, stop = max(mid - _HALF_WIDTH, 0), min(n // 2 + _HALF_WIDTH + 1, n)
        # a side of the middle pair with values beyond it needs _HALF_WIDTH // 2 ranks
        short_below = base > 0 and mid - base < _HALF_WIDTH // 2
        short_above = base + w.size < n and base + w.size - 1 - n // 2 < _HALF_WIDTH // 2
        if short_below or short_above:
            w, base = self._rebuild(start, stop), start
        lo, hi = max(start - base, 0), min(stop - base, w.size)
        self.window, self.base = w[lo:hi], base + lo

    def _rebuild(self, start: int, stop: int) -> np.ndarray:
        """The ranks ``start`` to ``stop - 1`` of every value, sorted, by one
        partition."""
        everything = np.concatenate(self.pulls)
        everything.partition((start, stop - 1))
        return np.sort(everything[start:stop])

    def median(self) -> float:
        """``empirical_median`` of every value taken in."""
        w, mid = self.window, self.count // 2 - self.base
        if self.count % 2:
            return float(w[mid])
        return 0.5 * (float(w[mid - 1]) + float(w[mid]))


class _Race:
    """A race between checks: its schedule, each arm's pulls and store, the
    survivors, the last checked round ``r``, the next scan span and the drops."""

    def __init__(self, instance: BanditInstance, config: AlgoConfig, rng: np.random.Generator):
        k = instance.k
        schedule = self.schedule = race_schedule(k, config, instance.model)
        self.streams = [_ArmPulls(a, g, schedule.ends) for a, g in zip(instance.arms, rng.spawn(k))]
        self.stores = [_MedianWindow(s.rounds(schedule.warmup)) for s in self.streams]
        self.survivors = list(range(k))
        self.r, self.span = 0, _SCAN_ROUNDS
        self.trace: list[tuple[int, tuple[int, ...]]] = []

    def next_check(self) -> int | None:
        """The first round after ``r`` at which an elimination is possible or
        after which the race may stop, or at which the ranks to read leave a
        survivor's window; None once one survivor is left or the race stops."""
        cum = self.schedule.cover(self.r + 1)[0]
        if len(self.survivors) < 2 or self.r + 1 >= self.schedule.stop:
            return None
        rows = [self.stores[i] for i in self.survivors]
        count = rows[0].count
        # every window holds the ranks floor..top; m more pulls read ranks
        # (count - 1 - m) // 2 to (count + m) // 2, within them while m <= reach
        floor = max(a.base for a in rows)
        top = min(a.base + a.window.size for a in rows) - 1
        reach = min(count - 1 - 2 * floor, 2 * top + 1 - count)
        views = [a.window[floor - a.base :] for a in rows]
        held = [self.streams[i].held for i in self.survivors]
        first, span, base = self.r + 1, self.span, cum[self.r]
        while True:
            last = min(first + span, self.schedule.max_rounds)
            cum, width = self.schedule.cover(last + 1)
            m = cum[first : last + 1] - base
            ok = int(m.searchsorted(reach, "right"))
            if ok:
                m = m[:ok]
                lo, hi = (count - 1 - 2 * floor - m) // 2, (count - 2 * floor + m) // 2
                lows, highs = zip(*(_bracket(v, lo, hi, m, a) for v, a in zip(views, held)))
                # folded pairwise: ufunc.reduce over a tuple of rows stacks them first
                low, high = functools.reduce(np.minimum, lows), functools.reduce(np.maximum, highs)
                hit = low < high - width[first : first + ok]
                hit[max(self.schedule.stop - first - 1, 0) :] = True
                j = int(hit.argmax())
                if hit[j]:
                    return first + j
            if ok <= last - first:
                return first + ok
            first = last + 1
            span *= 2

    def advance(self, check: int) -> None:
        """Draw every survivor's pulls up to round ``check`` and drop those
        more than two radii behind the leader there."""
        cum, width = self.schedule.cover(check + 1)
        total = int(cum[check] - cum[self.r])
        self.r, self.span = check, 2 * (check - self.r)
        for i in self.survivors:
            self.stores[i].add(self.streams[i].rounds(total))
        medians = {i: self.stores[i].median() for i in self.survivors}
        best_value = max(medians.values())
        keep = [i for i in self.survivors if medians[i] >= best_value - width[check]]
        if len(keep) < len(self.survivors):
            self.trace.append((check, tuple(i for i in self.survivors if i not in keep)))
        self.survivors = keep

    def result(self) -> BanditRunResult:
        terminated_by = "single-survivor" if len(self.survivors) == 1 else self.schedule.stopped_by
        chosen = max(self.survivors, key=lambda i: (self.stores[i].median(), -i))
        pulls = tuple(s.count for s in self.stores)
        return BanditRunResult(int(chosen), pulls, self.r, tuple(self.trace), terminated_by)


def run_contaminated_successive_elimination(
    instance: BanditInstance, config: AlgoConfig, rng: np.random.Generator
) -> BanditRunResult:
    """Racing loop on contaminated arms with running empirical medians.

    After the warm-up, round r adds 1 + ceil(2 N log((r+1)/r)) pulls per
    surviving arm (N the validity-floor scale), keeping every running median
    accurate to the round radius at the round's confidence share. In
    ``early_stop`` mode the loop returns the current front-runner once the
    elimination diameter drops to alpha/2 (``_RoundSchedule.stop``).

    Medians are evaluated only at rounds where an elimination or a stop is
    possible (envelope skipping). Each survivor keeps the order statistics
    around its middle pair sorted (``_MedianWindow``). m pulls after a check
    at c pulls, its median lies between the check's order statistics of ranks
    lo(c+m) - N(m) and hi(c+m) - B(m), lo and hi the ranks of the middle pair
    (``_bracket``). Over a span of the scan that reaches M pulls, B(m) counts
    the arm's next m pulls strictly below its order statistic of rank
    lo(c+M) - M and N(m) those not strictly above that of rank hi(c+M).
    Only the pulls the arm already holds are known; a pull past them, or a
    batch-aware arm's contaminated pull in a round it does not yet hold
    whole, counts in N but not in B, so with nothing known the ranks are
    lo(c+m) - m and hi(c+m). While the lowest such lower end stays within
    two radii of the highest upper end, no arm can be dropped, so the kernel
    draws all pulls up to the first round where that fails, or where those
    ranks leave a survivor's window, and checks there. The scan and the drop
    test subtract the same two radii (``_RoundSchedule``), and rounding is
    monotone, so the scan reaches every round where an arm can be dropped; a
    check at any other round changes nothing, so results equal those of a
    round-by-round loop. The scan draws nothing, so each arm's draws do not
    depend on it.

    Arm i pulls from its own generator ``rng.spawn(k)[i]`` in fixed blocks (see
    ``_ArmPulls``), so its pulls do not depend on when the kernel checks or on
    its rivals. An ``EmpiricalQuantileShift`` arm's contaminated values depend
    on their round's clean values only; its blocks hold those and the flags,
    and each block reads its rounds' ends from the schedule (``_RoundSchedule.ends``).
    """
    race = _Race(instance, config, rng)
    while (check := race.next_check()) is not None:
        race.advance(check)
    return race.result()
