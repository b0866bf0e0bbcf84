import dataclasses
import hashlib
import heapq
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import robandit as rb
import robandit.bandit as bandit

OBL = rb.AdversaryModel.OBLIVIOUS
FAMILY = rb.FamilyParams(t_bar=0.4, slope_bound=4.0, mad_bound=0.25, mad_ratio=2.0)


def tail_instance(starts, eps, best):
    arms = []
    for i, start in enumerate(starts):
        direction = -1 if i == best else 1
        arms.append(
            rb.ContaminatedArm(
                rb.Uniform(start, start + 1.0), rb.UniformTailShift(direction), eps, OBL
            )
        )
    return rb.BanditInstance(arms)


def clean_instance(medians, eps=0.0):
    arms = [
        rb.ContaminatedArm(
            rb.Uniform(m - 0.5, m + 0.5), rb.FixedContamination(rb.Dirac(0.0)), eps, OBL
        )
        for m in medians
    ]
    return rb.BanditInstance(arms)


class TestInstance:
    def test_shared_eps_and_model_enforced(self):
        a = rb.ContaminatedArm(rb.Uniform(0, 1), rb.ShiftMedianUp(), 0.1, OBL)
        b = rb.ContaminatedArm(rb.Uniform(0, 1), rb.ShiftMedianUp(), 0.2, OBL)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.BanditInstance([a, b])

    def test_needs_an_arm(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.BanditInstance([])


class TestEffectiveGaps:
    def test_two_uniform_arms(self):
        instance = clean_instance([0.5, 0.8], eps=0.1)
        report = rb.effective_gaps(instance, FAMILY)
        assert report.best_arm == 1
        bias = 4.0 * 0.25 * 0.1 / 1.8
        assert report.gaps[0] == pytest.approx(0.3 - 2 * bias, abs=1e-12)
        assert report.gaps[0] == pytest.approx(0.18888888888888888, abs=1e-9)
        assert report.gaps[1] is None
        assert report.infeasible_arms == ()

    def test_identical_arms_flagged(self):
        instance = clean_instance([0.5, 0.5], eps=0.1)
        report = rb.effective_gaps(instance, FAMILY)
        assert report.best_arm == 0
        assert report.gaps[1] == pytest.approx(-2 * 4.0 * 0.25 * 0.1 / 1.8)
        assert report.infeasible_arms == (1,)

    def test_zero_eps_gives_classical_gaps(self):
        instance = clean_instance([0.5, 0.9])
        report = rb.effective_gaps(instance, FAMILY)
        assert report.gaps[0] == pytest.approx(0.4, abs=1e-12)

    def test_non_unique_median_rejected(self):
        arm = rb.ContaminatedArm(rb.Bernoulli(0.5), rb.ShiftMedianUp(), 0.1, OBL)
        with pytest.raises(rb.NonUniqueMedianError):
            rb.effective_gaps(rb.BanditInstance([arm]), FAMILY)


class TestRunSimple:
    def test_single_arm(self):
        instance = clean_instance([0.5])
        config = rb.AlgoConfig(alpha=0.2, delta=0.1, family=FAMILY, eps0=0.0)
        result = rb.run_simple(instance, config, np.random.default_rng(0)).result
        assert result.chosen_arm == 0
        assert result.rounds == 1

    def test_deterministic_pull_count(self):
        instance = tail_instance([0.0, 0.2, 0.4, 0.6], eps=0.05, best=3)
        config = rb.AlgoConfig(alpha=0.2, delta=0.1, family=FAMILY, eps0=0.05)
        params = config.estimation_params(OBL)
        per_arm = rb.sample_size_median(0.1, 0.025, params)
        for seed in range(3):
            result = rb.run_simple(instance, config, np.random.default_rng(seed)).result
            assert result.pulls_per_arm == (per_arm,) * 4
            assert result.total_pulls == 4 * per_arm

    def test_requires_positive_alpha(self):
        instance = clean_instance([0.5])
        config = rb.AlgoConfig(alpha=0.0, delta=0.1, family=FAMILY, eps0=0.0)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.run_simple(instance, config, np.random.default_rng(0))

    def test_returns_per_arm_stats(self):
        instance = tail_instance([0.0, 0.5], eps=0.05, best=1)
        config = rb.AlgoConfig(alpha=0.2, delta=0.1, family=FAMILY, eps0=0.05)
        outcome = rb.run_simple(instance, config, np.random.default_rng(1))
        assert len(outcome.medians) == 2
        assert len(outcome.mads) == 2
        assert outcome.result.chosen_arm == int(np.argmax(outcome.medians))

    def test_picks_best_arm_whp_quick(self):
        instance = tail_instance([0.0, 0.3, 0.6], eps=0.1, best=2)
        config = rb.AlgoConfig(alpha=0.1, delta=0.1, family=FAMILY, eps0=0.1)
        rng = np.random.default_rng(2)
        wins = sum(rb.run_simple(instance, config, rng).result.chosen_arm == 2 for _ in range(50))
        assert wins >= 45


class TestEliminationSchedule:
    def test_round_confidence_schedule(self):
        assert rb.elimination_round_delta(1, 2, 0.1) == pytest.approx(
            6 * 0.1 / (math.pi**2 * 2), rel=1e-12
        )
        values = [rb.elimination_round_delta(r, 3, 0.2) for r in range(1, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_threshold_sequence_decreasing(self):
        scale2 = 2.0 * (FAMILY.slope_bound * FAMILY.mad_bound) ** 2

        def radius(r):
            return math.sqrt(scale2 * math.log(3 / rb.elimination_round_delta(r, 2, 0.1)) / r)

        values = [2 * radius(r) for r in range(1, 200)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestContaminatedElimination:
    def test_warmup_count(self):
        params = rb.EstimationParams(eps0=0.1, family=FAMILY, model=OBL)
        assert rb.warmup_pulls(2, 0.1, params) == 78

    @pytest.mark.parametrize("t_bar", [0.0264, 1e-200], ids=["past-cap", "overflow"])
    def test_warmup_past_the_cap_is_infeasible(self, t_bar):
        """A quantile margin of about 8.4e-5 asks for 1.3e9 warm-up pulls per
        arm, and one of 1e-200 for more than a float holds: both infeasible."""
        family = rb.FamilyParams(t_bar=t_bar, slope_bound=5.43, mad_bound=0.35, mad_ratio=2.0)
        eps0 = 0.05 if t_bar > 0.02 else 0.0
        params = rb.EstimationParams(eps0=eps0, family=family, model=OBL)
        with pytest.raises(rb.InfeasibleRegimeError, match="more samples per arm than the 134217728"):
            rb.warmup_pulls(2, 0.1, params)

    def test_single_arm_warmup_only(self):
        instance = tail_instance([0.0], eps=0.1, best=0)
        config = rb.AlgoConfig(alpha=0.1, delta=0.1, family=FAMILY, eps0=0.1)
        result = rb.run_contaminated_successive_elimination(
            instance, config, np.random.default_rng(6)
        )
        params = config.estimation_params(OBL)
        assert result.chosen_arm == 0
        assert result.rounds == 0
        assert result.pulls_per_arm == (rb.warmup_pulls(1, 0.1, params),)

    def test_clean_separated_arms_always_resolved(self):
        instance = rb.BanditInstance(
            [
                rb.ContaminatedArm(
                    rb.Uniform(m, m + 0.01), rb.FixedContamination(rb.Dirac(0.0)), 0.0, OBL
                )
                for m in (0.0, 1.0, 2.0)
            ]
        )
        config = rb.AlgoConfig(alpha=0.0, delta=0.1, family=FAMILY, eps0=0.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            result = rb.run_contaminated_successive_elimination(instance, config, rng)
            assert result.chosen_arm == 2
            assert result.terminated_by == "single-survivor"

    def test_survivor_set_monotone_and_best_never_dropped(self):
        instance = tail_instance([0.0, 0.25, 0.5], eps=0.05, best=2)
        config = rb.AlgoConfig(alpha=0.0, delta=0.1, family=FAMILY, eps0=0.05)
        result = rb.run_contaminated_successive_elimination(
            instance, config, np.random.default_rng(8)
        )
        eliminated = [arm for _, arms in result.elimination_trace for arm in arms]
        assert len(eliminated) == len(set(eliminated)) == 2
        assert result.chosen_arm not in eliminated

    def test_round_cap_on_identical_arms(self):
        instance = tail_instance([0.0, 0.0], eps=0.05, best=0)
        config = rb.AlgoConfig(alpha=0.0, delta=0.1, family=FAMILY, eps0=0.05, max_rounds=40)
        result = rb.run_contaminated_successive_elimination(
            instance, config, np.random.default_rng(9)
        )
        assert result.terminated_by == "round-cap"
        assert result.rounds == 40

    def test_early_stop_bounds_rounds(self):
        instance = tail_instance([0.0, 0.05], eps=0.05, best=1)
        config = rb.AlgoConfig(
            alpha=0.5, delta=0.1, family=FAMILY, eps0=0.05, early_stop=True
        )
        result = rb.run_contaminated_successive_elimination(
            instance, config, np.random.default_rng(10)
        )
        assert result.terminated_by in ("early-stop", "single-survivor")
        # the stop radius alpha/2 halts the race once 2 * radius <= alpha / 2
        scale2 = 2.0 * (FAMILY.slope_bound * FAMILY.mad_bound) ** 2

        def diameter(r):
            return 2 * math.sqrt(
                scale2 * math.log(3 / rb.elimination_round_delta(r, 2, 0.1)) / r
            )

        r = result.rounds + 1
        assert diameter(r) <= 0.25 or result.terminated_by == "single-survivor"

    def test_infeasible_eps_rejected(self):
        instance = tail_instance([0.0, 0.4], eps=0.05, best=1)
        config = rb.AlgoConfig(alpha=0.0, delta=0.1, family=FAMILY, eps0=0.45)
        with pytest.raises(rb.InfeasibleRegimeError):
            rb.run_contaminated_successive_elimination(instance, config, np.random.default_rng(12))


class TestRunningMedian:
    def test_matches_empirical_median_incrementally(self):
        rng = np.random.default_rng(13)
        xs = rng.normal(0, 3, 500)
        tracker = rb.RunningMedian()
        for i, x in enumerate(xs, start=1):
            tracker.push(x)
            assert tracker.median == rb.empirical_median(xs[:i])
        assert tracker.count == 500

    def test_empty_median_rejected(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.RunningMedian().median


# Half-widths (_HALF_WIDTH) for the store tests: small enough that the chunks
# below trim and rebuild the window.
WINDOW_SIZES = [1, 2, 4, 8]


def store_chunk(data, store, half):
    """One chunk for ``store``: continuous values, atoms of a Mixture of Diracs,
    the window's own ends, or values all beyond one end, some longer than the
    half-width."""
    size = data.draw(st.integers(1, 3 * half + 4))
    kind = data.draw(st.sampled_from(["floats", "atoms", "ends", "high", "low"]))
    if kind == "floats":
        values = data.draw(st.lists(st.floats(-4, 4), min_size=size, max_size=size))
    elif kind == "atoms":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        return QUANTILE_BASES[1].sample(size, rng)
    elif kind == "ends":
        ends = [store.window[0], store.window[-1], 1.0]
        values = data.draw(st.lists(st.sampled_from(ends), min_size=size, max_size=size))
    else:
        values = data.draw(st.lists(st.floats(5, 9), min_size=size, max_size=size))
        values = [-v for v in values] if kind == "low" else values
    return np.array(values, dtype=float)


def assert_store_holds(store, pulls):
    """``store`` holds ``pulls``: the window is their sorted ranks from
    ``base`` on and covers the middle pair, and ``pulls`` holds them all.
    Its ranks are Python ints, not numpy scalars."""
    ordered = np.sort(pulls)
    n, w = ordered.size, store.window
    assert type(store.base) is int and type(store.count) is int
    assert store.count == n
    assert store.base <= (n - 1) // 2 and n // 2 < store.base + w.size
    assert np.array_equal(w, ordered[store.base : store.base + w.size])
    assert np.array_equal(np.sort(np.concatenate(store.pulls)), ordered)
    assert store.median() == rb.empirical_median(pulls)


class TestMedianWindow:
    """The racing kernel's order-statistic store against ``np.sort`` of
    every value fed to it."""

    @settings(deadline=None, max_examples=150)
    @given(st.data(), st.sampled_from(WINDOW_SIZES))
    def test_matches_sorted_pulls(self, data, half):
        with mock.patch.object(bandit, "_HALF_WIDTH", half):
            pulls = data.draw(st.lists(st.floats(-4, 4), min_size=1, max_size=12))
            pulls = np.array(pulls, dtype=float)
            store = bandit._MedianWindow(pulls)
            assert_store_holds(store, pulls)
            for _ in range(data.draw(st.integers(1, 10))):
                chunk = store_chunk(data, store, half)
                store.add(chunk)
                pulls = np.concatenate([pulls, chunk])
                assert_store_holds(store, pulls)
                if pulls.size <= 2 * half + 2:
                    assert store.base == 0 and store.window.size == pulls.size
                else:
                    assert store.window.size <= 2 * half + 2

    def test_stays_whole_then_trims_then_rebuilds(self):
        rebuild = bandit._MedianWindow._rebuild
        with (
            mock.patch.object(bandit, "_HALF_WIDTH", 4),
            mock.patch.object(
                bandit._MedianWindow, "_rebuild", autospec=True, side_effect=rebuild
            ) as rebuilds,
        ):
            rng = np.random.default_rng(15)
            pulls = rng.random(6)
            store = bandit._MedianWindow(pulls)
            # whole up to 2 * 4 + 2 values, then trimmed to 4 ranks on each side
            for chunk, base, size in ((rng.random(4), 0, 10), (rng.random(8), 4, 10)):
                store.add(chunk)
                pulls = np.concatenate([pulls, chunk])
                assert_store_holds(store, pulls)
                assert (store.base, store.window.size) == (base, size)
            assert rebuilds.call_count == 0
            # every new value lies above the window: the middle pair leaves it
            chunk = 2.0 + rng.random(40)
            store.add(chunk)
            pulls = np.concatenate([pulls, chunk])
            assert rebuilds.call_count == 1
            assert_store_holds(store, pulls)
            assert (store.base, store.window.size) == (24, 10)


class TestBracket:
    """The envelope scan's bounds on a median after more pulls, against the
    exact middle pair of the old and new pulls together."""

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_holds_the_middle_pair_and_is_never_wider(self, data):
        """Old pulls with ties; new pulls on the atoms, on the bracket's end
        values and beyond them; held pulls with NaN unknowns, ending before,
        at or after the last pull count."""
        atoms = [0.0, 0.5, 1.0, 1.5]
        values = st.one_of(st.sampled_from(atoms), st.floats(-1.0, 2.0))
        old = np.sort(data.draw(st.lists(values, min_size=2, max_size=40).map(np.array)))
        c = old.size
        m = np.array(sorted(data.draw(st.sets(st.integers(1, c - 1), min_size=1))))
        lo, hi = (c - 1 - m) // 2, (c + m) // 2
        ends = [old[lo[-1]], old[hi[-1]], -9.0, 9.0, *atoms]
        size = int(m[-1]) + 3
        pull = st.one_of(st.sampled_from(ends), values)
        new = np.array(data.draw(st.lists(pull, min_size=size, max_size=size)))
        held = new[: data.draw(st.integers(0, size))].copy()
        unknown = data.draw(st.lists(st.booleans(), min_size=held.size, max_size=held.size))
        held[np.array(unknown, dtype=bool)] = np.nan
        low, high = bandit._bracket(old, lo, hi, m, held)
        for j, n in enumerate(m.tolist()):
            union = np.sort(np.concatenate([old, new[:n]]))
            assert low[j] <= union[(c + n - 1) // 2] and union[(c + n) // 2] <= high[j]
            assert old[lo[j]] <= low[j] and high[j] <= old[hi[j]]

    def test_nothing_held_gives_the_worst_case_bracket(self):
        old = np.sort(np.random.default_rng(4).random(50))
        m = np.arange(1, 50)
        lo, hi = (49 - m) // 2, (50 + m) // 2
        low, high = bandit._bracket(old, lo, hi, m, np.full(7, np.nan))
        assert np.array_equal(low, old[lo]) and np.array_equal(high, old[hi])
        low, high = bandit._bracket(old, lo, hi, m, np.empty(0))
        assert np.array_equal(low, old[lo]) and np.array_equal(high, old[hi])

    @pytest.mark.parametrize("reach", ["empty", "shorter", "equal", "longer"])
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_equals_the_scalar_counts(self, reach, data):
        """Bit for bit the bracket the counts give: of the first m held pulls
        (NaN unknowns, ties at both pivots), those strictly above ``v[hi[-1]]``
        and strictly below ``v[lo[-1]]``, counted one by one and by the
        positions of the matching pulls."""
        atoms = [0.0, 0.5, 1.0]
        values = st.sampled_from(atoms) | st.floats(-1.0, 2.0)
        old = np.sort(data.draw(st.lists(values, min_size=2, max_size=60).map(np.array)))
        c = old.size
        m = np.array(sorted(data.draw(st.sets(st.integers(1, c - 1), min_size=1))))
        lo, hi = (c - 1 - m) // 2, (c + m) // 2
        top, bottom, last = old[hi[-1]], old[lo[-1]], int(m[-1])
        assume(reach != "shorter" or last > 1)
        size = {
            "empty": lambda: 0,
            "shorter": lambda: data.draw(st.integers(1, last - 1)),
            "equal": lambda: last,
            "longer": lambda: last + data.draw(st.integers(1, 5)),
        }[reach]()
        pull = st.sampled_from([top, bottom, np.nan]) | values
        ahead = np.array(data.draw(st.lists(pull, min_size=size, max_size=size)), dtype=float)
        low, high = bandit._bracket(old, lo, hi, m, ahead)
        prefixes = [ahead[:n].tolist() for n in m.tolist()]
        above = np.array([sum(x > top for x in p) for p in prefixes], dtype=int)
        below = np.array([sum(x < bottom for x in p) for p in prefixes], dtype=int)
        assert low.tobytes() == old[lo + above].tobytes()
        assert high.tobytes() == old[hi - below].tobytes()
        # the same counts by the positions of the matching pulls
        held = ahead[: m[-1]]
        above = np.flatnonzero(held > top).searchsorted(m)
        below = np.flatnonzero(held < bottom).searchsorted(m)
        assert low.tobytes() == old[lo + above].tobytes()
        assert high.tobytes() == old[hi - below].tobytes()

    @pytest.mark.parametrize("q", [0.1, 0.9])
    def test_race_brackets_hold_the_true_middle_pair(self, q):
        """Prescient arms raced check by check, in blocks of 97 draws, so
        that scans read held pulls next to unresolved ones: every bracket a
        scan takes holds the middle pair of the survivor's pulls after each
        of its pull counts, read from a twin stream of the same arm."""
        shift, prescient = rb.EmpiricalQuantileShift(q), rb.AdversaryModel.PRESCIENT
        arms = [
            rb.ContaminatedArm(rb.Uniform(s, s + 1.0), shift, 0.3, prescient) for s in (0.0, 0.1, 0.3)
        ]
        config = rb.AlgoConfig(alpha=0.05, delta=0.1, family=FAMILY, eps0=0.3, early_stop=True)
        calls, bracket = [], bandit._bracket

        def spy(v, lo, hi, m, ahead):
            calls.append((ahead, m, *bracket(v, lo, hi, m, ahead)))
            return calls[-1][2:]

        bad, scanned = [], 0
        for seed in range(3):
            with mock.patch.object(bandit, "_BLOCK", 97):
                race = bandit._Race(rb.BanditInstance(arms), config, np.random.default_rng(seed))
                spawned = np.random.default_rng(seed).spawn(len(arms))
                twins = [bandit._ArmPulls(a, g, race.streams[0].ends) for a, g in zip(arms, spawned)]
                count = race.stores[0].count
                pulls = [twin.rounds(count) for twin in twins]
                with mock.patch.object(bandit, "_bracket", spy):
                    while True:
                        survivor = {id(race.streams[i].held): i for i in race.survivors}
                        count = race.stores[race.survivors[0]].count
                        calls.clear()
                        check = race.next_check()
                        for ahead, m, low, high in calls:
                            i = survivor[id(ahead)]
                            short = count + int(m[-1]) - pulls[i].size
                            if short > 0:  # always up to a round's end
                                pulls[i] = np.concatenate((pulls[i], twins[i].rounds(short)))
                            pairs = middle_pairs(pulls[i][:count], pulls[i][count:], m.tolist())
                            for n, (a, b), lower, upper in zip(m.tolist(), pairs, low, high):
                                if not lower <= a <= b <= upper:
                                    bad.append((seed, race.r, i, n))
                            scanned += m.size
                        if check is None:
                            break
                        race.advance(check)
        assert scanned > 10_000
        assert bad == []


def middle_pairs(old, new, counts):
    """The middle pair of ``old`` and the first m values of ``new``, for each
    increasing m in ``counts``: two heaps seeded with the sorted ``old``."""
    old = np.sort(old)
    half = (old.size + 1) // 2
    low, high = (-old[:half][::-1]).tolist(), old[half:].tolist()
    pairs, taken = [], 0
    for m in counts:
        for x in new[taken:m].tolist():
            if x > -low[0]:
                heapq.heappush(high, x)
            else:
                heapq.heappush(low, -x)
            if len(low) > len(high) + 1:
                heapq.heappush(high, -heapq.heappop(low))
            elif len(high) > len(low):
                heapq.heappush(low, -heapq.heappop(high))
        taken = m
        pairs.append((-low[0], -low[0] if len(low) > len(high) else high[0]))
    return pairs


class _OraclePuller:
    """The reference loop's puller on one arm's own generator, in whole blocks
    of ``bandit._BLOCK`` draws: iid arms hand out a block's values in order;
    the batch-aware prescient strategy hands out its clean values and flags,
    and contaminates each call's batch at that batch's ceil(nq)-th order
    statistic, picked with a plain partition."""

    def __init__(self, arm, rng):
        self.arm = arm
        self.rng = rng
        self.batched = isinstance(arm.strategy, rb.EmpiricalQuantileShift)
        self.y = np.empty(0)
        self.d = np.empty(0, dtype=bool)

    def pull(self, n):
        while self.y.size < n:
            if self.batched:
                batch = bandit.draw_batch(self.arm, bandit._BLOCK, self.rng, debug=True)
                y, d = batch.y, batch.d
            else:
                y = bandit.draw_batch(self.arm, bandit._BLOCK, self.rng)
                d = np.zeros(y.size, dtype=bool)
            self.y = np.concatenate([self.y, y])
            self.d = np.concatenate([self.d, d])
        y, self.y = self.y[:n], self.y[n:]
        d, self.d = self.d[:n], self.d[n:]
        if not self.batched:
            return y
        rank = min(max(math.ceil(n * self.arm.strategy.target_quantile) - 1, 0), n - 1)
        return np.where(d, np.partition(y, rank)[rank], y)


def oracle_race(instance, config, rng):
    """Round-by-round contaminated racing: every pull pushed into a
    RunningMedian, every round checked for eliminations."""
    k = instance.k
    params = config.estimation_params(instance.model)
    floor_scale = 2.0 * params.median_margin() ** -2
    warmup = rb.warmup_pulls(k, config.delta, params)
    slope, mad = config.family.slope_bound, config.family.mad_bound
    scale2 = 2.0 * (slope * mad) ** 2
    trackers = [rb.RunningMedian() for _ in range(k)]
    pullers = [_OraclePuller(arm, child) for arm, child in zip(instance.arms, rng.spawn(k))]
    pulls = [warmup] * k
    for i in range(k):
        for v in pullers[i].pull(warmup):
            trackers[i].push(v)
    if k == 1:
        return rb.BanditRunResult(0, (warmup,), 0, (), "single-survivor")
    estimates = [t.median for t in trackers]
    survivors = list(range(k))
    trace = []
    r = 0
    terminated_by = "single-survivor"
    while len(survivors) > 1:
        r += 1
        radius = math.sqrt(
            scale2 * math.log(3.0 / rb.elimination_round_delta(r, k, config.delta)) / r
        )
        if config.early_stop and 2.0 * radius <= config.alpha / 2.0:
            r -= 1
            terminated_by = "early-stop"
            break
        if r > config.max_rounds:
            r -= 1
            terminated_by = "round-cap"
            break
        n_r = 1 + math.ceil(2.0 * floor_scale * math.log((r + 1.0) / r))
        for i in survivors:
            for v in pullers[i].pull(n_r):
                trackers[i].push(v)
            pulls[i] += n_r
            estimates[i] = trackers[i].median
        best = max(estimates[i] for i in survivors)
        keep = [i for i in survivors if estimates[i] >= best - 2.0 * radius]
        dropped = tuple(i for i in survivors if i not in keep)
        if dropped:
            trace.append((r, dropped))
        survivors = keep
    chosen = max(survivors, key=lambda i: (estimates[i], -i))
    return rb.BanditRunResult(chosen, tuple(pulls), r, tuple(trace), terminated_by)


def recorded_run(race, instance, config, seed):
    """A race's result, each arm's draw sizes (``draw_batch`` and
    ``draw_clean`` calls) in call order, and the end state of the generator
    each arm drew from."""
    index = {id(arm): i for i, arm in enumerate(instance.arms)}
    calls = [[] for _ in instance.arms]
    rngs = [None] * instance.k

    def recording(fn):
        def draw(arm, n, rng, **debug):
            i = index[id(arm)]
            assert rngs[i] is None or rngs[i] is rng, "an arm drew from two generators"
            rngs[i] = rng
            calls[i].append(n)
            return fn(arm, n, rng, **debug)

        return draw

    with (
        mock.patch.object(bandit, "draw_batch", recording(bandit.draw_batch)),
        mock.patch.object(bandit, "draw_clean", recording(bandit.draw_clean)),
    ):
        result = race(instance, config, np.random.default_rng(seed))
    return result, calls, [g.bit_generator.state for g in rngs]


def assert_kernel_matches_oracle(instance, config, seed):
    kernel = recorded_run(rb.run_contaminated_successive_elimination, instance, config, seed)
    oracle = recorded_run(oracle_race, instance, config, seed)
    assert kernel[0] == oracle[0]
    assert kernel[1] == oracle[1]
    assert kernel[2] == oracle[2]


MODELS = {
    "oblivious": rb.AdversaryModel.OBLIVIOUS,
    "prescient": rb.AdversaryModel.PRESCIENT,
    "malicious": rb.AdversaryModel.MALICIOUS,
}


@st.composite
def race_cases(draw):
    """Instances of 2 to 5 arms under one adversary model, with close, tied
    and separated medians, and racing settings that reach every ending."""
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    eps = draw(st.sampled_from([0.05, 0.15] if model is not OBL else [0.0, 0.05, 0.15]))
    arms = []
    for _ in range(draw(st.integers(2, 5))):
        start = draw(st.sampled_from([0.0, 0.0, 0.4, 1.5, 3.0]))
        base = rb.Uniform(start, start + 1.0)
        kinds = ["fixed-dirac", "fixed-gaussian", "up", "down", "tail"]
        if model is not OBL:
            kinds.append("quantile")
        if model is rb.AdversaryModel.MALICIOUS:
            kinds.append("attack")
        kind = draw(st.sampled_from(kinds))
        if kind == "attack":
            arms.append(rb.malicious_median_attack(base, eps))
            continue
        strategy = {
            # an atom inside the support: many tied pulls and tied medians
            "fixed-dirac": lambda: rb.FixedContamination(rb.Dirac(start + 0.5)),
            "fixed-gaussian": lambda: rb.FixedContamination(rb.Gaussian(start, 2.0)),
            "up": rb.ShiftMedianUp,
            "down": rb.ShiftMedianDown,
            "tail": lambda: rb.UniformTailShift(draw(st.sampled_from([1, -1]))),
            "quantile": lambda: rb.EmpiricalQuantileShift(draw(st.sampled_from([0.1, 0.9]))),
        }[kind]()
        arms.append(rb.ContaminatedArm(base, strategy, eps, model))
    config = rb.AlgoConfig(
        alpha=draw(st.sampled_from([0.0, 1.0, 3.0])),
        delta=draw(st.sampled_from([0.05, 0.2])),
        family=FAMILY,
        eps0=eps,
        max_rounds=draw(st.sampled_from([2000, 2000, 2000, 60, 1])),
        early_stop=draw(st.booleans()),
    )
    return rb.BanditInstance(arms), config, draw(st.integers(0, 2**32 - 1))


class TestEnvelopeSkippingKernel:
    """The racing kernel against the round-by-round reference loop: same
    result, and for each arm the same draw_batch calls and the same state of
    its generator afterwards."""

    @settings(deadline=None, max_examples=30)
    @given(race_cases())
    def test_matches_round_by_round_oracle(self, case):
        assert_kernel_matches_oracle(*case)

    def test_lb_demo_lifted_instance(self):
        lifted = rb.oblivious_lifting([0.6, 0.4], 0.05)
        config = rb.AlgoConfig(
            alpha=0.05, delta=0.1, family=lifted.family_for(0.15), eps0=0.05
        )
        assert_kernel_matches_oracle(lifted.instance(), config, 2024)

    @settings(deadline=None, max_examples=40)
    @given(
        race_cases(),
        st.sampled_from([(1, 64), (8, 256), (64, 1000), (bandit._HALF_WIDTH, 97)]),
    )
    def test_windowed_kernel_matches_round_by_round_oracle(self, case, sizes):
        """The same with windows small enough that races trim, rebuild and
        cut scans at the windows' ends, and blocks small enough that scans
        run past the pulls an arm holds and across its blocks' ends."""
        half, block = sizes
        with (
            mock.patch.object(bandit, "_HALF_WIDTH", half),
            mock.patch.object(bandit, "_BLOCK", block),
        ):
            assert_kernel_matches_oracle(*case)

    @pytest.mark.parametrize("block", [97, 4096])
    def test_four_arm_lifted_instance(self, block):
        lifted = rb.oblivious_lifting([0.6, 0.4, 0.4, 0.4], 0.05)
        config = rb.AlgoConfig(
            alpha=0.05, delta=0.1, family=lifted.family_for(0.15), eps0=0.05
        )
        with mock.patch.object(bandit, "_BLOCK", block):
            assert_kernel_matches_oracle(lifted.instance(), config, 11)

    def test_narrow_lifted_instance(self):
        """The narrow hardness instance, whose stores trim their windows."""
        lifted = rb.oblivious_lifting([0.55, 0.45], 0.05)
        config = rb.AlgoConfig(
            alpha=0.05, delta=0.1, family=lifted.family_for(0.15), eps0=0.05
        )
        with mock.patch.object(
            bandit._MedianWindow, "add", autospec=True, side_effect=bandit._MedianWindow.add
        ) as add:
            assert_kernel_matches_oracle(lifted.instance(), config, 6)
        assert max(c.args[0].base for c in add.call_args_list) > 0

    def test_checks_fewer_rounds_than_it_races(self):
        lifted = rb.oblivious_lifting([0.6, 0.4], 0.05)
        config = rb.AlgoConfig(
            alpha=0.05, delta=0.1, family=lifted.family_for(0.15), eps0=0.05
        )
        # each check hands every survivor's new pulls to its store once; a
        # scan that assumed every new pull lay on one side of the median
        # made 232 adds here, over 18,257 rounds
        with mock.patch.object(
            bandit._MedianWindow, "add", autospec=True, side_effect=bandit._MedianWindow.add
        ) as add:
            result = rb.run_contaminated_successive_elimination(
                lifted.instance(), config, np.random.default_rng(3)
            )
        assert result.rounds > 10_000
        assert 0 < add.call_count <= 80

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_scans_little_past_the_rounds_it_races(self, seed):
        lifted = rb.oblivious_lifting([0.6, 0.4], 0.05)
        config = rb.AlgoConfig(
            alpha=0.05, delta=0.1, family=lifted.family_for(0.15), eps0=0.05
        )
        # the scan stops at a window's reach, so a wider window lets its
        # doubling spans run on: at 2,048 ranks a side they scanned 2.07 to
        # 2.14 times the arm-rounds raced here, at 1,024 1.22 to 1.32
        with mock.patch.object(
            bandit, "_bracket", autospec=True, side_effect=bandit._bracket
        ) as bracket:
            result = rb.run_contaminated_successive_elimination(
                lifted.instance(), config, np.random.default_rng(seed)
            )
        scanned = sum(len(c.args[3]) for c in bracket.call_args_list)
        assert scanned <= 1.5 * 2 * result.rounds

    def test_early_stop_wins_when_both_stops_fire_at_one_round(self):
        """Arms that tie forever race until a stop; with the round cap one
        round short of the early stop, both fire at the same round."""
        alpha, delta, k = 1.0, 0.1, 2
        scale2 = 2.0 * (FAMILY.slope_bound * FAMILY.mad_bound) ** 2

        def diameter(r):
            return 2.0 * math.sqrt(scale2 * math.log(3.0 / rb.elimination_round_delta(r, k, delta)) / r)

        early = next(r for r in range(1, 10**4) if diameter(r) <= alpha / 2.0)
        instance = rb.BanditInstance(
            rb.ContaminatedArm(rb.Dirac(0.0), rb.FixedContamination(rb.Dirac(0.0)), 0.05, OBL)
            for _ in range(k)
        )
        config = rb.AlgoConfig(
            alpha=alpha, delta=delta, family=FAMILY, eps0=0.05, max_rounds=early - 1, early_stop=True
        )
        assert_kernel_matches_oracle(instance, config, 5)
        result = rb.run_contaminated_successive_elimination(instance, config, np.random.default_rng(5))
        assert result.terminated_by == "early-stop"
        assert result.rounds == early - 1


class TestRoundSchedule:
    """Races on the same parameters share one schedule, extended by whichever
    race needs more rounds."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("stop_radius, max_rounds", [(None, 40_000), (0.25, 10**6)])
    def test_schedule_is_the_scalar_rule_bitwise(self, stop_radius, max_rounds, k):
        """On the lb demo's parameters, with its two arms and with four, every
        round's pull count and width equal the round-by-round loop's scalar
        expressions bit for bit, and ``stop`` is the first round at which the
        loop's early stop or round cap fires. No round past ``max_rounds + 1``,
        the last a race reads, is computed."""
        lifted = rb.oblivious_lifting([0.6, 0.4], 0.05)
        family = lifted.family_for(0.15)
        params = rb.AlgoConfig(alpha=0.05, delta=0.1, family=family, eps0=0.05).estimation_params(OBL)
        floor_scale = 2.0 * params.median_margin() ** -2
        slope, mad = family.slope_bound, family.mad_bound
        s2 = 2.0 * (slope * mad) ** 2
        delta, last = 0.1, 1 << 16
        schedule = bandit._RoundSchedule(floor_scale, s2, k, delta, stop_radius, max_rounds, 0)
        cum, width = (a.tolist() for a in schedule.cover(last))
        assert (cum[0], width[0]) == (0, 0.0)
        last = min(last, max_rounds + 1)
        assert len(cum) == last + 1
        bad_pulls, bad_width, stops = [], [], []
        for r in range(1, last + 1):
            if cum[r] - cum[r - 1] != 1 + math.ceil(2.0 * floor_scale * math.log((r + 1.0) / r)):
                bad_pulls.append(r)
            w = 2.0 * math.sqrt(s2 * math.log(3.0 / rb.elimination_round_delta(r, k, delta)) / r)
            if width[r] != w:
                bad_width.append(r)
            if r > max_rounds or (stop_radius is not None and w <= stop_radius):
                stops.append(r)
        assert (bad_pulls, bad_width) == ([], [])
        assert 1 < schedule.stop == stops[0] <= last
        assert schedule.stopped_by == ("round-cap" if stop_radius is None else "early-stop")

    @pytest.mark.parametrize("max_rounds", [10**6, 100])
    @pytest.mark.parametrize("n", [0, 299, 300, 301, 1_000, 40_000, 123_456])
    def test_ends_reach_pull_n_by_the_smallest_doubling(self, n, max_rounds):
        """A fresh schedule asked for the round ends after pull ``start`` and
        up to pull n covers the fewest rounds, by doubling, whose ends reach n
        or pass the round cap, but none past round max_rounds + 1. It returns
        the ends of a longer schedule in (start, n], and the ends of
        consecutive blocks join into every end up to n."""
        args, warmup = (812.5, 7.2, 2, 0.1, None, max_rounds), 300
        every = warmup + bandit._RoundSchedule(*args, warmup).cover(1 << 16)[0]
        size = 1
        while size <= max_rounds and every[size - 1] < n:
            size *= 2
        size = min(size, max_rounds + 2)
        schedule = bandit._RoundSchedule(*args, warmup)
        start = n // 3
        ends = schedule.ends(start, n)
        assert schedule.cover(0)[0].size == size
        assert every[size - 1] >= n or size > max_rounds
        every = every[:size]
        assert np.array_equal(ends, every[(every > start) & (every <= n)])
        joined = np.concatenate((schedule.ends(0, start), ends))
        assert np.array_equal(joined, every[every <= n])

    def test_race_computes_no_width_past_its_cap(self):
        """At delta = 1e-305 the radius's log term overflows between rounds 6
        and 34, the first scan's reach. Arms that tie forever, capped at 5
        rounds, race to the cap without computing a width past round 6, so
        numpy warns of no overflow; at a cap of 63 rounds the race is
        rejected at delta."""
        instance = rb.BanditInstance(
            rb.ContaminatedArm(rb.Dirac(0.0), rb.FixedContamination(rb.Dirac(0.0)), 0.05, OBL)
            for _ in range(2)
        )
        config = rb.AlgoConfig(alpha=0.0, delta=1e-305, family=FAMILY, eps0=0.05, max_rounds=5)
        bandit._round_schedule.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = rb.run_contaminated_successive_elimination(instance, config, np.random.default_rng(0))
        assert (result.terminated_by, result.rounds) == ("round-cap", 5)
        with pytest.raises(rb.ParameterOutOfRangeError, match="too small") as err:
            bandit.race_schedule(2, dataclasses.replace(config, max_rounds=63), OBL)
        assert err.value.key == "delta"

    @settings(deadline=None, max_examples=20)
    @given(race_cases())
    def test_race_after_a_longer_race_equals_a_fresh_race(self, case):
        instance, config, seed = case

        def race(inst):
            return rb.run_contaminated_successive_elimination(inst, config, np.random.default_rng(seed))

        bandit._round_schedule.cache_clear()
        fresh = race(instance)
        bandit._round_schedule.cache_clear()
        made = []
        share = bandit._round_schedule

        def recorded(*key):
            made.append(share(*key))
            return made[-1]

        # identical arms that always pull 0 tie at every check, so their race
        # runs until the early stop or the round cap
        flat = rb.ContaminatedArm(
            rb.Dirac(0.0), rb.FixedContamination(rb.Dirac(0.0)), instance.eps, instance.model
        )
        with mock.patch.object(bandit, "_round_schedule", recorded):
            longer = race(rb.BanditInstance([flat] * instance.k))
            again = race(instance)
        assert longer.terminated_by != "single-survivor"
        assert longer.rounds >= fresh.rounds
        assert made[0] is made[1]
        assert made[0].cover(0)[0].size > longer.rounds
        assert again == fresh

    @mock.patch.object(bandit, "_BLOCK", 97)
    def test_a_block_reads_only_the_round_ends_inside_it(self):
        """A race of tied arms covers the shared schedule to round
        ``max_rounds + 1``. A prescient race on the same parameters then
        gives a fresh race's result, and each block of 97 draws that one of
        its arms takes reads no more round ends than the rounds ending in it,
        plus one: the lookup does not grow with the longest race run before."""
        prescient = rb.AdversaryModel.PRESCIENT
        shifts = ((0.0, 0.9), (0.5, 0.1), (1.0, 0.1))
        arms = [quantile_arm(rb.Uniform(s, s + 1.0), q) for s, q in shifts]
        flat = rb.ContaminatedArm(rb.Dirac(0.0), rb.FixedContamination(rb.Dirac(0.0)), 0.3, prescient)
        config = rb.AlgoConfig(alpha=0.0, delta=0.1, family=FAMILY, eps0=0.3, max_rounds=3000)

        def race(instance):
            return rb.run_contaminated_successive_elimination(instance, config, np.random.default_rng(7))

        bandit._round_schedule.cache_clear()
        fresh = race(rb.BanditInstance(arms))
        bandit._round_schedule.cache_clear()
        capped = race(rb.BanditInstance([flat] * len(arms)))
        assert (capped.terminated_by, capped.rounds) == ("round-cap", config.max_rounds)
        reads = []

        class Counted(bandit._ArmPulls):
            __slots__ = ()

            def __init__(self, arm, rng, ends):
                def counted(*args):
                    out = ends(*args)
                    reads.append((self.start, args[-1], out.size))
                    return out

                super().__init__(arm, rng, counted)

        with mock.patch.object(bandit, "_ArmPulls", Counted):
            again = race(rb.BanditInstance(arms))
        assert again == fresh
        assert again.terminated_by == "single-survivor"
        schedule = bandit._Race(rb.BanditInstance(arms), config, np.random.default_rng(0)).schedule
        warmup = rb.warmup_pulls(len(arms), config.delta, config.estimation_params(prescient))
        every = warmup + schedule.cover(0)[0]
        assert every.size == config.max_rounds + 2
        assert len(reads) > 2 * len(arms)
        inside = [int(((every > start) & (every <= n)).sum()) for start, n, _ in reads]
        assert [read for read, count in zip(reads, inside) if read[2] > count + 1] == []


def iid_arms():
    """Arms whose pulls are iid, one per kind of contamination draw."""
    base = rb.Uniform(0.0, 1.0)
    mal = rb.AdversaryModel.MALICIOUS
    return [
        rb.ContaminatedArm(base, rb.FixedContamination(rb.Gaussian(0.0, 2.0)), 0.1, OBL),
        rb.ContaminatedArm(base, rb.UniformTailShift(-1), 0.1, OBL),
        rb.ContaminatedArm(base, rb.ShiftMedianUp(), 0.1, mal),
        rb.malicious_median_attack(base, 0.1),
    ]


# Clean laws for the prescient quantile shift: continuous, and ties from {0, 1, 2, 3}.
QUANTILE_BASES = [
    rb.Uniform(0.0, 1.0),
    rb.Mixture([0.25] * 4, [rb.Dirac(float(v)) for v in range(4)]),
]
QUANTILE_LEVELS = st.one_of(
    st.sampled_from([0.1, 0.9]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
# Round sizes as a race makes them (many small rounds), with single pulls and
# rounds that cross a block.
ROUND_SIZES = st.lists(
    st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 5000)), min_size=1, max_size=12
)


def quantile_arm(base, q):
    return rb.ContaminatedArm(base, rb.EmpiricalQuantileShift(q), 0.3, rb.AdversaryModel.PRESCIENT)


def block_ends(sizes):
    """An ``ends(start, n)`` for rounds of ``sizes`` pulls: those ending in (start, n]."""
    ends = np.cumsum(sizes)
    return lambda start, n: ends[(ends > start) & (ends <= n)]


def drawn_by(arm, draws):
    """A draw_batch stand-in that appends each call's n and values, for
    ``arm`` only, to ``draws``."""

    def draw(a, n, rng, debug=False):
        x = rb.draw_batch(a, n, rng, debug)
        if a is arm:
            draws.append((n, x))
        return x

    return draw


class TestArmPulls:
    """An arm's pulls are a function of its generator and their index only."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from(iid_arms()),
        st.lists(st.lists(st.integers(1, 3000), min_size=1, max_size=4), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    def test_iid_pulls_do_not_depend_on_the_rounds(self, arm, partition, seed):
        """Any split of N pulls into calls and rounds gives the same values
        and the same draw_batch calls as one round of N."""

        def pulled(calls):
            draws = []
            stream = bandit._ArmPulls(arm, np.random.default_rng(seed), block_ends(sum(calls, [])))
            with mock.patch.object(bandit, "draw_batch", drawn_by(arm, draws)):
                values = np.concatenate([stream.rounds(sum(sizes)) for sizes in calls])
            return values, [n for n, _ in draws]

        total = sum(map(sum, partition))
        split, whole = pulled(partition), pulled([[total]])
        assert split[0].size == total
        assert np.array_equal(split[0], whole[0])
        assert split[1] == whole[1]

    def test_warmup_pulls_do_not_depend_on_rivals(self):
        """Arm 0's warm-up pulls are the same in a 2-arm and a 5-arm race."""
        config = rb.AlgoConfig(alpha=0.0, delta=0.1, family=FAMILY, eps0=0.1)

        def first_pulls(k):
            instance = clean_instance([3.0] + [0.0] * (k - 1), eps=0.1)
            draws = []
            with mock.patch.object(bandit, "draw_batch", drawn_by(instance.arms[0], draws)):
                rb.run_contaminated_successive_elimination(
                    instance, config, np.random.default_rng(14)
                )
            return np.concatenate([x for _, x in draws])

        two, five = first_pulls(2), first_pulls(5)
        warmup = rb.warmup_pulls(5, config.delta, config.estimation_params(OBL))
        assert warmup > rb.warmup_pulls(2, config.delta, config.estimation_params(OBL))
        assert np.array_equal(two[:warmup], five[:warmup])

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(QUANTILE_BASES),
        QUANTILE_LEVELS,
        ROUND_SIZES,
        st.lists(st.integers(0, 12), max_size=4),
        st.integers(0, 2**32 - 1),
    )
    def test_quantile_shift_pulls_do_not_depend_on_the_calls(self, base, q, sizes, cuts, seed):
        """Any split of a prescient arm's rounds into consecutive ``rounds``
        calls gives the values and generator end state of one call."""
        arm = quantile_arm(base, q)
        bounds = [0, *sorted(c for c in cuts if c < len(sizes)), len(sizes)]

        def pulled(calls):
            rng = np.random.default_rng(seed)
            stream = bandit._ArmPulls(arm, rng, block_ends(sizes))
            return np.concatenate([stream.rounds(sum(c)) for c in calls if c]), rng.bit_generator.state

        split = pulled([sizes[a:b] for a, b in zip(bounds, bounds[1:])])
        whole = pulled([sizes])
        assert split[0].tobytes() == whole[0].tobytes()
        assert split[1] == whole[1]

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(QUANTILE_BASES), QUANTILE_LEVELS, ROUND_SIZES, st.integers(0, 2**32 - 1))
    def test_each_round_is_contaminated_at_its_own_quantile(self, base, q, sizes, seed):
        """A prescient arm's contaminated pulls in a round sit at the ceil(nq)-th
        order statistic of that round's clean values, numpy's inverted_cdf
        quantile; the clean values and flags are those of whole debug batches
        of ``_BLOCK`` draws on the same generator."""
        arm = quantile_arm(base, q)
        stream = bandit._ArmPulls(arm, np.random.default_rng(seed), block_ends(sizes))
        pulls = stream.rounds(sum(sizes))
        twin = np.random.default_rng(seed)
        batches = [
            rb.draw_batch(arm, bandit._BLOCK, twin, debug=True)
            for _ in range(-(-sum(sizes) // bandit._BLOCK))
        ]
        y = np.concatenate([b.y for b in batches])
        d = np.concatenate([b.d for b in batches])
        start = 0
        for n in sizes:
            clean, flags = y[start : start + n], d[start : start + n]
            want = np.where(flags, np.quantile(clean, q, method="inverted_cdf"), clean)
            assert pulls[start : start + n].tobytes() == want.tobytes()
            start += n
        assert pulls.size == start

    @pytest.mark.parametrize("q", [0.1, 0.9])
    def test_ahead_is_the_held_block_unknown_only_in_the_partial_round(self, q):
        """The held pulls the envelope scan reads ahead, and the rounds handed
        out from them are views of them. A prescient arm's contaminated pulls
        in them are resolved wherever their round is held whole and NaN exactly
        at the flags of the trailing partial round. Blocks of 97 draws make
        rounds straddle blocks."""
        arm = quantile_arm(QUANTILE_BASES[0], q)
        sizes = [150] + [7] * 30 + [3] * 40 + [2] * 50
        ends = np.cumsum(sizes)
        blocks = -(-int(ends[-1]) // 97)
        twin = np.random.default_rng(5)
        draws = [bandit.draw_clean(arm, 97, twin) for _ in range(blocks)]
        clean, flags = (np.concatenate(parts) for parts in zip(*draws))
        rounds = np.repeat(np.arange(len(sizes) + 1), [*sizes, 97 * blocks - ends[-1]])
        picks = [np.quantile(clean[rounds == j], q, method="inverted_cdf") for j in range(len(sizes))]
        x = np.where(flags, np.append(picks, np.nan)[rounds], clean)
        with mock.patch.object(bandit, "_BLOCK", 97):
            stream = bandit._ArmPulls(arm, np.random.default_rng(5), block_ends(sizes))
            handed = 0
            for n in sizes:
                before = stream.held
                pulls = stream.rounds(n)
                assert pulls.tobytes() == x[handed : handed + n].tobytes()
                assert np.shares_memory(pulls, before) == (n <= before.size)
                handed += n
                ahead = stream.held
                drawn = 97 * -(-handed // 97)
                whole = ends[ends <= drawn][-1]
                unknown = flags[handed:drawn] & (np.arange(handed, drawn) >= whole)
                assert ahead.size == drawn - handed
                assert np.array_equal(np.isnan(ahead), unknown)
                assert ahead[~unknown].tobytes() == x[handed:drawn][~unknown].tobytes()

    def test_draw_batch_quantile_shift_is_pinned(self):
        """``draw_batch`` on prescient quantile-shift arms keeps its values and
        the generator state it leaves, as recorded before the racing kernel
        drew these arms in blocks."""
        arms = [quantile_arm(base, q) for base, q in zip(QUANTILE_BASES, (0.9, 0.1))]
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for n in (1, 2, 3, 7, 64, 4096):
            for arm in arms:
                digest.update(rb.draw_batch(arm, n, rng).tobytes())
        assert digest.hexdigest() == (
            "ec879328daa638a219db61e2b0aaea14fc100fd187a5dbd1ac9837412709409d"
        )
        assert rng.bit_generator.state["state"] == {
            "state": 159736319684887560578269457462038855050,
            "inc": 263843294879837360010514471918415607657,
        }
