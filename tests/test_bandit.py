import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
        result = rb.run_simple(instance, config, np.random.default_rng(0))
        assert result.chosen_arm == 0
        assert result.rounds == 1

    def test_deterministic_pull_count(self):
        instance = tail_instance([0.0, 0.2, 0.4, 0.6], eps=0.05, best=3)
        config = rb.AlgoConfig(alpha=0.2, delta=0.1, family=FAMILY, eps0=0.05)
        params = config.estimation_params(OBL)
        per_arm = rb.sample_size_median(0.1, 0.025, params)
        for seed in range(3):
            result = rb.run_simple(instance, config, np.random.default_rng(seed))
            assert result.pulls_per_arm == (per_arm,) * 4
            assert result.total_pulls == 4 * per_arm

    def test_requires_positive_alpha(self):
        instance = clean_instance([0.5])
        config = rb.AlgoConfig(alpha=0.0, delta=0.1, family=FAMILY, eps0=0.0)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.run_simple(instance, config, np.random.default_rng(0))

    def test_estimates_variant_returns_per_arm_stats(self):
        instance = tail_instance([0.0, 0.5], eps=0.05, best=1)
        config = rb.AlgoConfig(alpha=0.2, delta=0.1, family=FAMILY, eps0=0.05)
        outcome = rb.simple_exploration_estimates(instance, config, np.random.default_rng(1))
        assert len(outcome.medians) == 2
        assert len(outcome.mads) == 2
        assert outcome.result.chosen_arm == int(np.argmax(outcome.medians))

    def test_picks_best_arm_whp_quick(self):
        instance = tail_instance([0.0, 0.3, 0.6], eps=0.1, best=2)
        config = rb.AlgoConfig(alpha=0.1, delta=0.1, family=FAMILY, eps0=0.1)
        rng = np.random.default_rng(2)
        wins = sum(rb.run_simple(instance, config, rng).chosen_arm == 2 for _ in range(50))
        assert wins >= 45


class SBerOracle:
    """Running-median estimator over smoothed-Bernoulli streams."""

    def __init__(self, ps):
        self.dists = [rb.SmoothedBernoulli(p) for p in ps]
        self.trackers = [rb.RunningMedian() for _ in ps]

    def __call__(self, arm, rng):
        self.trackers[arm].push(float(self.dists[arm].sample(1, rng)[0]))
        return self.trackers[arm].median


class TestGenericElimination:
    def test_single_arm_immediate(self):
        result = rb.run_successive_elimination(
            SBerOracle([0.5]), 1, 0.1, 2.0, np.random.default_rng(0)
        )
        assert result.chosen_arm == 0
        assert result.rounds == 0
        assert result.total_pulls == 0

    def test_round_confidence_schedule(self):
        assert rb.elimination_round_delta(1, 2, 0.1) == pytest.approx(
            6 * 0.1 / (math.pi**2 * 2), rel=1e-12
        )
        values = [rb.elimination_round_delta(r, 3, 0.2) for r in range(1, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_threshold_sequence_decreasing(self):
        def radius(r):
            return math.sqrt(2.0 * math.log(1 / rb.elimination_round_delta(r, 2, 0.1)) / r)

        values = [2 * radius(r) for r in range(1, 200)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_identifies_best_arm(self):
        rng = np.random.default_rng(3)
        wins = 0
        runs = 200
        for _ in range(runs):
            result = rb.run_successive_elimination(
                SBerOracle([0.4, 0.6]), 2, 0.1, 2.0, rng, max_rounds=100_000
            )
            wins += result.chosen_arm == 1
            assert result.terminated_by == "single-survivor"
        assert wins / runs >= 0.9

    def test_rounds_scale_with_inverse_square_gap(self):
        rng = np.random.default_rng(4)

        def mean_rounds(gap, runs=60):
            total = 0
            for _ in range(runs):
                result = rb.run_successive_elimination(
                    SBerOracle([0.5 - gap / 2, 0.5 + gap / 2]), 2, 0.1, 2.0, rng,
                    max_rounds=200_000,
                )
                total += result.rounds
            return total / runs

        ratio = mean_rounds(0.15) / mean_rounds(0.3)
        assert 3.0 <= ratio <= 6.0

    def test_round_cap_reported(self):
        result = rb.run_successive_elimination(
            SBerOracle([0.5, 0.5]), 2, 0.1, 2.0, np.random.default_rng(5), max_rounds=25
        )
        assert result.terminated_by == "round-cap"
        assert result.rounds == 25


class TestContaminatedElimination:
    def test_warmup_count(self):
        params = rb.EstimationParams(eps0=0.1, family=FAMILY, model=OBL)
        assert rb.warmup_pulls(2, 0.1, params) == 78

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

    def test_caption_threshold_variant_runs(self):
        instance = tail_instance([0.0, 0.4], eps=0.05, best=1)
        config = rb.AlgoConfig(
            alpha=0.0, delta=0.1, family=FAMILY, eps0=0.05, threshold_variant="linear-slope"
        )
        result = rb.run_contaminated_successive_elimination(
            instance, config, np.random.default_rng(11)
        )
        assert result.chosen_arm == 1

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


class _OraclePuller:
    """The reference loop's puller: block draws for iid arms, one batch per
    call for the batch-aware prescient strategy."""

    def __init__(self, arm, rng, block=256):
        self.arm = arm
        self.rng = rng
        self.block = 0 if isinstance(arm.strategy, rb.EmpiricalQuantileShift) else block
        self.buffer = np.empty(0)
        self.pos = 0

    def pull(self, n):
        if self.block == 0:
            return bandit.draw_batch(self.arm, n, self.rng)
        available = self.buffer.size - self.pos
        if available >= n:
            self.pos += n
            return self.buffer[self.pos - n : self.pos]
        head = self.buffer[self.pos :]
        need = n - available
        self.buffer = bandit.draw_batch(self.arm, max(self.block, need), self.rng)
        self.pos = need
        return np.concatenate([head, self.buffer[:need]])


def oracle_race(instance, config, rng):
    """Round-by-round contaminated racing: every pull pushed into a
    RunningMedian, every round checked for eliminations."""
    k = instance.k
    params = config.estimation_params(instance.model)
    floor_scale = 2.0 * params.median_margin() ** -2
    warmup = rb.warmup_pulls(k, config.delta, params)
    slope, mad = config.family.slope_bound, config.family.mad_bound
    if config.threshold_variant == "squared-slope":
        scale2 = 2.0 * (slope * mad) ** 2
    else:
        scale2 = 2.0 * slope * mad**2
    trackers = [rb.RunningMedian() for _ in range(k)]
    pullers = [_OraclePuller(arm, rng) for arm in instance.arms]
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
    """A race's result, its (arm, n) draw_batch calls and the generator's end state."""
    calls = []
    index = {id(arm): i for i, arm in enumerate(instance.arms)}

    def draw(arm, n, rng, debug=False):
        calls.append((index[id(arm)], n))
        return rb.draw_batch(arm, n, rng, debug)

    rng = np.random.default_rng(seed)
    with mock.patch.object(bandit, "draw_batch", draw):
        result = race(instance, config, rng)
    return result, calls, rng.bit_generator.state


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
        threshold_variant=draw(st.sampled_from(["squared-slope", "linear-slope"])),
    )
    return rb.BanditInstance(arms), config, draw(st.integers(0, 2**32 - 1))


class TestEnvelopeSkippingKernel:
    """The racing kernel against the round-by-round reference loop: same
    result, same draw_batch calls, same generator state afterwards."""

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

    def test_checks_fewer_rounds_than_it_races(self):
        lifted = rb.oblivious_lifting([0.6, 0.4], 0.05)
        config = rb.AlgoConfig(
            alpha=0.05, delta=0.1, family=lifted.family_for(0.15), eps0=0.05
        )
        with mock.patch.object(bandit, "_sorted_median", wraps=bandit._sorted_median) as med:
            result = rb.run_contaminated_successive_elimination(
                lifted.instance(), config, np.random.default_rng(3)
            )
        assert med.call_count < result.rounds / 10
