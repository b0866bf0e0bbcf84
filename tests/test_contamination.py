import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robandit as rb

OBL = rb.AdversaryModel.OBLIVIOUS
PRE = rb.AdversaryModel.PRESCIENT
MAL = rb.AdversaryModel.MALICIOUS


def make_arm(strategy, eps=0.1, model=OBL, dist=None):
    return rb.ContaminatedArm(dist or rb.Uniform(0.0, 1.0), strategy, eps, model)


class TestCompatibility:
    def test_coupled_strategies_need_malicious(self):
        coupling = rb.BelowMedianCoupling(0.5, 0.2, 0.7)
        for model in (OBL, PRE):
            with pytest.raises(rb.IncompatibleStrategyError):
                make_arm(coupling, model=model)
        make_arm(coupling, model=MAL)

    def test_batch_aware_needs_prescient_or_malicious(self):
        with pytest.raises(rb.IncompatibleStrategyError):
            make_arm(rb.EmpiricalQuantileShift(0.9), model=OBL)
        make_arm(rb.EmpiricalQuantileShift(0.9), model=PRE)
        make_arm(rb.EmpiricalQuantileShift(0.9), model=MAL)

    def test_tail_shift_needs_uniform_base(self):
        with pytest.raises(rb.IncompatibleStrategyError):
            make_arm(rb.UniformTailShift(1), dist=rb.Gaussian(0, 1))

    def test_eps_range(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            make_arm(rb.ShiftMedianUp(), eps=0.5)


class TestDrawBatch:
    def test_zero_eps_is_bitwise_clean(self):
        arm = make_arm(rb.ShiftMedianUp(1e6), eps=0.0)
        xs = rb.draw_batch(arm, 1000, np.random.default_rng(7))
        ys = arm.dist.sample(1000, np.random.default_rng(7))
        assert np.array_equal(xs, ys)

    def test_zero_eps_any_strategy(self):
        for strategy in (rb.FixedContamination(rb.Dirac(9.0)), rb.UniformTailShift(1)):
            arm = make_arm(strategy, eps=0.0)
            xs = rb.draw_batch(arm, 500, np.random.default_rng(8))
            assert np.all((0 <= xs) & (xs <= 1))

    def test_contamination_fraction_concentrates(self):
        arm = make_arm(rb.ShiftMedianUp(1e6), eps=0.1)
        xs = rb.draw_batch(arm, 100_000, np.random.default_rng(9))
        assert abs(np.mean(xs > 1.0) - 0.1) < 0.01

    def test_batch_size_validation(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.draw_batch(make_arm(rb.ShiftMedianUp()), 0, np.random.default_rng(0))

    def test_debug_mode_exposes_internals(self):
        arm = make_arm(rb.FixedContamination(rb.Dirac(-5.0)), eps=0.2)
        batch = rb.draw_batch(arm, 5000, np.random.default_rng(10), debug=True)
        assert np.array_equal(batch.x, np.where(batch.d, batch.z, batch.y))
        assert np.all(batch.x[batch.d] == -5.0)

    def test_prescient_quantile_shift_targets_clean_quantile(self):
        arm = make_arm(rb.EmpiricalQuantileShift(0.9), eps=0.2, model=PRE)
        batch = rb.draw_batch(arm, 2000, np.random.default_rng(11), debug=True)
        target = np.quantile(batch.y, 0.9, method="inverted_cdf")
        assert np.all(batch.z == target)


class _Replay(rb.Distribution):
    """A "distribution" that returns given values, to hand draw_batch a chosen batch."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def sample(self, n, rng):
        assert n == self.values.size
        return self.values.copy()


@st.composite
def _batch_and_level(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    if draw(st.booleans()):
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        y = np.random.default_rng(seed).normal(0.0, 1.0, n)
    else:
        y = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    levels = [
        st.sampled_from([0.1, 0.9]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    ]
    if n > 1:
        levels.append(st.integers(min_value=1, max_value=n - 1).map(lambda j: j / n))  # n*q = j
    return y, draw(st.one_of(levels))


class TestEmpiricalQuantilePick:
    """The prescient quantile shift picks the ceil(nq)-th order statistic, which
    must be the value np.quantile(..., method="inverted_cdf") returns, bitwise."""

    @settings(max_examples=400, deadline=None)
    @given(case=_batch_and_level())
    def test_pick_is_numpys_inverted_cdf_quantile(self, case):
        y, q = case
        arm = make_arm(rb.EmpiricalQuantileShift(q), eps=0.3, model=PRE, dist=_Replay(y))
        batch = rb.draw_batch(arm, y.size, np.random.default_rng(0), debug=True)
        want = np.quantile(y, q, method="inverted_cdf")
        assert batch.z.dtype == np.float64
        assert batch.z.tobytes() == np.full(y.size, want).tobytes()
        assert np.array_equal(batch.y, y)  # the pick leaves the clean batch alone

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    def test_draws_only_the_clean_batch_and_the_flags(self, n):
        arm = make_arm(rb.EmpiricalQuantileShift(0.9), eps=0.2, model=PRE)
        rng = np.random.default_rng(12)
        rb.draw_batch(arm, n, rng)
        ref = np.random.default_rng(12)
        arm.dist.sample(n, ref)
        ref.random(n)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestTailShift:
    def test_contaminated_law_is_stretched_uniform(self):
        eps = 0.1
        arm = make_arm(rb.UniformTailShift(1), eps=eps)
        stretched = rb.Uniform(0.0, 1.0 / (1.0 - eps))
        grid = np.linspace(-0.2, 1.4, 801)
        assert np.max(np.abs(rb.contaminated_cdf(arm, grid) - stretched.cdf(grid))) < 1e-12

    def test_down_shift_mirrors(self):
        eps = 0.1
        arm = make_arm(rb.UniformTailShift(-1), eps=eps)
        stretched = rb.Uniform(1.0 - 1.0 / (1.0 - eps), 1.0)
        grid = np.linspace(-0.5, 1.2, 801)
        assert np.max(np.abs(rb.contaminated_cdf(arm, grid) - stretched.cdf(grid))) < 1e-12

    def test_empirical_median_hits_worst_case_bias(self):
        eps = 0.1
        width = 1.0
        arm = make_arm(rb.UniformTailShift(1), eps=eps)
        xs = rb.draw_batch(arm, 200_000, np.random.default_rng(12))
        target = 0.5 + width * eps / (2 * (1 - eps))
        assert abs(rb.empirical_median(xs) - target) < 0.005 * width


class TestMaliciousAttack:
    def test_marginal_frequency(self):
        arm = rb.malicious_median_attack(rb.Uniform(-1.0, 1.0), 0.1)
        batch = rb.draw_batch(arm, 100_000, np.random.default_rng(13), debug=True)
        assert abs(batch.d.mean() - 0.1) < 0.005

    def test_contaminated_values_sit_at_upper_quantile(self):
        arm = rb.malicious_median_attack(rb.Uniform(-1.0, 1.0), 0.1)
        batch = rb.draw_batch(arm, 50_000, np.random.default_rng(14), debug=True)
        assert np.all(batch.x[batch.d] == pytest.approx(0.2, abs=1e-12))

    def test_small_eps_degenerates(self):
        arm = rb.malicious_median_attack(rb.Uniform(-1.0, 1.0), 1e-6)
        batch = rb.draw_batch(arm, 10_000, np.random.default_rng(15), debug=True)
        assert batch.d.sum() <= 2

    def test_rejects_noncontinuous_median(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.malicious_median_attack(rb.Bernoulli(0.5), 0.1)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.malicious_median_attack(rb.Dirac(0.0), 0.1)

    def test_contaminated_cdf_matches_simulation(self):
        eps = 0.1
        arm = rb.malicious_median_attack(rb.Uniform(-1.0, 1.0), eps)
        xs = rb.draw_batch(arm, 100_000, np.random.default_rng(16))
        for x in (-0.5, 0.0, 0.1, 0.2, 0.5):
            assert np.mean(xs <= x) == pytest.approx(rb.contaminated_cdf(arm, x), abs=0.01)


class TestVerifyMarginals:
    def test_oblivious_fixed_passes(self):
        arm = make_arm(rb.FixedContamination(rb.Dirac(0.0)), eps=0.2)
        report = rb.verify_marginals(arm, 100_000, np.random.default_rng(17), delta=0.01)
        assert report.passed

    def test_malicious_coupling_passes(self):
        arm = rb.malicious_median_attack(rb.Uniform(-1.0, 1.0), 0.1)
        report = rb.verify_marginals(arm, 100_000, np.random.default_rng(18), delta=0.01)
        assert report.passed

    def test_zero_eps_passes_with_zero_frequency(self):
        arm = make_arm(rb.ShiftMedianUp(), eps=0.0)
        report = rb.verify_marginals(arm, 10_000, np.random.default_rng(19), delta=0.01)
        assert report.passed
        assert report.d_frequency == 0.0

    def test_rejects_insufficient_samples(self):
        arm = make_arm(rb.ShiftMedianUp(), eps=0.01)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.verify_marginals(arm, 100, np.random.default_rng(20))


class TestSandwich:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_bounds_hold_for_arbitrary_replacements(self, n, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(0, (n - 1) // 2 + 1))
        clean = rng.normal(0, 3, n)
        mixed = clean.copy()
        if s:
            idx = rng.choice(n, size=s, replace=False)
            mixed[idx] = rng.uniform(-1e6, 1e6, s)
        lo, hi = rb.median_sandwich_bounds(clean, s)
        assert lo <= rb.empirical_median(mixed) <= hi

    def test_even_batch_with_no_corruption_contains_midpoint(self):
        lo, hi = rb.median_sandwich_bounds([0.0, 10.0], 0)
        assert lo <= 5.0 <= hi

    def test_rejects_majority_corruption(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.median_sandwich_bounds([1.0, 2.0, 3.0], 2)

    def test_debug_batches_assert_sandwich(self):
        rng = np.random.default_rng(21)
        arms = [
            make_arm(rb.ShiftMedianUp(1e6), eps=0.3),
            make_arm(rb.FixedContamination(rb.Cauchy(0, 50)), eps=0.2),
            rb.malicious_median_attack(rb.Uniform(-1, 1), 0.2),
        ]
        for arm in arms:
            for _ in range(20):
                rb.draw_batch(arm, int(rng.integers(3, 300)), rng, debug=True)


class TestKsDistance:
    def test_handles_atoms(self):
        dist = rb.SmoothedBernoulli(0.4)
        xs = dist.sample(50_000, np.random.default_rng(22))
        assert rb.ks_distance(xs, dist) < 0.01

    def test_detects_wrong_law(self):
        xs = rb.Uniform(0, 1).sample(10_000, np.random.default_rng(23))
        assert rb.ks_distance(xs, rb.Uniform(0.2, 1.2)) > 0.1
