import math

import numpy as np
import pytest
from scipy import stats

import robandit as rb


class TestKl:
    def test_reference_value(self):
        # half the Bernoulli divergence at (0.5, 0.25)
        assert rb.kl_smoothed_bernoulli(0.5, 0.25) == pytest.approx(0.0719205, abs=1e-6)

    def test_zero_at_equal_parameters(self):
        for p in np.linspace(0.05, 0.95, 19):
            assert rb.kl_smoothed_bernoulli(float(p), float(p)) == 0.0

    def test_symmetry_under_complement(self):
        for p, q in [(0.3, 0.6), (0.45, 0.52), (0.1, 0.9)]:
            assert rb.kl_smoothed_bernoulli(p, q) == pytest.approx(
                rb.kl_smoothed_bernoulli(1 - p, 1 - q), abs=1e-14
            )

    def test_nonnegative_on_grid(self):
        grid = np.linspace(0.01, 0.99, 60)
        assert all(
            rb.kl_smoothed_bernoulli(float(p), float(q)) >= 0.0 for p in grid for q in grid
        )

    def test_boundaries_rejected(self):
        for p, q in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
            with pytest.raises(rb.ParameterOutOfRangeError):
                rb.kl_smoothed_bernoulli(p, q)

    def test_quadratic_domination(self):
        c = rb.kl_quadratic_constant(1.0 / 3.0)
        assert 1.0 <= c <= 2.0
        grid = np.linspace(1 / 3, 2 / 3, 40)
        for p in grid:
            for q in grid:
                if p != q:
                    assert rb.kl_smoothed_bernoulli(float(p), float(q)) <= c * (p - q) ** 2 + 1e-12

    @pytest.mark.parametrize("eta", [0.1, 1.0 / 3.0])
    def test_quadratic_constant_matches_scalar_grid(self, eta):
        ps = np.linspace(eta, 1.0 - eta, 200)
        scalar = max(
            rb.kl_smoothed_bernoulli(float(p), float(q)) / (p - q) ** 2
            for p in ps
            for q in ps
            if p != q
        )
        assert rb.kl_quadratic_constant(eta) == pytest.approx(scalar, rel=1e-12)


class TestLowerBoundSamples:
    def test_reference_value(self):
        value = rb.lower_bound_samples([0.1, 0.1, 0.1], alpha=0.05, delta=0.1, c_eta=1.0)
        assert value == pytest.approx(75.0 * math.log(1 / 0.24), rel=1e-12)
        assert value == pytest.approx(107.03, abs=0.01)

    def test_alpha_clips_small_gaps(self):
        clipped = rb.lower_bound_samples([0.01, 0.02], alpha=0.5, delta=0.1)
        direct = rb.lower_bound_samples([0.5, 0.5], alpha=0.0, delta=0.1)
        assert clipped == pytest.approx(direct, rel=1e-12)

    def test_quadratic_scaling(self):
        one = rb.lower_bound_samples([0.2], alpha=0.0, delta=0.1)
        four = rb.lower_bound_samples([0.1], alpha=0.0, delta=0.1)
        assert four == pytest.approx(4.0 * one, rel=1e-12)

    def test_delta_validity_range(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.lower_bound_samples([0.1], alpha=0.0, delta=0.15)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.lower_bound_samples([0.1], alpha=0.0, delta=0.3)

    def test_gaps_must_be_positive(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.lower_bound_samples([0.1, 0.0], alpha=0.0, delta=0.1)


class TestObliviousLifting:
    def test_observable_cdf_value(self):
        lifted = rb.oblivious_lifting([0.6, 0.4], 0.05)
        arm = lifted.lifted_arms[0]
        # (1 - eps) F(0.5) + eps matches the smoothed-Bernoulli cdf 0.45
        assert rb.contaminated_cdf(arm, 0.5) == pytest.approx(0.45, abs=1e-12)

    def test_hidden_medians_shifted_by_eps(self):
        eps = 0.05
        lifted = rb.oblivious_lifting([0.6, 0.4], eps)
        best = rb.robust_moments(lifted.lifted_arms[0].dist)
        rival = rb.robust_moments(lifted.lifted_arms[1].dist)
        assert best.median == pytest.approx(0.6 + eps, abs=1e-12)
        assert rival.median == pytest.approx(0.4 - eps, abs=1e-12)

    def test_small_eps_degenerates_to_observable_law(self):
        lifted = rb.oblivious_lifting([0.5, 0.4], 1e-6)
        grid = np.linspace(-0.2, 1.2, 501)
        for arm, law in zip(lifted.lifted_arms, lifted.observable_law):
            assert np.max(np.abs(np.asarray(arm.dist.cdf(grid)) - np.asarray(law.cdf(grid)))) < 1e-5

    def test_effective_gaps_equal_classical(self):
        lifted = rb.oblivious_lifting([0.6, 0.4, 0.5], 0.05)
        gaps = rb.lifted_effective_gaps(lifted)
        for g, c in zip(gaps, lifted.classical_gaps):
            assert g == pytest.approx(c, abs=1e-12)

    def test_reordering_puts_best_first(self):
        lifted = rb.oblivious_lifting([0.4, 0.6, 0.5], 0.05)
        assert lifted.p == (0.6, 0.4, 0.5)
        assert lifted.original_indices == (1, 0, 2)

    def test_parameter_validation(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.oblivious_lifting([0.2, 0.6], 0.05)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.oblivious_lifting([0.6, 0.4], 0.1)

    def test_samples_match_observable_law(self):
        lifted = rb.oblivious_lifting([0.6, 0.4], 0.05)
        rng = np.random.default_rng(31)
        for arm, law in zip(lifted.lifted_arms, lifted.observable_law):
            lifted_draws = rb.draw_batch(arm, 20_000, rng)
            direct = law.sample(20_000, rng)
            assert stats.ks_2samp(lifted_draws, direct).pvalue >= 1e-3


class TestMaliciousLifting:
    def test_flag_marginal(self):
        eps = 0.05
        lifted = rb.malicious_lifting([0.6, 0.4], eps)
        rng = np.random.default_rng(32)
        for arm in lifted.lifted_arms:
            batch = rb.draw_batch(arm, 100_000, rng, debug=True)
            assert abs(batch.d.mean() - eps) < 0.004

    def test_median_shift_is_twice_eps(self):
        eps = 0.05
        lifted = rb.malicious_lifting([0.6, 0.4], eps)
        best = rb.robust_moments(lifted.lifted_arms[0].dist)
        rival = rb.robust_moments(lifted.lifted_arms[1].dist)
        assert best.median == pytest.approx(0.6 + 2 * eps, abs=1e-12)
        assert rival.median == pytest.approx(0.4 - 2 * eps, abs=1e-12)

    def test_effective_gaps_equal_classical(self):
        lifted = rb.malicious_lifting([0.55, 0.45, 0.5], 0.04)
        gaps = rb.lifted_effective_gaps(lifted)
        for g, c in zip(gaps, lifted.classical_gaps):
            assert g == pytest.approx(c, abs=1e-12)

    def test_observable_law_identity(self):
        lifted = rb.malicious_lifting([0.6, 0.4], 0.05)
        grid = np.linspace(-0.25, 1.25, 1001)
        for arm, law in zip(lifted.lifted_arms, lifted.observable_law):
            sup = np.max(
                np.abs(np.asarray(rb.contaminated_cdf(arm, grid)) - np.asarray(law.cdf(grid)))
            )
            assert sup <= 1e-12

    def test_samples_match_observable_law(self):
        lifted = rb.malicious_lifting([0.6, 0.4], 0.05)
        rng = np.random.default_rng(33)
        for arm, law in zip(lifted.lifted_arms, lifted.observable_law):
            lifted_draws = rb.draw_batch(arm, 20_000, rng)
            direct = law.sample(20_000, rng)
            assert stats.ks_2samp(lifted_draws, direct).pvalue >= 1e-3


class TestHardnessProbe:
    def test_requires_replications(self):
        lifted = rb.oblivious_lifting([0.6, 0.4], 0.05)
        config = rb.AlgoConfig(alpha=0.05, delta=0.1, family=lifted.family_for(0.15), eps0=0.05)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.hardness_probe(lifted, config, 50, seed=0)

    def test_single_arm_degenerates(self):
        lifted = rb.oblivious_lifting([0.5], 0.05)
        config = rb.AlgoConfig(alpha=0.05, delta=0.1, family=lifted.family_for(0.15), eps0=0.05)
        report = rb.hardness_probe(lifted, config, 100, seed=1)
        assert report.mean_rounds == 0.0
        assert report.success_rate == 1.0
        assert report.lb_value == 0.0

    @pytest.mark.slow
    def test_scaling_and_success(self):
        eps = 0.05
        delta = 0.1
        reports = []
        for seed, pair in ((5, (0.6, 0.4)), (6, (0.55, 0.45))):
            lifted = rb.oblivious_lifting(pair, eps)
            config = rb.AlgoConfig(
                alpha=0.05, delta=delta, family=lifted.family_for(0.15), eps0=eps
            )
            report = rb.hardness_probe(lifted, config, 100, seed=seed)
            reports.append(report)
            slack = 3 * math.sqrt(delta * (1 - delta) / 100)
            assert report.success_rate >= 1 - delta - slack
            assert report.ratio >= 1.0
        ratio = reports[1].mean_pulls / reports[0].mean_pulls
        assert 3.0 <= ratio <= 6.0
