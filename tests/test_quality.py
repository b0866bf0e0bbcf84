import math

import numpy as np
import pytest

import robandit as rb

OBL = rb.AdversaryModel.OBLIVIOUS
FAMILY = rb.FamilyParams(t_bar=0.4, slope_bound=4.0, mad_bound=0.25, mad_ratio=2.0)


class TestLowerTailBound:
    def test_zero_level_returns_median(self):
        assert rb.lower_tail_bound(0.5, 0.25, 4.0, 0.0) == 0.5

    def test_uniform_bound_is_tight(self):
        # Uniform(0, 1): threshold 0.4 at t = 0.1 is exceeded with probability 0.6 exactly
        threshold = rb.lower_tail_bound(0.5, 0.25, 4.0, 0.1)
        assert threshold == pytest.approx(0.4, abs=1e-12)
        exceed = 1.0 - float(rb.Uniform(0.0, 1.0).cdf(threshold))
        assert exceed == pytest.approx(0.5 + 0.1, abs=1e-12)

    def test_boundary_level_allowed(self):
        rb.lower_tail_bound(0.5, 0.25, 4.0, 0.4, t_bar=0.4)

    def test_rejects_levels_outside_range(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.lower_tail_bound(0.5, 0.25, 4.0, -0.01)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.lower_tail_bound(0.5, 0.25, 4.0, 0.41, t_bar=0.4)

    def test_tightness_across_levels(self):
        # exactness for uniform arms at every level in [0, t_bar]
        dist = rb.Uniform(0.0, 2.0)
        m = rb.robust_moments(dist)
        for t in np.linspace(0.0, 0.4, 9):
            threshold = rb.lower_tail_bound(m.median, m.mad, 4.0, float(t))
            exceed = 1.0 - float(dist.cdf(threshold))
            assert exceed == pytest.approx(0.5 + t, abs=1e-12)


class TestQuantileGuarantee:
    def test_worked_example(self):
        g = rb.quantile_guarantee(
            median_hat=0.5,
            mad_hat=0.25,
            t=0.1,
            alpha=0.05,
            bias_bound=0.05,
            slope_bound=4.0,
            mad_ratio=2.0,
            delta=0.1,
            k=4,
        )
        assert g.threshold == pytest.approx(0.145, abs=1e-12)
        assert g.probability_floor == pytest.approx(0.525, abs=1e-12)
        assert not g.vacuous

    def test_degenerate_no_error_terms(self):
        g = rb.quantile_guarantee(0.8, 0.2, 0.0, 0.0, 0.0, 4.0, 2.0, 0.2, 3)
        assert g.threshold == 0.8
        assert g.probability_floor == pytest.approx(0.5 - 3 * 0.2 / 3)

    def test_zero_ratio_zero_level(self):
        g = rb.quantile_guarantee(0.8, 0.2, 0.0, 0.1, 0.02, 4.0, 0.0, 0.1, 2)
        assert g.threshold == pytest.approx(0.8 - 0.05 - 0.02, abs=1e-12)

    def test_monotone_in_each_discount(self):
        base = dict(
            median_hat=0.5, mad_hat=0.25, t=0.1, alpha=0.05, bias_bound=0.05,
            slope_bound=4.0, mad_ratio=2.0, delta=0.1, k=4,
        )
        ref = rb.quantile_guarantee(**base).threshold
        for key, larger in (
            ("t", 0.2),
            ("alpha", 0.1),
            ("bias_bound", 0.1),
            ("mad_ratio", 3.0),
        ):
            tweaked = dict(base, **{key: larger})
            assert rb.quantile_guarantee(**tweaked).threshold <= ref + 1e-12

    def test_vacuous_floor_clamped(self):
        g = rb.quantile_guarantee(0.5, 0.25, 0.0, 0.0, 0.0, 4.0, 2.0, 0.4, 2)
        assert g.probability_floor == 0.0
        assert g.vacuous

    def test_validation(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.quantile_guarantee(0.5, 0.25, 0.1, 0.05, 0.05, 4.0, 2.0, 0.1, 0)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.quantile_guarantee(0.5, 0.25, 0.1, -0.05, 0.05, 4.0, 2.0, 0.1, 2)


def test_guarantee_holds_after_selection_quick():
    eps = 0.05
    delta = 0.1
    alpha = 0.2
    arms = [
        rb.ContaminatedArm(rb.Uniform(0.0, 1.0), rb.UniformTailShift(1), eps, OBL),
        rb.ContaminatedArm(rb.Uniform(0.3, 1.3), rb.UniformTailShift(-1), eps, OBL),
    ]
    instance = rb.BanditInstance(arms)
    config = rb.AlgoConfig(alpha=alpha, delta=delta, family=FAMILY, eps0=eps)
    bias_bound = rb.contamination_bias(eps, 4.0, 0.25, OBL)
    rng = np.random.default_rng(99)
    reps = 150
    hits = 0
    t = 0.1
    for _ in range(reps):
        outcome = rb.run_simple(instance, config, rng)
        chosen = outcome.result.chosen_arm
        g = rb.quantile_guarantee(
            outcome.medians[chosen], outcome.mads[chosen], t, alpha, bias_bound,
            4.0, 2.0, delta, 2, t_bar=0.4,
        )
        fresh = float(instance.arms[chosen].dist.sample(1, rng)[0])
        hits += fresh >= g.threshold
    floor = 0.5 + t - 3 * delta / 2
    assert hits / reps >= floor - 3 * math.sqrt(floor * (1 - floor) / reps)
