import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robandit as rb
from robandit.distributions import _AbsDeviation

RNG = lambda seed=0: np.random.default_rng(seed)

ALL_DISTS = [
    rb.Uniform(0.0, 1.0),
    rb.Uniform(-1.0, 3.0),
    rb.Gaussian(0.0, 1.0),
    rb.Gaussian(2.0, 3.0),
    rb.Cauchy(0.0, 1.0),
    rb.Cauchy(1.0, 2.0),
    rb.Bernoulli(0.3),
    rb.SmoothedBernoulli(0.6),
    rb.Dirac(2.0),
    rb.Mixture([0.3, 0.7], [rb.Uniform(0.0, 1.0), rb.Uniform(2.0, 3.0)]),
    rb.Affine(rb.Gaussian(0.0, 1.0), -2.0, 1.0),
]


class TestCdf:
    def test_uniform_value(self):
        assert rb.Uniform(0.0, 1.0).cdf(0.3) == pytest.approx(0.3, abs=0)

    def test_smoothed_bernoulli_value(self):
        # (1 - p)/2 + x/2 on [0, 1)
        assert rb.SmoothedBernoulli(0.6).cdf(0.5) == pytest.approx(0.45, abs=1e-15)

    def test_dirac_values(self):
        d = rb.Dirac(2.0)
        assert d.cdf(1.9) == 0.0
        assert d.cdf(2.0) == 1.0

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_monotone_with_limits(self, dist):
        xs = np.linspace(-50.0, 50.0, 4001)
        fs = np.asarray(dist.cdf(xs))
        assert np.all(np.diff(fs) >= -1e-15)
        assert np.all((fs >= 0.0) & (fs <= 1.0))
        assert dist.cdf(-1e12) <= 1e-6
        assert dist.cdf(1e12) >= 1.0 - 1e-6

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_right_continuity_at_atoms(self, dist):
        # F(x) - F(x-) equals the atom mass everywhere on a probe grid
        for x in [-1.0, 0.0, 0.5, 1.0, 2.0]:
            mass = float(dist.atom_mass(x))
            assert float(dist.cdf(x)) - float(dist.cdf_left(x)) == pytest.approx(mass, abs=1e-12)

    def test_mixture_weight_validation(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.Mixture([0.4, 0.4], [rb.Uniform(0, 1), rb.Uniform(1, 2)])
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.Mixture([-0.1, 1.1], [rb.Uniform(0, 1), rb.Uniform(1, 2)])

    def test_parameter_validation(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.Uniform(1.0, 1.0)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.Gaussian(0.0, 0.0)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.Affine(rb.Uniform(0, 1), 0.0)


class TestQuantiles:
    def test_uniform_median(self):
        u = rb.Uniform(0.0, 1.0)
        assert u.quantile_left(0.5) == 0.5
        assert u.quantile_right(0.5) == 0.5

    def test_bernoulli_flat_cdf_splits_quantiles(self):
        b = rb.Bernoulli(0.5)
        assert b.quantile_left(0.5) == 0.0
        assert b.quantile_right(0.5) == 1.0

    def test_smoothed_bernoulli_median(self):
        s = rb.SmoothedBernoulli(0.6)
        assert s.quantile_left(0.5) == pytest.approx(0.6, abs=1e-15)
        assert s.quantile_right(0.5) == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_levels_outside_open_interval(self, p):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.Uniform(0, 1).quantile_left(p)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.Cauchy(0, 1).quantile_right(p)

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_galois_connection(self, dist):
        for p in np.linspace(0.02, 0.98, 25):
            p = float(p)
            q_lo = dist.quantile_left(p)
            q_hi = dist.quantile_right(p)
            assert q_lo <= q_hi + 1e-12
            assert float(dist.cdf(q_lo)) >= p - 1e-9
            left = q_lo - max(1e-9, 1e-9 * abs(q_lo))
            assert float(dist.cdf(left)) < p + 1e-9

    def test_cauchy_closed_form(self):
        c = rb.Cauchy(1.0, 2.0)
        assert c.quantile_left(0.75) == pytest.approx(1.0 + 2.0, rel=1e-12)

    def test_affine_negative_scale_flips_quantiles(self):
        base = rb.SmoothedBernoulli(0.6)
        flipped = rb.Affine(base, -1.0, 0.0)
        assert flipped.quantile_left(0.5) == pytest.approx(-0.6, abs=1e-12)


class TestSampling:
    def test_dirac_constant(self):
        assert np.all(rb.Dirac(3.0).sample(100, RNG()) == 3.0)

    def test_uniform_mean_clt(self):
        xs = rb.Uniform(0.0, 1.0).sample(100_000, RNG(1))
        assert abs(xs.mean() - 0.5) < 0.01

    def test_degenerate_mixture_matches_uniform_law(self):
        mix = rb.Mixture([1.0], [rb.Uniform(0.0, 1.0)])
        xs = mix.sample(50_000, RNG(2))
        ks = rb.ks_distance(xs, rb.Uniform(0.0, 1.0))
        assert ks <= 2.0 * math.sqrt(math.log(2 / 1e-3) / (2 * xs.size))

    @pytest.mark.parametrize(
        "dist", [rb.Gaussian(1.0, 2.0), rb.SmoothedBernoulli(0.4), rb.Cauchy(0.0, 1.0)],
        ids=lambda d: type(d).__name__,
    )
    def test_sampler_matches_cdf(self, dist):
        n = 50_000
        xs = dist.sample(n, RNG(3))
        assert rb.ks_distance(xs, dist) <= 2.0 * math.sqrt(math.log(2 / 1e-3) / (2 * n))


class TestSmoothedBernoulliStream:
    @pytest.mark.parametrize("n", [1, 3, 256])
    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_one_call_equals_two_call_form(self, n, p):
        rng, ref = RNG(17), RNG(17)
        xs = rb.SmoothedBernoulli(p).sample(n, rng)
        pick_atom = ref.random(n) < 0.5
        value = ref.random(n)
        want = np.where(pick_atom, (value < p).astype(float), value)
        assert xs.dtype == want.dtype == np.float64
        assert xs.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRobustMoments:
    def test_uniform_closed_form(self):
        m = rb.robust_moments(rb.Uniform(0.0, 2.0))
        assert (m.median, m.mad, m.mad2) == (1.0, 0.5, 0.25)

    def test_uniform01_mad2(self):
        assert rb.robust_moments(rb.Uniform(0.0, 1.0)).mad2 == pytest.approx(0.125, abs=1e-12)

    def test_cauchy_closed_form(self):
        m = rb.robust_moments(rb.Cauchy(0.0, 1.0))
        assert m.median == 0.0
        assert m.mad == 1.0
        assert m.mad2 == pytest.approx(math.sqrt(3.0) - 1.0, rel=1e-12)

    def test_gaussian_mad(self):
        m = rb.robust_moments(rb.Gaussian(0.0, 2.0))
        assert m.mad == pytest.approx(2.0 * 0.6744897501960817, rel=1e-9)

    def test_closed_forms_match_numeric_path(self):
        for dist in [rb.Uniform(0.0, 2.0), rb.Cauchy(1.0, 2.0), rb.Gaussian(0.5, 1.5)]:
            closed = rb.robust_moments(dist)
            numeric = rb.robust_moments(dist, force_numeric=True)
            assert numeric.median == pytest.approx(closed.median, abs=1e-10)
            assert numeric.mad == pytest.approx(closed.mad, abs=1e-10)
            assert numeric.mad2 == pytest.approx(closed.mad2, abs=1e-10)

    def test_bernoulli_half_flags_non_unique(self):
        m = rb.robust_moments(rb.Bernoulli(0.5))
        assert not m.median_unique
        assert math.isnan(m.mad)

    def test_smoothed_bernoulli_median(self):
        assert rb.robust_moments(rb.SmoothedBernoulli(0.6)).median == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
    def test_mad2_at_most_twice_mad(self, dist):
        m = rb.robust_moments(dist)
        if m.mad_unique and m.mad2_unique:
            assert m.mad2 <= 2.0 * m.mad + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(min_value=0.25, max_value=4.0),
        b=st.floats(min_value=-3.0, max_value=3.0),
        flip=st.booleans(),
    )
    def test_affine_equivariance(self, a, b, flip):
        scale = -a if flip else a
        base = rb.robust_moments(rb.Gaussian(0.3, 1.2))
        image = rb.robust_moments(rb.Affine(rb.Gaussian(0.3, 1.2), scale, b))
        assert image.median == pytest.approx(scale * base.median + b, abs=1e-8)
        assert image.mad == pytest.approx(abs(scale) * base.mad, abs=1e-8)


class TestFamilyChecks:
    def test_uniform_accepts_boundary_slope(self):
        assert rb.in_quantile_family(rb.Uniform(0.0, 1.0), 0.4, 4.0)

    def test_uniform_rejects_tighter_slope(self):
        assert not rb.in_quantile_family(rb.Uniform(0.0, 1.0), 0.4, 3.9)

    def test_bernoulli_needs_unique_median(self):
        with pytest.raises(rb.NonUniqueMedianError):
            rb.in_quantile_family(rb.Bernoulli(0.5), 0.4, 4.0)

    def test_dirac_has_zero_mad(self):
        with pytest.raises(rb.ZeroMADError):
            rb.in_quantile_family(rb.Dirac(1.0), 0.4, 4.0)

    def test_uniform_mad_family(self):
        params = rb.FamilyParams(t_bar=0.4, slope_bound=4.0, mad_bound=0.25, mad_ratio=2.0)
        assert rb.in_mad_family(rb.Uniform(0.0, 1.0), params)

    def test_uniform_mad_family_needs_ratio_two(self):
        params = rb.FamilyParams(t_bar=0.4, slope_bound=4.0, mad_bound=0.25, mad_ratio=1.9)
        assert not rb.in_mad_family(rb.Uniform(0.0, 1.0), params)

    def test_cauchy_mad_family(self):
        slope = math.pi * (1.0 + math.tan(0.4 * math.pi) ** 2)
        # mad/mad2 = 1/(sqrt(3) - 1), so the ratio bound must be at least that
        good = rb.FamilyParams(0.4, slope, 1.0, 1.0 / (math.sqrt(3.0) - 1.0) + 1e-9)
        bad = rb.FamilyParams(0.4, slope, 1.0, math.sqrt(3.0) - 1.0)
        assert rb.in_mad_family(rb.Cauchy(0.0, 1.0), good)
        assert not rb.in_mad_family(rb.Cauchy(0.0, 1.0), bad)

    def test_strict_monotonicity_inside_window(self):
        dist = rb.Uniform(0.0, 1.0)
        assert rb.in_quantile_family(dist, 0.4, 4.0)
        xs = np.linspace(dist.quantile_left(0.1), dist.quantile_right(0.9), 100)
        assert np.all(np.diff(np.asarray(dist.cdf(xs))) > 0)

    def test_abs_deviation_closure(self):
        # members of the MAD family push |X - median| into the quantile family
        cases = [
            (rb.Uniform(0.0, 1.0), 4.0, 2.0),
            (rb.Cauchy(0.0, 1.0), math.pi * (1.0 + math.tan(0.4 * math.pi) ** 2), 1.4),
        ]
        for dist, slope, kappa in cases:
            med = rb.robust_moments(dist).median
            dev = rb.abs_deviation_of(dist, med)
            t_dev = min(0.5 - 1e-9, 2.0 / slope)
            assert rb.in_quantile_family(dev, t_dev, kappa * slope, grid=2000)


class TestBiasBounds:
    def test_uniform_shift_matches_family_bias(self):
        shift = rb.median_shift_bound(rb.Uniform(0.0, 1.0), 0.1)
        bias = rb.contamination_bias(0.1, 4.0, 0.25, rb.AdversaryModel.OBLIVIOUS)
        assert shift == pytest.approx(bias, abs=1e-12)
        assert shift == pytest.approx(0.1 / 1.8, abs=1e-12)

    def test_dirac_shift_is_zero(self):
        assert rb.median_shift_bound(rb.Dirac(5.0), 0.3) == 0.0

    def test_shift_vanishes_with_eps(self):
        assert rb.median_shift_bound(rb.Gaussian(0, 1), 1e-9) < 1e-8

    def test_shift_rejects_bad_eps(self):
        for eps in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(rb.ParameterOutOfRangeError):
                rb.median_shift_bound(rb.Uniform(0, 1), eps)

    def test_bias_values(self):
        assert rb.contamination_bias(0.1, 4, 0.25, rb.AdversaryModel.OBLIVIOUS) == pytest.approx(
            0.1 / 1.8
        )
        assert rb.contamination_bias(0.1, 4, 0.25, rb.AdversaryModel.MALICIOUS) == pytest.approx(0.1)
        assert rb.contamination_bias(0.0, 7, 3, rb.AdversaryModel.PRESCIENT) == 0.0

    def test_bias_ordering_and_monotonicity(self):
        grid = np.linspace(0.0, 0.49, 50)
        obl = [rb.contamination_bias(e, 4, 0.25, rb.AdversaryModel.OBLIVIOUS) for e in grid]
        mal = [rb.contamination_bias(e, 4, 0.25, rb.AdversaryModel.MALICIOUS) for e in grid]
        assert all(o <= m + 1e-15 for o, m in zip(obl, mal))
        assert all(b >= a - 1e-15 for a, b in zip(obl, obl[1:]))
        assert all(b >= a - 1e-15 for a, b in zip(mal, mal[1:]))

    @pytest.mark.parametrize(
        "dist,slope", [(rb.Uniform(0, 1), 4.0), (rb.Gaussian(0, 1), 8.5)],
        ids=["uniform", "gaussian"],
    )
    def test_shift_below_family_bias(self, dist, slope):
        # family members cannot be shifted past the family-level bias bound
        mad = rb.robust_moments(dist).mad
        for eps in (0.05, 0.1, 0.2):
            shift = rb.median_shift_bound(dist, eps)
            bias = rb.contamination_bias(eps, slope, mad, rb.AdversaryModel.OBLIVIOUS)
            assert shift <= bias + 1e-9

    def test_eps_ceiling(self):
        assert rb.eps_ceiling(0.4) == pytest.approx(0.8 / 1.8)


def test_abs_deviation_distribution_consistency():
    dist = rb.Mixture([0.5, 0.5], [rb.Bernoulli(0.4), rb.Uniform(0.0, 1.0)])
    med = rb.robust_moments(dist).median
    dev = _AbsDeviation(dist, med)
    xs = np.abs(dist.sample(50_000, RNG(4)) - med)
    assert rb.ks_distance(xs, dev) <= 2.0 * math.sqrt(math.log(2 / 1e-3) / (2 * xs.size))
