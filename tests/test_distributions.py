import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robandit as rb
from robandit.distributions import _GAUSSIAN_MAD, _AbsDeviation, _median_mad, _search_quantile

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

# Every law the Distribution protocol serves, the internal |X - c| law included.
PROTOCOL_DISTS = ALL_DISTS + [_AbsDeviation(rb.SmoothedBernoulli(0.6), 0.6)]


class TestProtocol:
    """The base class's calling convention holds for every law."""

    @pytest.mark.parametrize("method", ["cdf", "atom_mass", "cdf_left"])
    @pytest.mark.parametrize("dist", PROTOCOL_DISTS, ids=lambda d: type(d).__name__)
    def test_float_for_scalar_array_for_array(self, dist, method):
        f = getattr(dist, method)
        for scalar in (0.5, 1, np.float64(0.5), np.array(0.5)):
            assert type(f(scalar)) is float
        for shape in [(0,), (4,), (2, 3)]:
            xs = np.linspace(-1.0, 2.0, math.prod(shape)).reshape(shape)
            out = f(xs)
            assert isinstance(out, np.ndarray) and out.shape == shape
            for x, value in zip(xs.ravel(), out.ravel()):
                assert value == pytest.approx(f(float(x)), abs=1e-15)
        assert f([0.0, 1.0]).shape == (2,)

    def test_law_without_cdf(self):
        with pytest.raises(NotImplementedError):
            rb.Distribution().cdf(0.0)
        assert rb.Distribution().atom_mass(0.0) == 0.0


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


class TestGaussianIsScipys:
    def test_mad_constant(self):
        assert _GAUSSIAN_MAD == float(scipy.special.ndtri(0.75))

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.5, 1.5), (-2.0, 0.3)])
    def test_cdf_and_quantile_bitwise(self, mu, sigma):
        dist = rb.Gaussian(mu, sigma)
        xs = np.linspace(-8.0, 8.0, 1601)
        want = scipy.special.ndtr((xs - mu) / sigma)
        assert np.array_equal(dist.cdf(xs), want)
        assert [dist.cdf(float(x)) for x in xs] == [float(w) for w in want]
        assert type(dist.cdf(0.25)) is float
        for p in np.linspace(0.001, 0.999, 999):
            assert dist.quantile_left(p) == mu + sigma * float(scipy.special.ndtri(p))
            assert dist.quantile_right(p) == dist.quantile_left(p)


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
    @pytest.mark.parametrize("dist", PROTOCOL_DISTS, ids=lambda d: type(d).__name__)
    def test_rejects_levels_outside_open_interval(self, dist, p):
        with pytest.raises(rb.ParameterOutOfRangeError, match=r"quantile level must lie in \(0, 1\)"):
            dist.quantile_left(p)
        with pytest.raises(rb.ParameterOutOfRangeError, match=r"quantile level must lie in \(0, 1\)"):
            dist.quantile_right(p)

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

    @pytest.mark.parametrize("p", [1e-17, 2.0**-54, 5e-324])
    def test_affine_negative_scale_takes_levels_near_zero(self, p):
        # 1 - p rounds to 1.0 at these levels
        for scale, shift, image in ((-1.0, 0.0, rb.Uniform(-1.0, 0.0)), (-2.0, 3.0, rb.Uniform(1.0, 3.0))):
            flipped = rb.Affine(rb.Uniform(0.0, 1.0), scale, shift)
            assert flipped.quantile_left(p) == image.quantile_left(p)
            assert flipped.quantile_right(p) == image.quantile_right(p)


    @pytest.mark.parametrize("p", [1e-17, 1e-12, 1e-3, 0.3, 0.5, 0.9, 1.0 - 1e-12])
    @pytest.mark.parametrize(
        "law", [rb.Gaussian(0.0, 1.0), rb.Cauchy(0.0, 1.0), rb.Uniform(-1.0, 1.0), rb.Dirac(0.0)]
    )
    def test_affine_negative_scale_keeps_small_levels(self, law, p):
        # a law symmetric about 0 is its own mirror image; 1 - p rounds away a small p
        flipped = rb.Affine(law, -1.0)
        for side in ("quantile_left", "quantile_right"):
            want = getattr(law, side)(p)
            assert getattr(flipped, side)(p) == pytest.approx(want, rel=1e-12, abs=1e-300)

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(1e-300, 1.0, exclude_max=True),
        x0=st.floats(-5.0, 5.0),
        scale=st.floats(0.1, 10.0),
    )
    @example(p=1e-17, x0=0.0, scale=1.0)
    @example(p=1e-12, x0=0.0, scale=1.0)
    @example(p=1.0 - 1e-12, x0=0.0, scale=1.0)
    @example(p=0.25, x0=0.0, scale=1.0)
    def test_cauchy_tails_match_decimal_reference(self, p, x0, scale):
        """Both tails to a few ulps against cot computed at 45 digits; the
        mirrored law reads the same quantile from the upper-tail branch."""
        tan = _cauchy_tan_reference(p)
        with localcontext() as ctx:
            ctx.prec = 45
            want = float(Decimal(x0) + Decimal(scale) * tan)
        # a few ulps, plus the reference's own error where tan is near 0
        tol = 2e-15 * (abs(x0) + scale * abs(float(tan))) + 1e-30
        law = rb.Cauchy(x0, scale)
        mirrored = rb.Affine(rb.Cauchy(-x0, scale), -1.0)
        for quantile in (law.quantile_left, law.quantile_right, mirrored.quantile_left, mirrored.quantile_right):
            assert abs(quantile(p) - want) <= tol


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _cot_pi(u: Decimal) -> Decimal:
    """cot(pi * u) for u in (0, 1/2], from the sine and cosine series at 45 digits."""
    with localcontext() as ctx:
        ctx.prec = 45
        x = _PI * u
        x2 = x * x
        sin_term, cos_term = x, Decimal(1)
        sin, cos = sin_term, cos_term
        for k in range(1, 40):
            sin_term *= -x2 / ((2 * k) * (2 * k + 1))
            cos_term *= -x2 / ((2 * k - 1) * (2 * k))
            sin += sin_term
            cos += cos_term
        return cos / sin


def _cauchy_tan_reference(p: float) -> Decimal:
    """tan(pi * (p - 1/2)) for the exact binary value of p, through the tail
    mass below or above p so that no level is rounded away."""
    level = Decimal(p)
    with localcontext() as ctx:
        ctx.prec = 45
        return -_cot_pi(level) if level < Decimal("0.5") else _cot_pi(1 - level)


def _bisection_oracle(dist, p, strict, max_steps=200):
    """The bracketed bisection the k-section search replaced, kept as its
    reference: the old loop with its 200-step cap as a parameter. Returns the
    float and whether the bracket reached float adjacency within the cap."""
    if strict:
        pred = lambda x: dist.cdf(x) > p
    else:
        pred = lambda x: dist.cdf(x) >= p
    lo, hi = -1.0, 1.0
    step = 1.0
    while not pred(hi):
        hi += step
        step *= 2.0
    step = 1.0
    while pred(lo):
        lo -= step
        step *= 2.0
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            return hi, True
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi, False


_components = st.one_of(
    st.floats(0.0, 1.0).map(rb.Bernoulli),
    st.builds(lambda lo, width: rb.Uniform(lo, lo + width), st.floats(-3.0, 3.0), st.floats(0.01, 3.0)),
    st.builds(rb.Gaussian, st.floats(-3.0, 3.0), st.floats(0.05, 3.0)),
)
_images = st.one_of(
    _components,
    st.builds(
        rb.Affine,
        _components,
        st.sampled_from([-1.0, 1.0]).flatmap(lambda sign: st.floats(0.25, 4.0).map(lambda a: sign * a)),
        st.floats(-2.0, 2.0),
    ),
)
_mixtures = st.lists(st.tuples(st.floats(0.05, 1.0), _images), min_size=1, max_size=3).map(
    lambda parts: rb.Mixture(
        [w / math.fsum(w for w, _ in parts) for w, _ in parts], [c for _, c in parts]
    )
)


@st.composite
def _searched_dists(draw):
    """A mixture, or the law of its absolute deviation one or two levels deep,
    centred at an arbitrary point or at the base's median as the MAD is."""
    dist = draw(_mixtures)
    for _ in range(draw(st.integers(0, 2))):
        median = _bisection_oracle(dist, 0.5, False)[0]
        dist = _AbsDeviation(dist, draw(st.one_of(st.just(median), st.floats(-2.0, 2.0))))
    return dist


_levels = st.one_of(
    st.just(0.5),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.001, 1.0 / 15.0).map(lambda eps: (1.0 - 2.0 * eps) / (2.0 * (1.0 - eps))),
    st.floats(0.001, 1.0 / 15.0).map(lambda eps: 1.0 / (2.0 * (1.0 - eps))),
)


class TestQuantileSearch:
    @settings(max_examples=150, deadline=None)
    @given(dist=_searched_dists(), p=_levels)
    # ndtr dips by an ulp at 0.9231869695111343, so this cdf is not monotone in
    # floating point there; bisection settles on 0.9231869695111344, above the
    # first float where the level is reached, and the search must too
    @example(
        dist=rb.Mixture(
            [0.46096654275092935, 0.06319702602230483, 0.4758364312267658],
            [rb.Gaussian(0.0, 1.0), rb.Bernoulli(0.0), rb.Bernoulli(0.0)],
        ),
        p=0.91796875,
    )
    def test_matches_bisection_bitwise(self, dist, p):
        for strict, quantile in ((False, dist.quantile_left), (True, dist.quantile_right)):
            reached = (lambda x: dist.cdf(x) > p) if strict else (lambda x: dist.cdf(x) >= p)
            try:
                got = quantile(p)
            except rb.ParameterOutOfRangeError:
                # the level is never crossed in floating point, where
                # bisection's bracket search would expand forever
                assert not reached(math.inf) or reached(-math.inf)
                continue
            assert type(got) is float
            want, adjacent = _bisection_oracle(dist, p, strict)
            if adjacent:
                assert got == want, (dist, p, strict, got, want)
                continue
            # Excluded from the bitwise comparison: the 200-step cap stopped
            # bisection short of adjacency, which happens when the answer is
            # 0 (an atom there) or within ~2**-190 of it. Check instead that
            # the level is reached at got but not at the float below it, and
            # that got lies in bisection's last bracket.
            assert reached(got) and not reached(np.nextafter(got, -np.inf))
            assert got <= want

    def test_level_never_crossed_raises(self):
        # the weights sum to 1 - 2**-53 in floating point, so F stays below
        # that level everywhere and the bracket search used to run forever
        weights = [0.43085688411427203, 0.22054288235364464, 0.34860023353208325]
        dist = rb.Mixture(weights, [rb.Uniform(0.0, 1.0)] * 3)
        p = float(np.nextafter(1.0, 0.0))
        assert dist.cdf(math.inf) == p
        assert dist.quantile_left(p) == 1.0
        with pytest.raises(rb.ParameterOutOfRangeError, match="never crosses"):
            dist.quantile_right(p)
        with pytest.raises(rb.ParameterOutOfRangeError, match="never crosses"):
            _search_quantile(rb.Affine(dist, -1.0), 1e-17, strict=False)

    def test_lifted_arm_levels(self):
        eps = 0.05
        hidden = rb.oblivious_lifting([0.6, 0.4], eps).lifted_arms[0].dist
        dev = _AbsDeviation(hidden, hidden.quantile_left(0.5))
        for dist in (hidden, dev, _AbsDeviation(dev, dev.quantile_left(0.5))):
            for p in (0.5, (1.0 - 2.0 * eps) / (2.0 * (1.0 - eps)), 1.0 / (2.0 * (1.0 - eps))):
                for strict in (False, True):
                    want, adjacent = _bisection_oracle(dist, p, strict)
                    assert adjacent
                    assert _search_quantile(dist, p, strict) == want


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

    def test_gaussian_values_pinned(self):
        # bitwise values from when scipy was imported with the module
        m = rb.robust_moments(rb.Gaussian(0.0, 1.0))
        assert (m.median, m.mad, m.mad2) == (0.0, 0.6744897501960817, 0.3990915958297282)
        assert m.median_unique and m.mad_unique and m.mad2_unique

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

    @pytest.mark.parametrize("force_numeric", [False, True])
    @pytest.mark.parametrize(
        "dist",
        ALL_DISTS
        + [
            rb.Bernoulli(0.5),  # no unique median
            rb.Mixture([0.25, 0.5, 0.25], [rb.Dirac(0.0), rb.Dirac(1.0), rb.Dirac(2.0)]),  # no unique MAD
            rb.oblivious_lifting([0.6, 0.4], 0.05).lifted_arms[1].dist,
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_median_mad_is_robust_moments_bitwise(self, dist, force_numeric):
        """The median-and-MAD helper returns robust_moments' first two values and
        flags, bit for bit, on the closed-form and the numeric paths."""
        m = rb.robust_moments(dist, force_numeric)
        want = (m.median, m.mad, m.median_unique, m.mad_unique)
        assert np.array(_median_mad(dist, force_numeric), dtype=float).tobytes() == (
            np.array(want, dtype=float).tobytes()
        )

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

    def test_non_unique_second_order_mad_rejected(self):
        # symmetric: median 0 and MAD 1 are unique, but | |X| - 1 | has no
        # mass between 0.05 and 0.6, so its median is not
        parts = []
        for lo, hi in [(0.0, 0.4), (0.95, 1.0), (1.0, 1.05), (1.6, 2.0)]:
            parts += [rb.Uniform(lo, hi), rb.Uniform(-hi, -lo)]
        dist = rb.Mixture([1.0 / 8.0] * 8, parts)
        moments = rb.robust_moments(dist)
        assert moments.median_unique and moments.mad_unique and not moments.mad2_unique
        assert moments.median == pytest.approx(0.0, abs=1e-12)
        assert moments.mad == pytest.approx(1.0, abs=1e-12)
        params = rb.FamilyParams(t_bar=0.3, slope_bound=4.0, mad_bound=2.0, mad_ratio=2.0)
        with pytest.raises(rb.NonUniqueMADError):
            rb.in_mad_family(dist, params)

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


    @pytest.mark.parametrize("key", ["slope_bound", "mad_bound", "mad_ratio"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_family_params_reject_non_finite(self, key, value):
        kwargs = dict(t_bar=0.4, slope_bound=4.0, mad_bound=0.25, mad_ratio=2.0)
        rb.FamilyParams(**kwargs)
        with pytest.raises(rb.ParameterOutOfRangeError, match=f"{key} must be finite"):
            rb.FamilyParams(**{**kwargs, key: value})


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
