import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import robandit as rb

OBL = rb.AdversaryModel.OBLIVIOUS
MAL = rb.AdversaryModel.MALICIOUS

FAMILY = rb.FamilyParams(t_bar=0.4, slope_bound=4.0, mad_bound=0.25, mad_ratio=2.0)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9)


def params(eps0=0.1, model=OBL, family=FAMILY):
    return rb.EstimationParams(eps0=eps0, family=family, model=model)


class TestEmpiricalMedian:
    def test_odd(self):
        assert rb.empirical_median([3, 1, 2]) == 2.0

    def test_even_averages_middle_two(self):
        assert rb.empirical_median([1, 2, 3, 4]) == 2.5

    def test_singleton(self):
        assert rb.empirical_median([5]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(rb.EmptyInputError):
            rb.empirical_median([])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_matches_sort_oracle(self, xs):
        ys = sorted(xs)
        n = len(ys)
        expected = ys[n // 2] if n % 2 else (ys[n // 2 - 1] + ys[n // 2]) / 2
        assert rb.empirical_median(xs) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=30), st.integers(0, 1000))
    def test_permutation_invariance(self, xs, seed):
        shuffled = list(xs)
        np.random.default_rng(seed).shuffle(shuffled)
        assert rb.empirical_median(shuffled) == rb.empirical_median(xs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
        st.floats(min_value=0.01, max_value=50),
        st.floats(min_value=-50, max_value=50),
    )
    def test_affine_equivariance(self, xs, a, b):
        lhs = rb.empirical_median([a * x + b for x in xs])
        rhs = a * rb.empirical_median(xs) + b
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


class TestEmpiricalMad:
    def test_basic(self):
        assert rb.empirical_mad([1, 2, 3]) == 1.0

    def test_constant_array(self):
        assert rb.empirical_mad([4.0] * 7) == 0.0

    def test_outlier_resistant(self):
        # brute force: median 3, |dev| sorted = [0, 1, 1, 2, 97] -> middle 1
        assert rb.empirical_mad([1, 2, 3, 4, 100]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(rb.EmptyInputError):
            rb.empirical_mad([])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_matches_sort_oracle(self, xs):
        def oracle_median(vals):
            ys = sorted(vals)
            n = len(ys)
            return ys[n // 2] if n % 2 else (ys[n // 2 - 1] + ys[n // 2]) / 2

        expected = oracle_median([abs(x - oracle_median(xs)) for x in xs])
        assert rb.empirical_mad(xs) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
        st.floats(min_value=-50, max_value=50),
    )
    def test_shift_lipschitz(self, xs, c):
        lhs = rb.empirical_median([abs(x + c) for x in xs])
        rhs = rb.empirical_median([abs(x) for x in xs])
        assert abs(lhs - rhs) <= abs(c) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
        st.floats(min_value=0.01, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.booleans(),
    )
    def test_scale_equivariance(self, xs, a, b, flip):
        scale = -a if flip else a
        lhs = rb.empirical_mad([scale * x + b for x in xs])
        rhs = abs(scale) * rb.empirical_mad(xs)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=30), st.integers(0, 1000))
    def test_permutation_invariance(self, xs, seed):
        shuffled = list(xs)
        np.random.default_rng(seed).shuffle(shuffled)
        assert rb.empirical_mad(shuffled) == rb.empirical_mad(xs)


def _two_step_middle(a: np.ndarray) -> float:
    """The middle order statistic(s) of ``a`` from a partitioned copy."""
    mid = a.size // 2
    if a.size % 2:
        return float(np.partition(a, mid)[mid])
    part = np.partition(a, [mid - 1, mid])
    return float(0.5 * (part[mid - 1] + part[mid]))


# Batches with heavy ties among a few atoms (signed zeros, +-1e300 among
# them), or of any floats up to +-1e300.
_ATOMS = [0.0, -0.0, 1.0, -2.5, 1e300, -1e300]
_BATCHES = st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=300) | st.lists(
    st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=300
)


_TWO_ARMS = rb.BanditInstance(
    [rb.ContaminatedArm(rb.Uniform(0.0, 1.0), rb.FixedContamination(rb.Dirac(0.0)), 0.0, OBL)] * 2
)


class TestOneCopySelection:
    @settings(max_examples=300, deadline=None)
    @given(values=_BATCHES, form=st.sampled_from(["ndarray", "list", "strided view"]))
    @example(values=[-0.0, 0.0], form="ndarray")
    @example(values=[1e300, -1e300, 0.0, -0.0], form="strided view")
    def test_median_and_mad_match_two_step_selection_bitwise(self, values, form):
        """From one private copy, partitioned, overwritten with |x - median|
        and partitioned again: bitwise the median and MAD of separate
        partitioned copies, the caller's input left as it was."""
        x = np.array(values)
        med = _two_step_middle(x)
        want = (med.hex(), _two_step_middle(np.abs(x - med)).hex())
        backing = np.zeros(2 * x.size)
        backing[1::2] = x
        xs = {"ndarray": x.copy(), "list": list(values), "strided view": backing[1::2]}[form]
        assert (rb.empirical_median(xs).hex(), rb.empirical_mad(xs).hex()) == want
        # every arm's draws are xs
        with mock.patch("robandit.bandit.draw_sample", lambda arm, n, rng: xs):
            outcome = rb.run_simple(
                _TWO_ARMS, rb.AlgoConfig(0.2, 0.1, FAMILY, 0.0), np.random.default_rng(0)
            )
        assert [(m.hex(), d.hex()) for m, d in zip(outcome.medians, outcome.mads)] == [want] * 2
        if form == "list":
            assert xs == values
        else:
            assert xs.tobytes() == x.tobytes()
            assert backing[::2].tobytes() == bytes(8 * x.size)


class TestSampleSizes:
    def test_median_oblivious(self):
        assert rb.sample_size_median(0.1, 0.05, params(eps0=0.1)) == 738

    def test_median_malicious(self):
        assert rb.sample_size_median(0.1, 0.05, params(eps0=0.1, model=MAL)) == 819

    def test_median_infeasible_at_boundary(self):
        with pytest.raises(rb.InfeasibleRegimeError):
            rb.sample_size_median(0.1, 0.05, params(eps0=0.4, model=MAL))

    def test_mad_oblivious(self):
        # 2 * max(16 k^2 B^2 m2^2 / E^2, margin^-2) * log(4/delta), ceiled
        expected = math.ceil(2 * 1600 * math.log(80))
        assert rb.sample_size_mad(0.2, 0.05, params(eps0=0.05)) == expected == 14023

    def test_mad_infeasible(self):
        with pytest.raises(rb.InfeasibleRegimeError):
            rb.sample_size_mad(0.2, 0.05, params(eps0=0.26, model=MAL))

    def test_mad_zero_ratio_keeps_margin_branch(self):
        family = rb.FamilyParams(t_bar=0.4, slope_bound=4.0, mad_bound=0.25, mad_ratio=0.0)
        p = params(eps0=0.05, family=family)
        expected = math.ceil(2 * p.mad_margin() ** -2 * math.log(4 / 0.05))
        assert rb.sample_size_mad(0.2, 0.05, p) == expected

    def test_rejects_bad_levels(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.sample_size_median(0.0, 0.05, params())
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.sample_size_median(0.1, 1.5, params())


class TestMedianCi:
    def test_zero_contamination_interval(self):
        p = params(eps0=0.0)
        xs = rb.Uniform(0, 1).sample(2000, np.random.default_rng(0))
        report = rb.estimate_median_ci(xs, 0.05, p, mad_used=0.25)
        assert report.bias == 0.0
        expected_half = 4.0 * 0.25 * math.sqrt(2 * math.log(2 / 0.05) / 2000)
        assert report.half_width == pytest.approx(expected_half, rel=1e-12)
        radius = report.bias + report.half_width
        lo, hi = report.estimate - radius, report.estimate + radius
        assert hi - lo == pytest.approx(2 * expected_half, rel=1e-12)

    def test_floor_enforced(self):
        p = params(eps0=0.1)
        floor = 2 * p.median_margin() ** -2 * math.log(2 / 0.05)
        n = int(floor)  # one below the ceiling
        with pytest.raises(rb.TooFewSamplesError):
            rb.estimate_median_ci(np.zeros(n), 0.05, p, mad_used=0.25)
        rb.estimate_median_ci(np.zeros(n + 1), 0.05, p, mad_used=0.25)

    def test_malicious_uses_wider_logs(self):
        xs = np.linspace(0, 1, 500)
        rep_obl = rb.estimate_median_ci(xs, 0.05, params(eps0=0.1), mad_used=0.25)
        rep_mal = rb.estimate_median_ci(xs, 0.05, params(eps0=0.1, model=MAL), mad_used=0.25)
        assert rep_mal.half_width > rep_obl.half_width
        assert rep_mal.bias > rep_obl.bias

    def test_coverage_monte_carlo_quick(self):
        eps = 0.1
        delta = 0.1
        p = params(eps0=eps)
        n = rb.sample_size_median(0.05, delta, p)
        arm = rb.ContaminatedArm(rb.Uniform(0, 1), rb.UniformTailShift(1), eps, OBL)
        rng = np.random.default_rng(42)
        failures = 0
        reps = 200
        for _ in range(reps):
            report = rb.estimate_median_ci(rb.draw_batch(arm, n, rng), delta, p, mad_used=0.25)
            radius = report.bias + report.half_width
            failures += not (report.estimate - radius <= 0.5 <= report.estimate + radius)
        assert failures / reps <= delta + 3 * math.sqrt(delta * (1 - delta) / reps)

    def test_prescient_strategy_coverage_quick(self):
        eps = 0.1
        delta = 0.1
        p = rb.EstimationParams(eps0=eps, family=FAMILY, model=rb.AdversaryModel.PRESCIENT)
        n = rb.sample_size_median(0.05, delta, p)
        arm = rb.ContaminatedArm(
            rb.Uniform(0, 1), rb.EmpiricalQuantileShift(0.95), eps, rb.AdversaryModel.PRESCIENT
        )
        rng = np.random.default_rng(43)
        failures = 0
        reps = 200
        for _ in range(reps):
            report = rb.estimate_median_ci(rb.draw_batch(arm, n, rng), delta, p, mad_used=0.25)
            radius = report.bias + report.half_width
            failures += not (report.estimate - radius <= 0.5 <= report.estimate + radius)
        assert failures / reps <= delta + 3 * math.sqrt(delta * (1 - delta) / reps)


class TestMadCi:
    def test_zero_contamination_interval(self):
        p = params(eps0=0.0)
        xs = rb.Uniform(0, 1).sample(2000, np.random.default_rng(1))
        report = rb.estimate_mad_ci(xs, 0.05, p, mad_used=0.25)
        assert report.bias == 0.0
        expected_half = 4 * 2.0 * 4.0 * 0.25 * math.sqrt(2 * math.log(4 / 0.05) / 2000)
        assert report.half_width == pytest.approx(expected_half, rel=1e-12)

    def test_bias_inflated_by_ratio(self):
        xs = np.linspace(0, 1, 5000)
        report = rb.estimate_mad_ci(xs, 0.05, params(eps0=0.1), mad_used=0.25)
        base = rb.contamination_bias(0.1, 4.0, 0.25, OBL)
        assert report.bias == pytest.approx((1 + 2 * 2.0) * base, rel=1e-12)

    def test_floor_enforced(self):
        p = params(eps0=0.1)
        with pytest.raises(rb.TooFewSamplesError):
            rb.estimate_mad_ci(np.zeros(50), 0.05, p, mad_used=0.25)

    def test_coverage_monte_carlo_quick(self):
        eps = 0.05
        delta = 0.1
        p = params(eps0=eps)
        arm = rb.ContaminatedArm(
            rb.Uniform(0, 1), rb.FixedContamination(rb.Dirac(1e6)), eps, OBL
        )
        n = 20_000
        rng = np.random.default_rng(44)
        failures = 0
        reps = 150
        for _ in range(reps):
            report = rb.estimate_mad_ci(rb.draw_batch(arm, n, rng), delta, p, mad_used=0.25)
            radius = report.bias + report.half_width
            failures += not (report.estimate - radius <= 0.25 <= report.estimate + radius)
        assert failures / reps <= delta + 3 * math.sqrt(delta * (1 - delta) / reps)


class TestReportShape:
    def test_fields(self):
        xs = np.linspace(0, 1, 1000)
        report = rb.estimate_median_ci(xs, 0.05, params(eps0=0.1), mad_used=0.25)
        assert report.statistic == "median"
        assert report.n == 1000
        assert report.model is OBL


# Reference: the closed-form median and MAD bounds as each was written out on
# its own before the shared per-statistic bound. The public functions must
# match these bitwise.
AdversaryModel = rb.AdversaryModel
ParameterOutOfRangeError = rb.ParameterOutOfRangeError
TooFewSamplesError = rb.TooFewSamplesError
contamination_bias = rb.contamination_bias
empirical_median = rb.empirical_median
empirical_mad = rb.empirical_mad


def _check_level_args(error_level: float, delta: float) -> None:
    if not error_level > 0:
        raise ParameterOutOfRangeError(f"error level must be positive, got {error_level}")
    if not 0.0 < delta < 1.0:
        raise ParameterOutOfRangeError(f"delta must lie in (0, 1), got {delta}")


# Values an arm may draw: 1 GiB of float64.
MAX_DRAWS = 2**27


def _capped_count(error_level, spread, floor, log_term):
    """ceil(2 max(spread, floor) log_term), unless that passes the cap: then
    the error_level's fault if the spread term is the larger, else the margin's."""
    n = 2.0 * max(spread, floor) * log_term
    if n <= MAX_DRAWS:
        return math.ceil(n)
    tail = f"asks for more samples per arm than the {MAX_DRAWS} an arm may draw ({n:.4g})"
    if spread > floor:
        raise ParameterOutOfRangeError(f"error level {error_level} {tail}", "error_level")
    raise rb.InfeasibleRegimeError(f"the quantile margin {tail}")


def reference_sample_size_median(error_level, delta, params):
    _check_level_args(error_level, delta)
    margin = params.median_margin()
    scale = params.family.slope_bound * params.family.mad_bound
    numerator = 3.0 if params.model is AdversaryModel.MALICIOUS else 2.0
    return _capped_count(
        error_level, (scale / error_level) ** 2, margin**-2, math.log(numerator / delta)
    )


def reference_sample_size_mad(error_level, delta, params):
    _check_level_args(error_level, delta)
    margin = params.mad_margin()
    ratio = params.family.mad_ratio
    scale = 4.0 * ratio * params.family.slope_bound * params.family.mad_bound
    numerator = 6.0 if params.model is AdversaryModel.MALICIOUS else 4.0
    return _capped_count(
        error_level, (scale / error_level) ** 2, margin**-2, math.log(numerator / delta)
    )


def reference_estimate_median_ci(xs, delta, params, mad_used):
    if not 0.0 < delta < 1.0:
        raise ParameterOutOfRangeError(f"delta must lie in (0, 1), got {delta}")
    a = np.asarray(xs, dtype=float)
    n = a.size
    margin = params.median_margin()
    numerator = 3.0 if params.model is AdversaryModel.MALICIOUS else 2.0
    log_term = math.log(numerator / delta)
    floor = 2.0 * margin**-2 * log_term
    if n < floor:
        raise TooFewSamplesError(f"need at least {math.ceil(floor)} samples, got {n}")
    bias = contamination_bias(params.eps0, params.family.slope_bound, mad_used, params.model)
    half_width = params.family.slope_bound * mad_used * math.sqrt(2.0 * log_term / n)
    return rb.RobustEstimateReport(
        statistic="median",
        estimate=empirical_median(a),
        bias=bias,
        half_width=half_width,
        n=int(n),
        model=params.model,
    )


def reference_estimate_mad_ci(xs, delta, params, mad_used):
    if not 0.0 < delta < 1.0:
        raise ParameterOutOfRangeError(f"delta must lie in (0, 1), got {delta}")
    a = np.asarray(xs, dtype=float)
    n = a.size
    margin = params.mad_margin()
    ratio = params.family.mad_ratio
    numerator = 6.0 if params.model is AdversaryModel.MALICIOUS else 4.0
    log_term = math.log(numerator / delta)
    floor = 2.0 * margin**-2 * log_term
    if n < floor:
        raise TooFewSamplesError(f"need at least {math.ceil(floor)} samples, got {n}")
    bias = (1.0 + 2.0 * ratio) * contamination_bias(
        params.eps0, params.family.slope_bound, mad_used, params.model
    )
    half_width = (
        4.0 * ratio * params.family.slope_bound * mad_used * math.sqrt(2.0 * log_term / n)
    )
    return rb.RobustEstimateReport(
        statistic="mad",
        estimate=empirical_mad(a),
        bias=bias,
        half_width=half_width,
        n=int(n),
        model=params.model,
    )


def _outcome(fn, *args):
    """A call's result, with floats as hex so equality is bitwise, or its error."""
    try:
        result = fn(*args)
    except rb.RobanditError as exc:
        return type(exc), str(exc)
    if isinstance(result, rb.RobustEstimateReport):
        floats = (result.estimate, result.bias, result.half_width)
        return result.statistic, tuple(x.hex() for x in floats), result.n, result.model
    return result


positive = st.floats(min_value=1e-3, max_value=1e3)
bound_params = st.builds(
    rb.EstimationParams,
    eps0=st.floats(min_value=0.0, max_value=0.49),
    family=st.builds(
        rb.FamilyParams,
        t_bar=st.floats(min_value=1e-3, max_value=0.499),
        slope_bound=positive,
        mad_bound=positive,
        mad_ratio=st.floats(min_value=0.0, max_value=1e3),
    ),
    model=st.sampled_from(list(rb.AdversaryModel)),
)
deltas = st.floats(min_value=1e-6, max_value=1.0, exclude_max=True, exclude_min=True)


class TestSharedBoundMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(params=bound_params, error_level=positive, delta=deltas)
    @example(params=params(eps0=0.26, model=MAL), error_level=0.2, delta=0.05)  # MAD infeasible
    def test_sample_sizes(self, params, error_level, delta):
        for public, reference in [
            (rb.sample_size_median, reference_sample_size_median),
            (rb.sample_size_mad, reference_sample_size_mad),
        ]:
            want = _outcome(reference, error_level, delta, params)
            assert _outcome(public, error_level, delta, params) == want

    @settings(max_examples=400, deadline=None)
    @given(
        params=bound_params,
        delta=deltas,
        n=st.integers(min_value=1, max_value=3000),
        mad_used=positive,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # a report from each statistic; below the sample floor; the MAD margin infeasible
    @example(params=params(), delta=0.05, n=3000, mad_used=0.25, seed=1)
    @example(params=params(), delta=0.05, n=50, mad_used=0.25, seed=1)
    @example(params=params(eps0=0.26, model=MAL), delta=0.05, n=3000, mad_used=0.25, seed=1)
    def test_confidence_intervals(self, params, delta, n, mad_used, seed):
        xs = np.random.default_rng(seed).standard_cauchy(n)
        for public, reference in [
            (rb.estimate_median_ci, reference_estimate_median_ci),
            (rb.estimate_mad_ci, reference_estimate_mad_ci),
        ]:
            want = _outcome(reference, xs, delta, params, mad_used)
            assert _outcome(public, xs, delta, params, mad_used) == want
