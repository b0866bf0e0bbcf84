import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import robandit as rb
from robandit.contamination import _fixed_component, _flag_rate, draw_clean, segment_quantiles
from robandit.harness import replication_rng

from goodness_of_fit import ks_distance

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

    def test_batch_aware_has_no_observable_cdf(self):
        with pytest.raises(rb.IncompatibleStrategyError):
            rb.contaminated_cdf(make_arm(rb.EmpiricalQuantileShift(0.9), model=PRE), 0.5)

    def test_tail_shift_needs_uniform_base(self):
        with pytest.raises(rb.IncompatibleStrategyError):
            make_arm(rb.UniformTailShift(1), dist=rb.Gaussian(0, 1))

    def test_eps_range(self):
        with pytest.raises(rb.ParameterOutOfRangeError) as err:
            make_arm(rb.ShiftMedianUp(), eps=0.5)
        assert err.value.key == "eps"

    @pytest.mark.parametrize("coupling", [rb.BelowMedianCoupling, rb.AtomTriggeredCoupling])
    @pytest.mark.parametrize("flip_prob", [-0.1, 1.0000000000000002, 7.0, math.nan, math.inf])
    def test_flip_prob_outside_unit_interval_rejected(self, coupling, flip_prob):
        with pytest.raises(rb.ParameterOutOfRangeError, match=r"flip_prob must lie in \[0, 1\]") as err:
            coupling(0.5, flip_prob, 1.0)
        assert err.value.key == "flip_prob"
        coupling(0.5, 1.0, 1.0)
        coupling(0.5, 0.0, 1.0)

    @pytest.mark.parametrize(
        "strategy, dist, eps",
        [
            (rb.BelowMedianCoupling(0.5, 0.9, 5.0), rb.Uniform(0.0, 1.0), 0.0),
            (rb.BelowMedianCoupling(0.5, 0.2, 0.7), rb.Uniform(0.0, 1.0), 0.099),
            (rb.AtomTriggeredCoupling(1.0, 0.3, 0.0), rb.Bernoulli(0.5), 0.1),
        ],
        ids=["45-percent-at-eps-0", "below-median", "atom"],
    )
    def test_coupling_that_flags_more_than_eps_rejected(self, strategy, dist, eps):
        """A coupled arm's flag rate, flip_prob F(threshold) or flip_prob
        P(Y = trigger), may not exceed its eps."""
        with pytest.raises(rb.ParameterOutOfRangeError, match="of the pulls, above eps"):
            make_arm(strategy, eps=eps, model=MAL, dist=dist)

    @pytest.mark.parametrize(
        "strategy, model, match",
        [
            (rb.ShiftMedianUp(math.inf), OBL, "ShiftMedianUp's contamination law: dirac draws must stay finite"),
            (rb.BelowMedianCoupling(0.5, 0.2, math.nan), MAL, "BelowMedianCoupling's contamination law: dirac"),
            # a NaN threshold flags no pull, at a flag rate of NaN
            (rb.BelowMedianCoupling(math.nan, 0.2, 0.7), MAL, "BelowMedianCoupling flags nan of the pulls"),
        ],
        ids=["shift-to-inf", "coupling-to-nan", "nan-threshold"],
    )
    def test_contamination_law_no_pull_could_draw_rejected(self, strategy, model, match):
        """Rejected when the arm is built, not at its first draw."""
        with pytest.raises(rb.ParameterOutOfRangeError, match=match):
            make_arm(strategy, eps=0.1, model=model)

    @pytest.mark.parametrize("eps", [1e-6, 0.01, 0.1, 0.3, 0.49])
    @pytest.mark.parametrize("dist", [rb.Uniform(-1.0, 1.0), rb.Gaussian(0.3, 2.0), rb.Cauchy(1.0, 0.5)])
    def test_couplings_at_their_eps_build(self, dist, eps):
        """The worst-case attack and both liftings flag exactly an eps share."""
        arm = rb.malicious_median_attack(dist, eps)
        assert _flag_rate(arm) == pytest.approx(eps, rel=1e-8)
        if eps < 1 / 15:
            for lifting in (rb.oblivious_lifting, rb.malicious_lifting):
                lifting([0.6, 0.4, 0.5], eps)


class TestDrawBatch:
    def test_zero_eps_is_bitwise_clean(self):
        arm = make_arm(rb.ShiftMedianUp(1e6), eps=0.0)
        xs = rb.draw_batch(arm, 1000, np.random.default_rng(7))
        ys = arm.dist.sample(1000, np.random.default_rng(7))
        assert np.array_equal(xs, ys)

    def test_zero_eps_any_strategy(self):
        # the tail shift's law is undefined at eps = 0; no flag, so none is built
        strategies = (rb.FixedContamination(rb.Dirac(9.0)), rb.UniformTailShift(1), rb.UniformTailShift(-1))
        for strategy in strategies:
            arm = make_arm(strategy, eps=0.0)
            for debug in (False, True):
                rng = np.random.default_rng(8)
                out = rb.draw_batch(arm, 500, rng, debug)
                ref = np.random.default_rng(8)
                ys = arm.dist.sample(500, ref)
                ref.random(500)
                xs = out.x if debug else out
                assert xs.tobytes() == ys.tobytes()
                assert rng.bit_generator.state == ref.bit_generator.state

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


def _stream_digest(arm, debug=False):
    """sha256 of draw_batch's values for n = 1, 2, 7, 64, 4096 in turn on one
    generator, and of the state they leave it in."""
    rng = np.random.default_rng(20261019)
    h = hashlib.sha256()
    for n in (1, 2, 7, 64, 4096):
        out = rb.draw_batch(arm, n, rng, debug)
        h.update((out.x if debug else out).tobytes())
    h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


# Arms whose contamination draws nothing from the generator, with their
# _stream_digest as recorded when draw_batch still drew a contamination value
# for every pull: sampling the law only at flagged pulls leaves these streams
# alone.
_PINNED = {
    "dirac": (
        make_arm(rb.FixedContamination(rb.Dirac(2.5)), eps=0.2, dist=rb.Gaussian(0.0, 1.0)),
        "ba36182b70b8c7461f3c46fa87d6052e4ae6a57647f3471433a3e75c2fc4c86a",
    ),
    "shift-up": (
        make_arm(rb.ShiftMedianUp()),
        "8cd04b0665b967c4e236e1e3e31ab752e756e6e45cddb26795c5c7004f486340",
    ),
    "shift-down": (
        make_arm(rb.ShiftMedianDown(3.0), eps=0.3, model=PRE, dist=rb.Cauchy(0.0, 1.0)),
        "077c6ffd2a5e7652346fc84e40e860145dd2da5626bfa2b39663aebacfd8fabf",
    ),
    "below-median": (
        rb.malicious_median_attack(rb.Uniform(0.0, 1.0), 0.2),
        "6a64b35b495c39bb80e3a17a8005131286c2e6022702f61ac1f37281dc07dde5",
    ),
    "atom": (
        make_arm(rb.AtomTriggeredCoupling(1.0, 0.3, 0.0), eps=0.15, model=MAL, dist=rb.Bernoulli(0.5)),
        "5044ff97095f7ac6d389d767dd2b7c6f37a33d98e05b3f8354eb03b7f0ae2820",
    ),
    "quantile": (
        make_arm(rb.EmpiricalQuantileShift(0.9), model=PRE),
        "84d1bac35c85954f8b2a51a452291182da1300db3153a7aac0b36ad844909a5d",
    ),
}

# Arms with a random contamination law, and that law.
_RANDOM_LAW = {
    "cauchy": (
        make_arm(rb.FixedContamination(rb.Cauchy(5.0, 2.0)), eps=0.05, dist=rb.Gaussian(0.0, 1.0)),
        rb.Cauchy(5.0, 2.0),
    ),
    "gaussian": (
        make_arm(rb.FixedContamination(rb.Gaussian(3.0, 0.5)), eps=0.2),
        rb.Gaussian(3.0, 0.5),
    ),
    "mixture": (
        make_arm(
            rb.FixedContamination(rb.Mixture([0.3, 0.7], [rb.Dirac(-2.0), rb.Uniform(2.0, 3.0)])),
            eps=0.3,
            dist=rb.Cauchy(0.0, 1.0),
        ),
        rb.Mixture([0.3, 0.7], [rb.Dirac(-2.0), rb.Uniform(2.0, 3.0)]),
    ),
    "tail-up": (make_arm(rb.UniformTailShift(1)), rb.Uniform(1.0, 1.0 / 0.9)),
    "tail-down": (
        make_arm(rb.UniformTailShift(-1), eps=0.4, dist=rb.Uniform(2.0, 5.0)),
        rb.Uniform(0.0, 2.0),
    ),
}


def _ks_to_contaminated_cdf(arm, xs):
    """sup |empirical cdf - contaminated_cdf|, tie-aware: the left limit is
    the cdf at the float below each value."""
    uniq, counts = np.unique(xs, return_counts=True)
    hi = np.cumsum(counts) / xs.size
    lo = hi - counts / xs.size
    f = rb.contaminated_cdf(arm, uniq)
    f_left = rb.contaminated_cdf(arm, np.nextafter(uniq, -np.inf))
    return max(np.max(np.abs(f - hi)), np.max(np.abs(f_left - lo)))


class TestContaminationDraws:
    """A fixed contamination law is sampled only at the flagged pulls."""

    @pytest.mark.parametrize("debug", [False, True])
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_streams_without_random_draws_are_pinned(self, name, debug):
        arm, digest = _PINNED[name]
        assert _stream_digest(arm, debug) == digest

    @pytest.mark.parametrize("name", sorted(_RANDOM_LAW))
    def test_flagged_pulls_are_the_law_drawn_in_order(self, name):
        arm, law = _RANDOM_LAW[name]
        rng = np.random.default_rng(21)
        xs = rb.draw_batch(arm, 5000, rng)
        twin = np.random.default_rng(21)
        y, d = draw_clean(arm, 5000, twin)
        z = law.sample(int(d.sum()), twin)
        assert 0 < z.size < 5000
        assert xs[~d].tobytes() == y[~d].tobytes()
        assert xs[d].tobytes() == z.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("name", sorted(_RANDOM_LAW))
    def test_values_follow_the_contaminated_cdf(self, name):
        arm, _ = _RANDOM_LAW[name]
        n = 100_000
        xs = rb.draw_batch(arm, n, np.random.default_rng(22))
        assert _ks_to_contaminated_cdf(arm, xs) <= math.sqrt(math.log(2 / 1e-4) / (2 * n))

    @pytest.mark.parametrize("name", sorted(_PINNED) + sorted(_RANDOM_LAW))
    def test_debug_mode_draws_the_same(self, name):
        arm = {**_PINNED, **_RANDOM_LAW}[name][0]
        for n in (1, 3, 4096):
            rng = np.random.default_rng(23)
            xs = rb.draw_batch(arm, n, rng)
            debug_rng = np.random.default_rng(23)
            batch = rb.draw_batch(arm, n, debug_rng, debug=True)
            assert batch.x.tobytes() == xs.tobytes()
            assert rng.bit_generator.state == debug_rng.bit_generator.state
            assert np.array_equal(batch.x, np.where(batch.d, batch.z, batch.y))
            if name in _RANDOM_LAW:
                assert np.all(np.isnan(batch.z[~batch.d]))


def _full_where_draw(arm, n, rng):
    """Plain ``draw_batch`` for a fixed law as it was before it wrote the law's
    values over the clean batch: a NaN-filled ``z`` and one ``np.where``."""
    y, d = draw_clean(arm, n, rng)
    z = np.full(n, np.nan)
    s = int(np.count_nonzero(d))
    if s:
        z[d] = _fixed_component(arm).sample(s, rng)
    return np.where(d, z, y)


_FIXED_LAW = {name: arm for name, (arm, _) in {**_PINNED, **_RANDOM_LAW}.items() if name != "quantile"}


class TestPlainDrawBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(_FIXED_LAW)),
        st.one_of(st.integers(1, 8), st.integers(1, 5000)),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_full_where_path(self, name, n, seed):
        """Every fixed-law strategy draws the values and leaves the generator
        state of the ``full``/``where`` path."""
        arm = _FIXED_LAW[name]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        xs = rb.draw_batch(arm, n, rng)
        want = _full_where_draw(arm, n, ref)
        assert xs.dtype == want.dtype == np.float64
        assert xs.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


_ALL_ARMS = {name: arm for name, (arm, _) in {**_PINNED, **_RANDOM_LAW}.items()}
_COUPLED_ARMS = ("below-median", "atom")


class TestDrawSample:
    """``draw_sample``: the contaminated count, then n - s clean values and s
    law values (or n clean values with the last s replaced by the quantile
    pick), with the multiset's law of ``draw_batch``."""

    @pytest.mark.parametrize("name", sorted(set(_ALL_ARMS) - set(_COUPLED_ARMS)))
    def test_zero_eps_is_the_clean_sample(self, name):
        arm = dataclasses.replace(_ALL_ARMS[name], eps=0.0)
        for n in (1, 7, 4096):
            rng, ref = np.random.default_rng(30), np.random.default_rng(30)
            assert rb.draw_sample(arm, n, rng).tobytes() == arm.dist.sample(n, ref).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("name", _COUPLED_ARMS)
    def test_coupled_arms_draw_the_batch(self, name):
        arm = _ALL_ARMS[name]
        for n in (1, 3, 4096):
            rng, twin = np.random.default_rng(31), np.random.default_rng(31)
            assert rb.draw_sample(arm, n, rng).tobytes() == rb.draw_batch(arm, n, twin).tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(_FIXED_LAW.keys() - set(_COUPLED_ARMS))),
        st.one_of(st.integers(1, 8), st.integers(1, 5000)),
        st.integers(0, 2**32 - 1),
    )
    def test_fixed_law_draws_count_then_clean_then_law(self, name, n, seed):
        arm = _FIXED_LAW[name]
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        xs = rb.draw_sample(arm, n, rng)
        s = int(twin.binomial(n, arm.eps))
        y = arm.dist.sample(n - s, twin)
        z = _fixed_component(arm).sample(s, twin) if s else np.empty(0)
        assert xs.dtype == np.float64
        assert xs.tobytes() == np.concatenate((y, z)).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.one_of(st.integers(1, 8), st.integers(1, 5000)),
        st.integers(0, 2**32 - 1),
    )
    def test_quantile_shift_overwrites_the_last_s_clean_values(self, q, n, seed):
        arm = make_arm(rb.EmpiricalQuantileShift(q), eps=0.3, model=PRE, dist=rb.Gaussian(0.0, 1.0))
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        xs = rb.draw_sample(arm, n, rng)
        s = int(twin.binomial(n, arm.eps))
        want = arm.dist.sample(n, twin)
        want[n - s :] = np.quantile(want, q, method="inverted_cdf")
        assert xs.tobytes() == want.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("eps, n", [(0.1, 50), (0.3, 7)])
    def test_contaminated_count_is_binomial(self, eps, n):
        """The count of remote points over 20,000 batches: its mean and its
        variance lie within five standard errors of n eps and n eps (1 - eps),
        the errors from the binomial's second and fourth central moments."""
        arm = make_arm(rb.ShiftMedianUp(1e6), eps=eps)
        rng = np.random.default_rng(32)
        batches = 20_000
        counts = np.array([np.count_nonzero(rb.draw_sample(arm, n, rng) == 1e6) for _ in range(batches)])
        mean, var = n * eps, n * eps * (1 - eps)
        fourth = var * (1 + 3 * (n - 2) * eps * (1 - eps))
        assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / batches)
        assert abs(counts.var(ddof=1) - var) <= 5 * math.sqrt((fourth - var**2) / batches)

    @pytest.mark.parametrize("name", ["cauchy", "tail-up", "quantile"])
    def test_batch_medians_and_mads_follow_draw_batch(self, name):
        """Medians and MADs of 2,000 batches of 101 values from each sampler,
        on separate seeds, pass a two-sample KS test at level 0.001."""
        arm = _ALL_ARMS[name]
        stats = []
        for draw, seed in ((rb.draw_sample, 33), (rb.draw_batch, 34)):
            rng = np.random.default_rng(seed)
            batches = [draw(arm, 101, rng) for _ in range(2000)]
            stats.append(([rb.empirical_median(b) for b in batches], [rb.empirical_mad(b) for b in batches]))
        (sample_medians, sample_mads), (batch_medians, batch_mads) = stats
        assert scipy.stats.ks_2samp(sample_medians, batch_medians).pvalue > 1e-3
        assert scipy.stats.ks_2samp(sample_mads, batch_mads).pvalue > 1e-3

    def test_batch_size_validation(self):
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.draw_sample(make_arm(rb.ShiftMedianUp()), 0, np.random.default_rng(0))


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


def _lexsort_pick(y, sizes, q):
    """The reference pick: one stable two-key ``lexsort`` by (batch, value),
    then each batch's ceil(nq)-th value, repeated n times."""
    sizes = np.asarray(sizes, dtype=np.int64)
    start = np.cumsum(sizes) - sizes
    rank = np.minimum(np.maximum(np.ceil(sizes * q).astype(np.int64) - 1, 0), sizes - 1)
    order = np.lexsort((y, np.repeat(np.arange(sizes.size), sizes)))
    return np.repeat(y[order[start + rank]], sizes)


@st.composite
def _segments(draw):
    """Consecutive batches: runs of equal sizes, single pulls, and at times
    one batch of 4,096 values or more; the values continuous, or tied on
    signed zeros or on Dirac atoms; the level near 0 or 1, at an integral
    n * q, or anywhere in (0, 1)."""
    runs = draw(
        st.lists(
            st.tuples(st.one_of(st.just(1), st.integers(1, 12)), st.integers(1, 40)),
            min_size=1,
            max_size=6,
        )
    )
    sizes = [n for n, count in runs for _ in range(count)]
    if draw(st.booleans()):
        sizes.insert(draw(st.integers(0, len(sizes))), draw(st.integers(4096, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["continuous", "signed zeros", "atoms"]))
    if kind == "continuous":
        y = rng.normal(size=sum(sizes))
    elif kind == "signed zeros":
        y = rng.choice(np.array([-0.0, 0.0, 1.0]), sum(sizes))
    else:
        y = rng.integers(0, 4, sum(sizes)).astype(float)
    n = draw(st.sampled_from(sizes))
    levels = [
        st.sampled_from([1e-12, 1e-3, 0.1, 0.9, 1 - 1e-3, 1 - 1e-12]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    ]
    if n > 1:
        levels.append(st.integers(min_value=1, max_value=n - 1).map(lambda j: j / n))
    return y, sizes, draw(st.one_of(levels))


class TestSegmentQuantiles:
    """``segment_quantiles`` picks what a stable sort of each batch alone
    picks, ties included, bitwise."""

    @settings(max_examples=200, deadline=None)
    @given(case=_segments())
    def test_matches_the_lexsort_pick(self, case):
        y, sizes, q = case
        got = segment_quantiles(y, sizes, q)
        assert got.tobytes() == _lexsort_pick(y, sizes, q).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(case=_segments(), data=st.data())
    def test_empty_batches_add_nothing(self, case, data):
        y, sizes, q = case
        with_empty = list(sizes)
        for _ in range(data.draw(st.integers(1, 4))):
            with_empty.insert(data.draw(st.integers(0, len(with_empty))), 0)
        got = segment_quantiles(y, with_empty, q)
        assert got.tobytes() == _lexsort_pick(y, sizes, q).tobytes()

    @pytest.mark.parametrize("q", [0.1, 0.9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_pull_rounds_at_race_scale(self, q, seed):
        """A race's rounds shrink to two pulls, picked by one comparison:
        2,048 and more two-value batches, tied on signed zeros, after the
        longer batches of a race's first rounds."""
        rng = np.random.default_rng(seed)
        sizes = [5, 4, 4, 3, 3, 3] + [2] * int(rng.integers(2048, 3072))
        y = rng.choice(np.array([-0.0, 0.0, 1.0]), sum(sizes))
        got = segment_quantiles(y, sizes, q)
        assert got.tobytes() == _lexsort_pick(y, sizes, q).tobytes()

    @pytest.mark.parametrize("sizes", [[], [0], [0, 0, 0]])
    def test_no_values(self, sizes):
        got = segment_quantiles(np.empty(0), sizes, 0.9)
        assert got.dtype == np.float64 and got.size == 0


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


class TestDebugMarginals:
    """Each adversary's debug batch has the flag marginal and the clean law it
    states: flag frequency within the Hoeffding band of eps, clean values within
    twice that band of the arm's law in KS distance."""

    N = 100_000
    DELTA = 0.01

    def assert_marginals(self, arm, seed):
        band = math.sqrt(math.log(2.0 / self.DELTA) / (2.0 * self.N))
        batch = rb.draw_batch(arm, self.N, np.random.default_rng(seed), debug=True)
        assert abs(batch.d.mean() - arm.eps) <= band
        assert ks_distance(batch.y, arm.dist) <= 2.0 * band
        return batch

    def test_oblivious_fixed(self):
        self.assert_marginals(make_arm(rb.FixedContamination(rb.Dirac(0.0)), eps=0.2), 17)

    def test_malicious_coupling(self):
        self.assert_marginals(rb.malicious_median_attack(rb.Uniform(-1.0, 1.0), 0.1), 18)

    def test_zero_eps_flags_nothing(self):
        batch = self.assert_marginals(make_arm(rb.ShiftMedianUp(), eps=0.0), 19)
        assert not batch.d.any()

    @pytest.mark.parametrize("debug", [False, True])
    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_empty_batch(self, n, debug):
        arm = make_arm(rb.ShiftMedianUp(), eps=0.0)
        with pytest.raises(rb.ParameterOutOfRangeError):
            rb.draw_batch(arm, n, np.random.default_rng(20), debug)


class TestReplicationStream:
    """The generators every run draws from (``replication_rng``, and for a
    race each arm's spawned child) give each arm its laws: in a debug batch the
    flag frequency lies within the Hoeffding band of eps and the clean values
    within twice that band of the arm's law in KS distance, and ``draw_sample``
    follows the observed law (1 - eps) F + eps G within the DKW band."""

    N = 20_000
    DELTA = 1e-3

    @staticmethod
    def arms():
        bulk = rb.ContaminatedArm(
            rb.Gaussian(0.0, 1.0), rb.FixedContamination(rb.Cauchy(5.0, 2.0)), 0.05, OBL
        )
        lifted = rb.oblivious_lifting([0.6, 0.4], 0.05).instance().arms
        # (arm, index of the spawned child it races on, or None for an estimate)
        return [(bulk, None), (lifted[0], 0), (lifted[1], 1)]

    @pytest.mark.parametrize("index", [0, 1, 2, 57, 4096])
    def test_marginals_and_observed_law(self, index):
        band = math.sqrt(math.log(2.0 / self.DELTA) / (2.0 * self.N))
        for arm, child in self.arms():
            rng = replication_rng(11, index)
            assert isinstance(rng.bit_generator, np.random.SFC64)
            if child is not None:
                rng = rng.spawn(2)[child]
            batch = rb.draw_batch(arm, self.N, rng, debug=True)
            assert abs(batch.d.mean() - arm.eps) <= band
            assert ks_distance(batch.y, arm.dist) <= 2.0 * band
            observed = rb.Mixture((1.0 - arm.eps, arm.eps), (arm.dist, _fixed_component(arm)))
            assert ks_distance(rb.draw_sample(arm, self.N, rng), observed) <= band


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
        assert ks_distance(xs, dist) < 0.01

    def test_detects_wrong_law(self):
        xs = rb.Uniform(0, 1).sample(10_000, np.random.default_rng(23))
        assert ks_distance(xs, rb.Uniform(0.2, 1.2)) > 0.1

    def test_rejects_empty_sample(self):
        with pytest.raises(rb.EmptyInputError):
            ks_distance([], rb.Uniform(0, 1))
