import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import robandit as rb
from robandit.distributions import _median_pair
from robandit.harness import parse_config, run_experiment
from robandit.lower_bounds import _MEDIAN_BRACKET, _assert_lifting


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

    @pytest.mark.parametrize("c_eta, bound", [(5e-324, "0.0"), (1e308, "inf")])
    def test_bound_that_is_not_positive_and_finite_rejected_at_c_eta(self, c_eta, bound):
        """A positive, finite c_eta whose bound underflows to 0 or overflows:
        the runner would divide by the one and could not write the other."""
        with pytest.raises(rb.ParameterOutOfRangeError, match=f"the bound {bound},") as err:
            rb.lower_bound_samples([0.2], alpha=0.05, delta=0.1, c_eta=c_eta)
        assert err.value.key == "c_eta"


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


LIFTINGS = {
    "oblivious": (rb.oblivious_lifting, 1.0),
    "malicious": (rb.malicious_lifting, 2.0),
}


def _shifts(name, lifted):
    """The hidden median shifts of a lifting, best arm first."""
    step = LIFTINGS[name][1] * lifted.eps
    return (step,) + (-step,) * (lifted.k - 1)


def _no_search(*_args, **_kwargs):
    raise AssertionError("the median search ran")


class TestLiftingSelfCheck:
    """_assert_lifting, which every lifting runs on its own construction."""

    @staticmethod
    def _built(name):
        lifted = LIFTINGS[name][0]([0.6, 0.4, 0.5], 0.05)
        return lifted, _shifts(name, lifted)

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(sorted(LIFTINGS)),
        st.lists(st.floats(1.0 / 3.0, 2.0 / 3.0), min_size=2, max_size=4),
        st.floats(0.0, 1.0 / 15.0, exclude_min=True, exclude_max=True),
    )
    def test_bracket_alone_certifies_valid_liftings(self, name, p, eps):
        """Every valid construction passes on the one-call bracket, without the
        median search; the search's medians lie inside that bracket."""
        assume(p.count(max(p)) == 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rb.distributions, "_search_quantile", _no_search)
            lifted = LIFTINGS[name][0](p, eps)
            shifts = _shifts(name, lifted)
            _assert_lifting(lifted, shifts)
        for arm, pi, shift in zip(lifted.lifted_arms, lifted.p, shifts):
            m = pi + shift
            for median in _median_pair(arm.dist):
                assert m - _MEDIAN_BRACKET < median <= m + _MEDIAN_BRACKET

    @pytest.mark.parametrize("name", LIFTINGS)
    def test_wrong_median_shifts_rejected(self, name):
        lifted, shifts = self._built(name)
        _assert_lifting(lifted, shifts)
        for wrong in (tuple(-s for s in shifts), tuple(0.5 * s for s in shifts)):
            with pytest.raises(rb.LiftingError, match="hidden median"):
                _assert_lifting(lifted, wrong)

    @pytest.mark.parametrize("name", LIFTINGS)
    def test_swapped_contamination_rejected(self, name):
        lifted, shifts = self._built(name)
        best, rival = lifted.lifted_arms[:2]
        arms = (dataclasses.replace(best, strategy=rival.strategy),) + lifted.lifted_arms[1:]
        with pytest.raises(rb.LiftingError, match="observable law mismatch"):
            _assert_lifting(dataclasses.replace(lifted, lifted_arms=arms), shifts)

    def test_non_unique_hidden_median_rejected(self):
        eps = 0.05
        hidden, strategy = rb.Bernoulli(0.5), rb.FixedContamination(rb.Dirac(0.0))
        arm = rb.ContaminatedArm(hidden, strategy, eps, rb.AdversaryModel.OBLIVIOUS)
        law = rb.Mixture([1.0 - eps, eps], [hidden, strategy.dist])  # the observable law exactly
        lifted = dataclasses.replace(
            self._built("oblivious")[0],
            p=(0.5,), lifted_arms=(arm,), observable_law=(law,), original_indices=(0,),
        )
        with pytest.raises(rb.LiftingError, match="not unique"):
            _assert_lifting(lifted, (0.0,))


# A lower-bound run of 100 replications on one lifted pair; the family fields
# are written with repr, so the config carries their exact values.
LIFTED_RACE = """
[experiment]
kind = lower-bound
replications = 100
seed = {seed}

[instance]
model = oblivious
eps = 0.05
p = [{p[0]!r}, {p[1]!r}]

[algorithm]
alpha = 0.05
delta = 0.1
eps0 = 0.05
t_bar = {family.t_bar!r}
slope_bound = {family.slope_bound!r}
mad_bound = {family.mad_bound!r}
mad_ratio = {family.mad_ratio!r}
"""


class TestLiftedRace:
    @pytest.mark.slow
    def test_scaling_and_success(self, tmp_path):
        """``robandit lb`` on two lifted pairs, each with the family of its
        lifting: the race is PAC, pulls at least the lower bound, and the
        narrower pair costs three to six times the pulls."""
        delta = 0.1
        summaries = []
        for seed, pair in ((5, (0.6, 0.4)), (6, (0.55, 0.45))):
            family = rb.oblivious_lifting(pair, 0.05).family_for(0.15)
            config = parse_config(LIFTED_RACE.format(seed=seed, p=pair, family=family))
            summary = run_experiment(config, out_dir=tmp_path / str(seed)).summary
            summaries.append(summary)
            slack = 3 * math.sqrt(delta * (1 - delta) / 100)
            assert summary["success_rate"] >= 1 - delta - slack
            assert summary["ratio"] >= 1.0
        ratio = summaries[1]["mean_total_pulls"] / summaries[0]["mean_total_pulls"]
        assert 3.0 <= ratio <= 6.0
