import dataclasses
import hashlib
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robandit as rb
from robandit.harness import (
    ConfigError,
    FeasibilityViolationError,
    TypeMismatchError,
    UnknownKeyError,
    mix_seed,
    parse_config,
    replication_rng,
    run_experiment,
    wilson_interval,
)
from robandit.harness import cli, runner
from robandit.harness.config import (
    _ALGORITHM,
    _DISTRIBUTIONS,
    _KINDS,
    _STRATEGIES,
    _parse_sections,
    distribution_from_spec,
    strategy_from_spec,
)
from robandit.harness.verify import SUITES, SuiteResult, run_suites

REPO_ROOT = Path(__file__).resolve().parents[1]


def _demo(name: str) -> str:
    return (REPO_ROOT / "configs" / f"{name}_demo.cfg").read_text()


MINIMAL = """
[experiment]
kind = bai-simple
replications = 4
seed = 7

[instance]
model = oblivious
eps = 0.1
arm = {dist: {kind: uniform, lo: 0.0, hi: 1.0}, strategy: {kind: uniform_tail_shift, direction: 1}}
arm = {dist: {kind: uniform, lo: 0.4, hi: 1.4}, strategy: {kind: uniform_tail_shift, direction: -1}}

[algorithm]
alpha = 0.3
delta = 0.2
eps0 = 0.1
t_bar = 0.4
slope_bound = 4.0
mad_bound = 0.25
mad_ratio = 2.0
"""

LOWER_BOUND = """
[experiment]
kind = lower-bound
replications = 3
seed = 5

[instance]
model = oblivious
eps = 0.05
p = [0.6, 0.4]

[algorithm]
alpha = 0.05
delta = 0.1
eps0 = 0.05
t_bar = 0.15
slope_bound = 5.43
mad_bound = 0.35
mad_ratio = 2.0
c_eta = 1.0
"""


# Each config to which a test applies a replacement, by name.
_BASES = {
    "minimal": MINIMAL,
    "estimate": _demo("estimate"),
    "lower-bound": LOWER_BOUND,
    "lb": _demo("lb"),
    "bai": _demo("bai"),
    "gaps": _demo("gaps"),
    "verify": "[experiment]\nkind = verify\nsuites = [quality]\n",
}

# An arm whose median is any point of [0, 1], and the second arms it replaces.
_FLAT_ARM = "{dist: {kind: bernoulli, p: 0.5}, strategy: {kind: shift_median_up}}"
_MINIMAL_ARM = "{dist: {kind: uniform, lo: 0.4, hi: 1.4}, strategy: {kind: uniform_tail_shift, direction: -1}}"
_BAI_ARM = "{dist: {kind: uniform, lo: 0.3, hi: 1.3}, strategy: {kind: uniform_tail_shift, direction: -1}}"


def _malicious_coupling(flip_prob: float) -> tuple[str, str]:
    """(old, new) that turn the estimate demo's arm into a malicious
    below-median coupling at ``flip_prob``."""
    return (
        "model = oblivious\neps = 0.1\narm = {dist: {kind: uniform, lo: 0.0, hi: 1.0}, "
        "strategy: {kind: shift_median_up, magnitude: 1e6}}",
        "model = malicious\neps = 0.1\narm = {dist: {kind: uniform, lo: 0.0, hi: 1.0}, "
        f"strategy: {{kind: below_median_coupling, threshold: 0.5, flip_prob: {flip_prob}, point: 5.0}}}}",
    )


# Value trees for the grammar round trip, each drawn as (text, decoded value).
_BLANK = st.sampled_from(["", " ", "\t", " \t "])
_WORD_CHARS = "ab09_./~+-"
# bare words that stay words: the first letter spells no bool, number, nan or inf
_WORD = st.builds(str.__add__, st.sampled_from("abxyz_"), st.text(_WORD_CHARS, max_size=6))
_SCALAR = st.one_of(
    st.sampled_from(
        [("true", True), ("false", False), ("1e6", 1e6), ("nan", math.nan), ("-inf", -math.inf),
         ("1_000", 1000), ("+7", 7), ("2.5e-3", 2.5e-3)]
    ),
    st.integers(-(10**20), 10**20).map(lambda i: (str(i), i)),
    st.floats().map(lambda x: (repr(x), x)),
    _WORD.map(lambda w: (w, w)),
    # a quoted string keeps blanks, marks and digits as they are
    st.text(st.sampled_from(list("ab1 #\t,:{}[]'") + ["\xa0"]), max_size=8).map(lambda s: (f'"{s}"', s)),
)


def _join(items, blank, open_, close):
    return open_ + blank + f"{blank},{blank}".join(items) + blank + close


def _containers(inner):
    lists = st.tuples(st.lists(inner, max_size=3), _BLANK).map(
        lambda drawn: (_join([t for t, _ in drawn[0]], drawn[1], "[", "]"), [v for _, v in drawn[0]])
    )
    keys = st.text(_WORD_CHARS, min_size=1, max_size=5)
    maps = st.tuples(st.dictionaries(keys, inner, max_size=3), _BLANK).map(
        lambda drawn: (
            _join([f"{k}{drawn[1]}:{drawn[1]}{t}" for k, (t, _) in drawn[0].items()], drawn[1], "{", "}"),
            {k: v for k, (_, v) in drawn[0].items()},
        )
    )
    return lists | maps


_VALUE = st.recursive(_SCALAR, _containers, max_leaves=10)


class TestParser:
    def test_minimal_config(self):
        config = parse_config(MINIMAL)
        assert config.kind == "bai-simple"
        assert config.replications == 4
        assert len(config.arms) == 2
        assert config.arms[0].eps == 0.1

    def test_unknown_key_names_line(self):
        bad = MINIMAL.replace("alpha = 0.3", "alpa = 0.3")
        with pytest.raises(UnknownKeyError) as err:
            parse_config(bad)
        assert "alpa" in str(err.value)
        assert "line" in str(err.value)

    def test_type_mismatch(self):
        bad = MINIMAL.replace("replications = 4", "replications = soon")
        with pytest.raises(TypeMismatchError):
            parse_config(bad)

    def test_zero_replications_rejected(self):
        bad = MINIMAL.replace("replications = 4", "replications = 0")
        with pytest.raises(FeasibilityViolationError):
            parse_config(bad)

    def test_malicious_regime_violation(self):
        bad = (
            MINIMAL.replace("model = oblivious", "model = malicious")
            .replace("eps0 = 0.1", "eps0 = 0.4")
            .replace("t_bar = 0.4", "t_bar = 0.3")
        )
        with pytest.raises(FeasibilityViolationError) as err:
            parse_config(bad)
        assert "malicious" in str(err.value)

    def test_incompatible_strategy_rejected(self):
        bad = MINIMAL.replace(
            "{kind: uniform_tail_shift, direction: 1}",
            "{kind: below_median_coupling, threshold: 0.5, flip_prob: 0.2, point: 0.9}",
        )
        with pytest.raises(FeasibilityViolationError):
            parse_config(bad)

    def test_race_without_positive_effective_gap_rejected(self):
        twins = (
            MINIMAL.replace("kind = bai-simple", "kind = bai-succelim")
            .replace("lo: 0.4, hi: 1.4", "lo: 0.0, hi: 1.0")
            .replace("alpha = 0.3", "alpha = 0.0")
        )
        with pytest.raises(FeasibilityViolationError) as err:
            parse_config(twins)
        assert err.value.key == "alpha"
        early = twins.replace("alpha = 0.0", "alpha = 0.05\nearly_stop = true")
        assert parse_config(early).algorithm["early_stop"] is True
        # without unique medians there are no effective gaps to race by
        flat = twins.replace(
            "{kind: uniform, lo: 0.0, hi: 1.0}, strategy: {kind: uniform_tail_shift, direction: 1}",
            "{kind: bernoulli, p: 0.5}, strategy: {kind: shift_median_up}",
        )
        with pytest.raises(FeasibilityViolationError) as err:
            parse_config(flat)
        assert err.value.key == "arm"
        assert "bernoulli" in flat.splitlines()[err.value.line - 1]

    @pytest.mark.parametrize(
        "base, old, new, key",
        [
            ("minimal", "delta = 0.2", "delta = 0.0", "delta"),
            ("estimate", "delta = 0.1", "delta = 1.5", "delta"),
            ("minimal", "alpha = 0.3", "alpha = -1.0", "alpha"),
            ("estimate", "error_level = 0.05", "error_level = -0.1", "error_level"),
            ("minimal", "delta = 0.2", "delta = 0.2\nmax_rounds = 0", "max_rounds"),
            ("estimate", "delta = 0.1", "delta = 0.1\nmad_source = bogus", "mad_source"),
            ("lower-bound", "c_eta = 1.0", "c_eta = 0.0", "c_eta"),
            ("minimal", "eps0 = 0.1", "eps0 = 0.5", "eps0"),
            ("minimal", "eps0 = 0.1", "eps0 = -0.1", "eps0"),
            ("minimal", "t_bar = 0.4", "t_bar = 0.7", "t_bar"),
            ("minimal", "t_bar = 0.4", "t_bar = 0.0", "t_bar"),
            ("minimal", "slope_bound = 4.0", "slope_bound = -4.0", "slope_bound"),
            ("minimal", "mad_bound = 0.25", "mad_bound = 0.0", "mad_bound"),
            ("minimal", "mad_ratio = 2.0", "mad_ratio = -1.0", "mad_ratio"),
            ("minimal", "mad_ratio = 2.0", "mad_ratio = nan", "mad_ratio"),
            ("minimal", "mad_ratio = 2.0", "mad_ratio = inf", "mad_ratio"),
            ("minimal", "slope_bound = 4.0", "slope_bound = inf", "slope_bound"),
            ("minimal", "mad_bound = 0.25", "mad_bound = inf", "mad_bound"),
            ("minimal", "alpha = 0.3", "alpha = inf", "alpha"),
            ("estimate", "error_level = 0.05", "error_level = inf", "error_level"),
            ("lower-bound", "c_eta = 1.0", "c_eta = inf", "c_eta"),
            ("lower-bound", "c_eta = 1.0", "c_eta = nan", "c_eta"),
            ("gaps", "t_bar = 0.4", "t_bar = 0.7", "t_bar"),
            ("lower-bound", "eps = 0.05", "eps = 0.1", "eps"),
            ("minimal", "eps = 0.1", "eps = 0.7", "eps"),
            ("minimal", "eps = 0.1", "eps = nan", "eps"),
            ("lower-bound", "delta = 0.1", "delta = 0.2", "delta"),
            ("lower-bound", "p = [0.6, 0.4]", "p = [0.7, 0.4]", "p"),
            ("lower-bound", "p = [0.6, 0.4]", "p = [0.6, 0.3]", "p"),
            # configs the runner cannot run: uniform exploration at alpha = 0,
            ("minimal", "alpha = 0.3", "alpha = 0.0", "alpha"),
            # a lower bound without one best arm,
            ("lower-bound", "p = [0.6, 0.4]", "p = [0.5, 0.5]", "p"),
            ("lower-bound", "p = [0.6, 0.4]", "p = [0.6, 0.6, 0.4]", "p"),
            # and effective gaps of an arm without a unique median
            ("minimal", _MINIMAL_ARM, _FLAT_ARM, "arm"),
            ("bai", _BAI_ARM, _FLAT_ARM, "arm"),
            ("gaps", _BAI_ARM, _FLAT_ARM, "arm"),
        ],
    )
    def test_out_of_range_algorithm_value_rejected(self, base, old, new, key):
        text = _BASES[base]
        assert old in text
        parse_config(text)
        bad = text.replace(old, new)
        with pytest.raises(FeasibilityViolationError) as err:
            parse_config(bad)
        assert err.value.key == key
        assert bad.splitlines()[err.value.line - 1].startswith(f"{key} =")

    @pytest.mark.parametrize(
        "base, edits, key",
        [
            # 59,914,645,472 draws per replication
            ("estimate", [("error_level = 0.05", "error_level = 1e-5")], "error_level"),
            # a margin of 8.4e-5 above eps_eff: 1,295,100,154 warm-up pulls per arm
            ("lb", [("t_bar = 0.15", "t_bar = 0.0264")], "eps0"),
            # a margin of 1e-200, whose squared inverse overflows
            (
                "estimate",
                [
                    ("eps = 0.1", "eps = 0.0"),
                    ("eps0 = 0.1", "eps0 = 0.0"),
                    ("t_bar = 0.4", "t_bar = 1e-200"),
                ],
                "eps0",
            ),
            # 2.951e11 draws per arm in uniform exploration, at error level alpha / 2
            (
                "bai",
                [("kind = bai-succelim", "kind = bai-simple"), ("alpha = 0.0", "alpha = 1e-5")],
                "alpha",
            ),
        ],
        ids=["estimate-error-level", "lb-warm-up", "estimate-margin-overflow", "bai-simple-alpha"],
    )
    def test_draw_count_past_the_cap_rejected(self, base, edits, key):
        """A config whose estimate batch, uniform exploration or race warm-up
        would draw more than 2**27 values per arm fails at parse time, at its
        key and line."""
        bad = _BASES[base]
        for old, new in edits:
            assert old in bad
            bad = bad.replace(old, new)
        with pytest.raises(FeasibilityViolationError, match="more samples per arm") as err:
            parse_config(bad)
        assert err.value.key == key
        assert bad.splitlines()[err.value.line - 1].startswith(f"{key} =")

    @pytest.mark.parametrize("base", ["bai", "lb", "estimate"])
    def test_delta_whose_log_overflows_rejected_at_delta(self, base):
        """A delta so small that log(c/delta) overflows, in the race warm-up
        (bai, lb), the lower bound (lb) or the estimate batch, fails at delta's
        line, not at the key of the count or bound that takes the log."""
        text = _BASES[base]
        bad = re.sub(r"(?m)^delta = .*$", "delta = 5e-324", text)
        assert bad != text
        with pytest.raises(FeasibilityViolationError, match="too small") as err:
            parse_config(bad)
        assert err.value.key == "delta"
        assert bad.splitlines()[err.value.line - 1].startswith("delta =")

    @pytest.mark.parametrize(
        "base, old, new, key",
        [
            ("lower-bound", "p = [0.6, 0.4]", f"p = [0.6, 0.4]\narm = {_FLAT_ARM}", "arm"),
            ("minimal", "eps = 0.1", "eps = 0.1\np = [0.6, 0.4]", "p"),
            ("estimate", "eps = 0.1", "eps = 0.1\np = [0.6, 0.4]", "p"),
            ("verify", "suites = [quality]", "suites = [quality]\n[instance]\nmodel = oblivious", "model"),
            ("gaps", "kind = gaps", "kind = gaps\nsuites = [kl]", "suites"),
            ("lower-bound", "seed = 5", "seed = 5\nsuites = [kl]", "suites"),
            ("estimate", "delta = 0.1", "delta = 0.1\nalpha = 0.3", "alpha"),
            ("estimate", "delta = 0.1", "delta = 0.1\nmax_rounds = 5", "max_rounds"),
            ("estimate", "delta = 0.1", "delta = 0.1\nc_eta = 2.0", "c_eta"),
            ("estimate", "delta = 0.1", "delta = 0.1\nmad_ratio = 2.0", "mad_ratio"),
            ("bai", "delta = 0.1", "delta = 0.1\nerror_level = 0.2", "error_level"),
            ("bai", "delta = 0.1", "delta = 0.1\nmad_source = bound", "mad_source"),
            ("bai", "delta = 0.1", "delta = 0.1\nc_eta = 2.0", "c_eta"),
            ("gaps", "t_bar = 0.4", "t_bar = 0.4\ndelta = 0.1", "delta"),
            ("verify", "suites = [quality]", "suites = [quality]\n[algorithm]\ndelta = 0.1", "delta"),
            # the racing loop has one radius, so no key selects it
            ("bai", "delta = 0.1", "delta = 0.1\nthreshold_variant = squared-slope", "threshold_variant"),
            (
                "lower-bound",
                "delta = 0.1",
                "delta = 0.1\nthreshold_variant = squared-slope",
                "threshold_variant",
            ),
        ],
    )
    def test_key_the_kind_never_reads_rejected(self, base, old, new, key):
        text = _BASES[base]
        assert old in text
        parse_config(text)
        bad = text.replace(old, new)
        with pytest.raises(UnknownKeyError) as err:
            parse_config(bad)
        assert err.value.key == key
        assert bad.splitlines()[err.value.line - 1].startswith(f"{key} =")

    @pytest.mark.parametrize(
        "base, old, new",
        [
            ("bai", "alpha = 0.0", "alpha = 0.05\nearly_stop = true"),
            ("bai", "delta = 0.1", "delta = 0.1\nmax_rounds = 5"),
            ("minimal", "delta = 0.2", "delta = 0.2\nearly_stop = true\nmax_rounds = 5"),
            ("lower-bound", "delta = 0.1", "delta = 0.1\nearly_stop = true\nmax_rounds = 5"),
            ("lower-bound", "mad_ratio = 2.0\nc_eta = 1.0\n", ""),
            ("estimate", "delta = 0.1", "delta = 0.1\nmad_source = bound"),
        ],
    )
    def test_key_the_kind_reads_without_requiring_parses(self, base, old, new):
        """Keys with a default that the kind reads may be set or left out."""
        text = _BASES[base]
        assert old in text
        parse_config(text)
        parse_config(text.replace(old, new))

    @pytest.mark.parametrize("kind", [k for k, spec in _KINDS.items() if "eps0" in spec.required])
    def test_eps_above_eps0_rejected(self, kind):
        """eps0 is the known upper bound on the contamination level: an
        instance's eps above it is rejected at eps0's line, eps equal to it parses."""
        text = OUTPUT_CASES[kind]
        config = parse_config(text)
        assert config.eps == config.algorithm["eps0"]
        eps0 = f"eps0 = {config.eps}"
        assert eps0 in text
        bad = text.replace(eps0, f"eps0 = {config.eps / 2}")
        with pytest.raises(FeasibilityViolationError, match="eps0 must be at least") as err:
            parse_config(bad)
        assert err.value.key == "eps0"
        assert bad.splitlines()[err.value.line - 1].startswith("eps0 =")

    def test_single_arm_lower_bound_rejected(self):
        """A lower bound compares arms, so a one-arm lifting is no config."""
        assert "p = [0.6, 0.4]" in LOWER_BOUND
        with pytest.raises(ConfigError, match=r"at least two p values \(key 'p'\)") as err:
            parse_config(LOWER_BOUND.replace("p = [0.6, 0.4]", "p = [0.6]"))
        assert err.value.key == "p"

    @pytest.mark.parametrize(
        "literal",
        [
            "dist: {kind: gaussian, mu: nan, sigma: 1.0}",
            "dist: {kind: gaussian, mu: inf, sigma: 1.0}",
            "dist: {kind: dirac, x: inf}",
            "dist: {kind: mixture, weights: [nan, 0.5],"
            " components: [{kind: dirac, x: 0.0}, {kind: dirac, x: 1.0}]}",
            "dist: {kind: affine, base: {kind: uniform, lo: 0.0, hi: 1.0}, scale: nan}",
            "dist: {kind: uniform, lo: 0.0, hi: 1.0},"
            " strategy: {kind: shift_median_up, magnitude: nan}",
            # a width of 1.7e308 stretched by 1 / (1 - eps) overflows
            "dist: {kind: uniform, lo: -8.5e307, hi: 8.5e307},"
            " strategy: {kind: uniform_tail_shift, direction: 1}",
        ],
    )
    def test_non_finite_literal_number_rejected(self, literal):
        """A nan or inf in a distribution or strategy literal, or a tail
        shift's stretched law that overflows to one, names the arm's key and
        line instead of failing mid-race or racing to a success."""
        old = next(line for line in MINIMAL.splitlines() if line.startswith("arm ="))
        bad = MINIMAL.replace(old, "arm = {" + literal + "}")
        with pytest.raises(FeasibilityViolationError) as err:
            parse_config(bad)
        assert err.value.key == "arm"
        assert bad.splitlines()[err.value.line - 1] == "arm = {" + literal + "}"

    @pytest.mark.parametrize("value", ["true", '"true"'])
    def test_mad_source_true_bare_or_quoted(self, value):
        text = _demo("estimate").replace("delta = 0.1", f"delta = 0.1\nmad_source = {value}")
        assert parse_config(text).algorithm["mad_source"] == "true"

    def test_mad_source_bound(self):
        text = _demo("estimate").replace("delta = 0.1", "delta = 0.1\nmad_source = bound")
        assert parse_config(text).algorithm["mad_source"] == "bound"

    @pytest.mark.parametrize("value", ["false", "1"])
    def test_mad_source_other_type_rejected(self, value):
        bad = _demo("estimate").replace("delta = 0.1", f"delta = 0.1\nmad_source = {value}")
        with pytest.raises(TypeMismatchError) as err:
            parse_config(bad)
        assert err.value.key == "mad_source"
        assert bad.splitlines()[err.value.line - 1].startswith("mad_source =")

    @pytest.mark.parametrize(
        "line, value",
        [
            ('dir = "out/x"  # note', "out/x"),
            ('dir = "a#b"', "a#b"),
            ('dir = {note: "a # b", n: 2}  # c', {"note": "a # b", "n": 2}),
            ("dir = out/x  # note", "out/x"),
        ],
        ids=["quoted-then-comment", "quoted-hash", "hash-in-map", "bare-then-comment"],
    )
    def test_comment_after_value(self, line, value):
        """A `#` after a value starts a comment; a quoted `#` is kept."""
        assert _parse_sections(f"[output]\n{line}\n") == {"output": [("dir", value, 2)]}

    @settings(max_examples=200, deadline=None)
    @given(_VALUE, st.sampled_from(["", " # c", "\t# a, b: {c", "#tight"]))
    def test_value_round_trip(self, value, comment):
        """A rendered value tree decodes to the tree, with or without a comment."""
        text, tree = value
        decoded = _parse_sections(f"[output]\ndir = {text}{comment}\n")
        # repr tells True from 1 and 1 from 1.0, and equates nan with nan
        assert repr(decoded) == repr({"output": [("dir", tree, 2)]})

    @pytest.mark.parametrize(
        "value",
        ['"abc', "{a: 1", "[1, 2", "[1, 2,]", "{a: 1,}", "{a 1}", "{a}", '{"a": 1}', "1}", "}",
         "# c", "", "[1,\x0c 2]", "[1,\xa02]", "1\xa02", "'q'", "a;b"],
        ids=["unterminated-string", "unterminated-map", "unterminated-list", "list-trailing-comma",
             "map-trailing-comma", "entry-without-colon", "key-without-value", "quoted-map-key",
             "stray-brace-after-value", "stray-brace", "only-comment", "empty", "form-feed",
             "nbsp-in-list", "nbsp-between-words", "single-quotes", "other-character"],
    )
    def test_malformed_value_rejected(self, value):
        with pytest.raises(TypeMismatchError) as err:
            _parse_sections(f"[output]\ndir = {value}\n")
        assert (err.value.key, err.value.line) == ("dir", 2)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    @pytest.mark.parametrize("place", ["comment", "quoted"])
    def test_only_newline_ends_a_line(self, char, place):
        """A character ``str.splitlines`` breaks at stays inside its line, so
        the value keeps it and later lines keep their numbers."""
        line = f"# a{char}b" if place == "comment" else f'dir = "a{char}b"'
        output = [] if place == "comment" else [("dir", f"a{char}b", 2)]
        text = f"[output]\n{line}\n[experiment]\nseed = 3\n"
        assert _parse_sections(text) == {"output": output, "experiment": [("seed", 3, 4)]}
        with pytest.raises(UnknownKeyError) as err:
            _parse_sections(text.replace("seed", "sed"))
        assert err.value.line == 4

    def test_bai_demo_parses(self):
        config = parse_config((REPO_ROOT / "configs" / "bai_demo.cfg").read_text())
        report = rb.effective_gaps(rb.BanditInstance(config.arms), config.family())
        assert report.gaps[0] == pytest.approx(0.189, abs=1e-3)

    def test_nested_literals(self):
        spec = {
            "kind": "mixture",
            "weights": [0.5, 0.5],
            "components": [
                {"kind": "bernoulli", "p": 0.6},
                {"kind": "uniform", "lo": 0, "hi": 1},
            ],
        }
        dist = distribution_from_spec(spec)
        assert isinstance(dist, rb.Mixture)
        strat = strategy_from_spec({"kind": "fixed", "dist": {"kind": "dirac", "x": 1.0}})
        assert isinstance(strat, rb.FixedContamination)

    def test_missing_required_algorithm_key(self):
        bad = MINIMAL.replace("delta = 0.2\n", "")
        with pytest.raises(Exception) as err:
            parse_config(bad)
        assert "delta" in str(err.value)

    def test_unknown_distribution_kind(self):
        with pytest.raises(TypeMismatchError):
            distribution_from_spec({"kind": "triangular", "lo": 0, "hi": 1})

    @pytest.mark.parametrize(
        "old, new",
        [
            ("strategy: {kind: uniform_tail_shift, direction: -1}", "stratgy: {kind: shift_median_down}"),
            ("direction: -1", "direcion: -1"),
            ("lo: 0.4, hi: 1.4}", "lo: 0.4, hi: 1.4, sigma: 9}"),
            ("direction: -1", "direction: 1.7"),
            ("direction: -1", "direction: true"),
            ("hi: 1.4", 'hi: "1.4"'),
        ],
        ids=["arm-field", "strategy-field", "dist-field", "float-direction", "bool", "quoted-number"],
    )
    def test_bad_literal_field_rejected(self, old, new):
        assert MINIMAL.count(old) == 1
        bad = MINIMAL.replace(old, new)
        with pytest.raises(TypeMismatchError) as err:
            parse_config(bad)
        assert err.value.key == "arm"
        assert bad.splitlines()[err.value.line - 1].startswith("arm =")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "triangular"}, "unknown distribution kind 'triangular'"),
            ({"kind": "uniform", "lo": 0.0}, "distribution kind 'uniform' is missing field 'hi'"),
            ({"kind": "uniform", "lo": 1.0, "hi": 0.0}, "bad distribution literal: uniform needs lo < hi, got [1.0, 0.0]"),
            (
                {"kind": "uniform", "lo": -1e308, "hi": 1e308},
                "bad distribution literal: uniform needs a finite width hi - lo, got [-1e+308, 1e+308]",
            ),
            (
                {"kind": "gaussian", "mu": 0.0, "sigma": 1e308},
                "bad distribution literal: gaussian draws must stay finite, but reach [-inf, inf]",
            ),
            (
                {"kind": "affine", "base": {"kind": "dirac", "x": 0.0, "y": 1.0}, "scale": 2.0},
                "distribution kind 'dirac' has unknown field(s) y",
            ),
            ({"kind": "mixture", "weights": 1.0, "components": []}, "expected a list, got 1.0"),
        ],
    )
    def test_literal_error_messages(self, spec, message):
        with pytest.raises(TypeMismatchError) as err:
            distribution_from_spec(spec, "arm", 3)
        assert str(err.value) == f"{message} (key 'arm', line 3)"

    @pytest.mark.parametrize("table", [_DISTRIBUTIONS, _STRATEGIES], ids=["distributions", "strategies"])
    def test_literal_fields_are_the_constructor_fields(self, table):
        """Fields are passed by position, and each default is the constructor's."""
        for constructor, fields in table.values():
            params = [f for f in dataclasses.fields(constructor) if f.init]
            assert [name for name, *_ in fields] == [f.name for f in params]
            for (_, _, *default), param in zip(fields, params):
                assert default == ([] if param.default is dataclasses.MISSING else [param.default])

    def test_algorithm_defaults_filled_in(self):
        algorithm = parse_config(MINIMAL).algorithm
        assert algorithm["max_rounds"] == 10**6
        assert algorithm["early_stop"] is False
        assert algorithm["c_eta"] == 1.0
        assert algorithm["mad_source"] == "true"
        assert "error_level" not in algorithm
        estimate = (REPO_ROOT / "configs" / "estimate_demo.cfg").read_text()
        assert parse_config(estimate).algorithm["alpha"] == 0.0


class TestSeedMixing:
    def test_pinned_values(self):
        # frozen so the documented derivation never drifts
        assert mix_seed(0, 0) == 16294208416658607535
        assert mix_seed(7, 3) == mix_seed(7, 3)
        assert mix_seed(7, 3) != mix_seed(7, 4)
        assert mix_seed(7, 3) != mix_seed(8, 3)

    def test_all_values_in_range(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            for i in (0, 1, 999):
                assert 0 <= mix_seed(seed, i) < 2**64


class TestWilson:
    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(80, 100)
        assert lo < 0.8 < hi
        assert 0.0 <= lo <= hi <= 1.0

# Four prescient arms, three contaminated at an empirical quantile of each
# round's clean values, raced with an early stop.
PRESCIENT_RACE = """
[experiment]
kind = bai-succelim
replications = 50
seed = 31

[instance]
model = prescient
eps = 0.05
arm = {dist: {kind: uniform, lo: 0.0, hi: 1.0}, strategy: {kind: empirical_quantile, target_quantile: 0.9}}
arm = {dist: {kind: uniform, lo: 0.1, hi: 1.1}, strategy: {kind: empirical_quantile, target_quantile: 0.9}}
arm = {dist: {kind: uniform, lo: 0.2, hi: 1.2}, strategy: {kind: shift_median_up}}
arm = {dist: {kind: uniform, lo: 0.4, hi: 1.4}, strategy: {kind: empirical_quantile, target_quantile: 0.1}}

[algorithm]
alpha = 0.05
early_stop = true
delta = 0.1
eps0 = 0.05
t_bar = 0.4
slope_bound = 4.0
mad_bound = 0.25
"""

# One small config per experiment kind; verify runs the suite with an artifact.
OUTPUT_CASES = {
    "estimate-median": _demo("estimate").replace("replications = 200", "replications = 2"),
    "estimate-mad": _demo("estimate")
    .replace("replications = 200", "replications = 2")
    .replace("kind = estimate-median", "kind = estimate-mad")
    .replace("error_level = 0.05", "error_level = 0.05\nmad_ratio = 2.0"),
    "bai-simple": MINIMAL,
    "bai-succelim": _demo("bai").replace("replications = 50", "replications = 2"),
    "gaps": _demo("gaps"),
    "lower-bound": LOWER_BOUND,
    "verify": _BASES["verify"],
}
assert set(OUTPUT_CASES) == set(_KINDS)


# The [algorithm] keys a library object range-checks, and values at their
# boundaries (0, 1/2, 1, 3/20 and their neighbours), signed zeros,
# infinities, nan and extremes.
_RANGED = {
    "alpha", "delta", "eps0", "t_bar", "slope_bound", "mad_bound", "mad_ratio", "error_level", "c_eta",
    "max_rounds",
}
_EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-300, 1e300, -1.0,
    *(x for edge in (0.5, 1.0, 0.15) for x in (edge, math.nextafter(edge, 0), math.nextafter(edge, 2))),
]
_RANGED_PAIRS = [
    (kind, key)
    for kind, spec in _KINDS.items()
    for key in sorted((spec.required | spec.optional) & _RANGED)
]


def _library_rejection(config) -> str | None:
    """The key the library objects that ``config``'s kind runs reject, built
    here from their constructors (a margin they find infeasible is eps0's), or
    the key of a rule no library object states; None if all accept."""
    alg = config.algorithm
    kind = _KINDS[config.kind]
    try:
        family = rb.FamilyParams(alg["t_bar"], alg["slope_bound"], alg["mad_bound"], alg["mad_ratio"])
        if kind.statistic is None:
            return None
        params = rb.EstimationParams(alg["eps0"], family, config.model)
        if kind.command == "estimate":
            size = rb.sample_size_median if kind.statistic == "median" else rb.sample_size_mad
            size(alg["error_level"], alg["delta"], params)
        else:
            rb.AlgoConfig(alg["alpha"], alg["delta"], family, alg["eps0"], alg["max_rounds"])
            params.median_margin()
            if config.kind != "bai-simple":
                rb.warmup_pulls(len(config.p) or len(config.arms), alg["delta"], params)
            elif alg["alpha"] > 0:
                try:
                    rb.sample_size_median(alg["alpha"] / 2, alg["delta"] / len(config.arms), params)
                except rb.ParameterOutOfRangeError as exc:
                    if exc.key == "error_level":
                        return "alpha"
                    raise
        if config.p:
            gaps = rb.oblivious_lifting(config.p, config.eps).classical_gaps
            rb.lower_bound_samples(gaps, alg["alpha"], alg["delta"], alg["c_eta"])
    except rb.ParameterOutOfRangeError as exc:
        return exc.key
    except rb.InfeasibleRegimeError:
        return "eps0"
    if config.eps > alg["eps0"]:
        return "eps0"
    if config.kind == "bai-simple" and not alg["alpha"] > 0:
        return "alpha"
    if config.kind == "bai-succelim" and not (alg["early_stop"] and alg["alpha"] > 0):
        if rb.effective_gaps(rb.BanditInstance(config.arms), family).infeasible_arms:
            return "alpha"
    return None


_FAMILY = rb.FamilyParams(0.4, 4.0, 0.25)
_PARAMS = rb.EstimationParams(0.1, _FAMILY, rb.AdversaryModel.OBLIVIOUS)


class TestLibraryStatesTheRanges:
    @pytest.mark.parametrize("kind, key", _RANGED_PAIRS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_parser_accepts_exactly_what_the_library_accepts(self, kind, key, data):
        """Each range-checked [algorithm] key a kind reads, set to a boundary
        value, a signed zero, an infinity, nan or any other number: the config
        parses exactly when the library objects accept the value, and
        otherwise fails at the key they name and its line."""
        if _ALGORITHM[key][0] is int:
            value = data.draw(st.integers(-2, 2) | st.sampled_from([10**6, 2**63]))
        else:
            value = data.draw(st.sampled_from(_EDGE_FLOATS) | st.floats())
        base = OUTPUT_CASES[kind]
        lines = [line for line in base.splitlines() if not line.startswith(f"{key} =")]
        at = lines.index("[algorithm]") + 1
        text = "\n".join([*lines[:at], f"{key} = {value!r}", *lines[at:]])
        config = parse_config(base)
        want = _library_rejection(
            dataclasses.replace(config, algorithm={**config.algorithm, key: value})
        )
        if want is None:
            assert repr(parse_config(text).algorithm[key]) == repr(value)
            return
        with pytest.raises(FeasibilityViolationError) as err:
            parse_config(text)
        assert err.value.key == want
        assert text.splitlines()[err.value.line - 1].startswith(f"{want} =")

    @pytest.mark.parametrize(
        "build, key, message",
        [
            (lambda: rb.AlgoConfig(math.inf, 0.1, _FAMILY, 0.1), "alpha", "finite"),
            (lambda: rb.lower_bound_samples([0.2], 0.0, 0.1, c_eta=math.inf), "c_eta", "finite"),
            (lambda: rb.sample_size_median(math.inf, 0.1, _PARAMS), "error_level", "finite"),
            # a sample count or a squared alpha past the floats
            (lambda: rb.sample_size_median(1e-200, 0.1, _PARAMS), "error_level", "more samples"),
            (lambda: rb.lower_bound_samples([0.2], 1e300, 0.1), "alpha", "squares past"),
            # a delta whose log(c/delta) overflows
            (lambda: rb.warmup_pulls(2, 1e-308, _PARAMS), "delta", "too small"),
            (lambda: rb.lower_bound_samples([0.2], 0.05, 5e-324), "delta", "too small"),
            (lambda: rb.sample_size_median(0.1, 5e-324, _PARAMS), "delta", "too small"),
        ],
        ids=[
            "alpha",
            "c_eta",
            "error_level",
            "error_level-overflow",
            "alpha-overflow",
            "warm-up-delta",
            "lower-bound-delta",
            "sample-size-delta",
        ],
    )
    def test_value_the_parser_alone_stopped_rejected_with_its_key(self, build, key, message):
        """Values the parser used to stop itself, or that failed mid-run with
        an OverflowError: the library rejects them, naming the key."""
        with pytest.raises(rb.ParameterOutOfRangeError, match=message) as err:
            build()
        assert err.value.key == key


def _spec_of(text: str, tmp_path: Path) -> runner.RaceSpec | runner.EstimateSpec:
    """The replication spec that ``run_experiment`` hands the engine for ``text``."""
    specs = []
    engine = runner._run_replications

    def capture(seed, replications, parallelism, spec):
        specs.append(spec)
        return engine(seed, 1, 1, spec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "_run_replications", capture)
        run_experiment(parse_config(text), out_dir=tmp_path / "spec")
    (spec,) = specs
    return spec


@pytest.fixture
def pool_starts(monkeypatch):
    """The start method of each pool the runner starts, on a host with 8 CPUs."""
    starts = []
    get_context = multiprocessing.get_context

    def recorded(method=None):
        starts.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", recorded)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    return starts


class TestRunExperiment:
    def test_bai_simple_records(self, tmp_path):
        config = parse_config(MINIMAL)
        result = run_experiment(config, parallelism=1, out_dir=tmp_path)
        assert result.exit_code == 0
        lines = result.files["records"].read_text().splitlines()
        assert lines[0] == "replication,seed,chosen_arm,total_pulls,rounds,terminated_by,success"
        assert len(lines) == 1 + 4
        pulls = {line.split(",")[3] for line in lines[1:]}
        assert len(pulls) == 1  # uniform exploration pulls are deterministic

    def test_prescient_race_is_pac(self, tmp_path):
        """A race against prescient quantile-shift adversaries stops by itself
        and picks an alpha-good arm at rate 1 - delta, up to three binomial
        standard deviations."""
        config = parse_config(PRESCIENT_RACE)
        result = run_experiment(config, out_dir=tmp_path)
        lines = result.files["records"].read_text().splitlines()
        column = lines[0].split(",").index("terminated_by")
        reps, delta = config.replications, config.algorithm["delta"]
        assert reps >= 40 and len(lines) == 1 + reps
        assert all(line.split(",")[column] != "round-cap" for line in lines[1:])
        floor = 1.0 - delta - 3.0 * math.sqrt(delta * (1.0 - delta) / reps)
        assert result.summary["success_rate"] >= floor

    @pytest.mark.parametrize(
        "text, files",
        [
            (MINIMAL, ("records", "summary")),
            (LOWER_BOUND, ("records", "summary", "aggregate")),
            (_demo("prescient"), ("records", "summary")),
            (OUTPUT_CASES["estimate-mad"], ("records", "summary")),
            (OUTPUT_CASES["bai-succelim"], ("records", "summary")),
        ],
        ids=["bai-simple", "lifted-race", "prescient-race", "estimate-mad", "bai-succelim"],
    )
    def test_byte_identical_across_parallelism(self, tmp_path, pool_starts, text, files):
        """Forked workers write the serial run's files at parallelism 2 and 8:
        16 replications are two chunks, so each starts a pool of two."""
        config = parse_config(re.sub(r"replications = \d+", "replications = 16", text))
        blobs = []
        for parallelism in (1, 2, 8):
            result = run_experiment(config, parallelism=parallelism, out_dir=tmp_path / str(parallelism))
            blobs.append(b"".join(result.files[f].read_bytes() for f in files))
        assert blobs[0] == blobs[1] == blobs[2]
        assert pool_starts == ["fork", "fork"]

    def test_fewer_than_a_chunk_per_worker_starts_no_pool(self, tmp_path, monkeypatch):
        """A pool starts only when two workers or more get a full chunk of
        replications each, and never at parallelism 1, on one CPU or where
        the platform cannot fork."""
        def no_fork(method=None):
            raise RuntimeError("no pool may start")

        spec = _spec_of(MINIMAL, tmp_path)
        serial = runner._run_replications(7, 64, 1, spec)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert runner._run_replications(7, 64, 1, spec) == serial
        assert runner._run_replications(7, 15, 8, spec) == serial[:15]
        with pytest.raises(RuntimeError, match="no pool may start"):
            runner._run_replications(7, 16, 8, spec)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert runner._run_replications(7, 64, 8, spec) == serial
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.delattr(os, "fork")
        assert runner._run_replications(7, 64, 8, spec) == serial

    def test_no_worker_outlives_the_run(self, tmp_path, pool_starts):
        """Every forked worker has exited when ``run_experiment`` returns."""
        config = parse_config(MINIMAL.replace("replications = 4", "replications = 32"))
        run_experiment(config, parallelism=2, out_dir=tmp_path)
        assert pool_starts == ["fork"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "error",
        [
            lambda: rb.ParameterOutOfRangeError("raised in a worker", "delta"),
            lambda: FeasibilityViolationError("raised in a worker", "alpha", 3),
        ],
        ids=["library", "config"],
    )
    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch, pool_starts, error):
        """An error raised in a worker reaches the caller with its type, key
        and line, and the pool's workers are gone."""
        spec = _spec_of(MINIMAL, tmp_path)
        parent, run_simple = os.getpid(), runner.run_simple

        def fail_in_worker(*args):
            if os.getpid() != parent:
                raise error()
            return run_simple(*args)

        monkeypatch.setattr(runner, "run_simple", fail_in_worker)
        assert len(runner._run_replications(7, 16, 1, spec)) == 16
        want = error()
        with pytest.raises(type(want), match="raised in a worker") as err:
            runner._run_replications(7, 16, 2, spec)
        assert pool_starts == ["fork"]
        assert (err.value.key, getattr(err.value, "line", None)) == (want.key, getattr(want, "line", None))
        assert multiprocessing.active_children() == []

    def test_dead_worker_fails_the_run(self, tmp_path, monkeypatch, pool_starts):
        """A worker that dies mid-run fails it at once instead of leaving the
        caller waiting for its chunk."""
        from concurrent.futures.process import BrokenProcessPool

        spec = _spec_of(MINIMAL, tmp_path)
        parent, run_simple = os.getpid(), runner.run_simple

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run_simple(*args)

        monkeypatch.setattr(runner, "run_simple", die_in_worker)
        with pytest.raises(BrokenProcessPool):
            runner._run_replications(7, 16, 2, spec)
        assert pool_starts == ["fork"]
        assert multiprocessing.active_children() == []

    def test_reproducibility_suite_forks(self, monkeypatch, pool_starts):
        """The suite's parallelism-8 runs of 16 replications each start a pool
        on two CPUs."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert SUITES["reproducibility"](np.random.default_rng(0)).passed
        assert pool_starts == ["fork", "fork"]

    @pytest.mark.parametrize(
        "text, replications, digests",
        [
            (
                _demo("lb"),
                4,
                {
                    "records": "9efb3db7ea105020a07f2b91aba2f222aaf840acfbb0a99a4c7dd3cb5d511c00",
                    "aggregate": "8a3876645cb8031ca6ba8ccec4e8078ea29f510f3ded2b1fb6fb9895db0486b4",
                    "summary": "e1f4c480edb53c35ad825f8940f8930fa2f9ce1762e1411d1d006a9c7ff01826",
                },
            ),
            (
                _demo("prescient"),
                20,
                {"records": "d3bba1e88acd4ef862272444ec3b981b592e623a27b85707401eeab61092a407"},
            ),
            (
                _demo("estimate"),
                20,
                {"records": "e1a7e6c4757e540709a926ad29dd634046435bfc204adbf9aacd88b06f625463"},
            ),
            (
                OUTPUT_CASES["estimate-mad"],
                20,
                {"records": "3e724773666ff1c19f17675e6ac3e2fc99b9a0279cd2d44800bb6f4f7c772f5c"},
            ),
            (
                MINIMAL,
                20,
                {"records": "7dbe28314332af9e449593e8731d7b629d91a597b2be439021190cd85f981a32"},
            ),
            (
                _demo("lb").replace("p = [0.6, 0.4]", "p = [0.6, 0.4, 0.4, 0.4]"),
                10,
                {"records": "3ec466ed011cff64ed34b2f0481655a63b920fc0d17283708cac908e8787b52c"},
            ),
            (
                _demo("lb").replace("p = [0.6, 0.4]", "p = [0.55, 0.45]"),
                10,
                {"records": "f68c8cf805969ed40fe1d0af377a128cd4a5f56b172ee3c565812fd20fd93f22"},
            ),
            (
                _demo("bai"),
                20,
                {"records": "38dd14da8980f98cbeebec3a9ebea1530da0b47ba45904a5d67d8536972d70d8"},
            ),
            (
                _demo("lb").replace("model = oblivious", "model = malicious"),
                4,
                {
                    "records": "9936fbebd6a1b32173edb4ea402df45073df760af7b3524094768c80b4a37956",
                    "aggregate": "051c34f6390b86a2ce1456f18d38c3d54881adbc6b4365c8f7e112402becb969",
                    "summary": "c4a0fc06f99dd1e8212f55cbbff7a1524124c41c86e1e8a71df85f293e18e808",
                },
            ),
        ],
        ids=[
            "lb",
            "prescient",
            "estimate-median",
            "estimate-mad",
            "bai-simple",
            "lb-k4",
            "lb-narrow",
            "bai-tail-shift",
            "lb-malicious",
        ],
    )
    def test_racing_records_are_pinned(self, tmp_path, text, replications, digests):
        """sha256 of ``records.csv`` for racing and estimation runs, and of the
        lifted runs' ``aggregate.csv`` and ``summary.txt`` too. Every digest
        of a drawn record was recorded when replications moved from PCG64 to
        SFC64 generators; the bai-simple one, whose records hold no drawn
        value, dates from when each experiment kind handed the replication
        engine a closure instead of a spec."""
        text = re.sub(r"replications = \d+", f"replications = {replications}", text)
        result = run_experiment(parse_config(text), out_dir=tmp_path)
        got = {name: hashlib.sha256(result.files[name].read_bytes()).hexdigest() for name in digests}
        assert got == digests

    @pytest.mark.parametrize(
        "kind", ["estimate-median", "estimate-mad", "bai-simple", "bai-succelim", "lower-bound"]
    )
    def test_replication_spec_survives_pickle(self, tmp_path, kind):
        """Each replicating kind hands the engine one spec; a pickled copy
        equals it and gives the same row on an equal stream."""
        spec = _spec_of(OUTPUT_CASES[kind], tmp_path)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert copy.row(replication_rng(3, 0)) == spec.row(replication_rng(3, 0))

    def test_estimate_median_experiment(self, tmp_path):
        text = """
[experiment]
kind = estimate-median
replications = 20
seed = 11

[instance]
model = oblivious
eps = 0.1
arm = {dist: {kind: uniform, lo: 0.0, hi: 1.0}, strategy: {kind: shift_median_up, magnitude: 1e6}}

[algorithm]
delta = 0.1
eps0 = 0.1
t_bar = 0.4
slope_bound = 4.0
mad_bound = 0.25
error_level = 0.1
"""
        config = parse_config(text)
        result = run_experiment(config, out_dir=tmp_path)
        assert result.exit_code == 0
        assert result.summary["success_rate"] >= 0.9

    def test_gaps_experiment(self, tmp_path):
        # gaps reads only the family bounds of the race's [algorithm] keys
        text = MINIMAL.replace("kind = bai-simple", "kind = gaps").split("[algorithm]")[0]
        family = "[algorithm]\nt_bar = 0.4\nslope_bound = 4.0\nmad_bound = 0.25\n"
        config = parse_config(text + family)
        result = run_experiment(config, out_dir=tmp_path)
        assert result.exit_code == 0
        lines = result.files["records"].read_text().splitlines()
        assert lines[0].startswith("arm,median,mad,bias,effective_gap")
        assert len(lines) == 3
        best = int(result.summary["best_arm"])
        for line in lines[1:]:
            cells = line.split(",")
            if int(cells[0]) == best:
                assert cells[4] == ""
            else:
                assert math.isfinite(float(cells[4]))

    def test_lower_bound_experiment(self, tmp_path):
        config = parse_config(LOWER_BOUND)
        result = run_experiment(config, out_dir=tmp_path)
        assert result.exit_code == 0
        agg = result.files["aggregate"].read_text().splitlines()
        assert agg[0] == "k,gap,delta,lb_value,mean_pulls,ratio,success_rate"
        assert len(agg) == 2

    def test_verify_experiment_exit_codes(self, tmp_path):
        config = parse_config(
            "[experiment]\nkind = verify\nseed = 1\nsuites = [kl, delta-budget]\n"
        )
        result = run_experiment(config, out_dir=tmp_path)
        assert result.exit_code == 0
        SUITES["always-fails"] = lambda rng: SuiteResult("always-fails", False, {})
        try:
            config.suites = ("always-fails",)
            result = run_experiment(config, out_dir=tmp_path / "fail")
            assert result.exit_code == 1
        finally:
            del SUITES["always-fails"]

    @pytest.mark.parametrize("kind", list(OUTPUT_CASES))
    def test_result_describes_what_was_written(self, tmp_path, kind):
        """``result.files`` names exactly the files written, ``summary.txt``
        last, and ``result.summary`` holds the lines of ``summary.txt``."""
        config = parse_config(OUTPUT_CASES[kind])
        assert config.kind == kind
        result = run_experiment(config, out_dir=tmp_path)
        assert {path.parent for path in result.files.values()} == {tmp_path}
        assert sorted(path.name for path in result.files.values()) == sorted(os.listdir(tmp_path))
        assert list(result.files)[-1] == "summary"
        lines = result.files["summary"].read_text().splitlines()
        assert [line.split(" = ")[0] for line in lines] == list(result.summary)

    def test_failed_run_leaves_no_output_directory(self, tmp_path):
        config = parse_config(MINIMAL)
        config.algorithm["alpha"] = 0.0
        with pytest.raises(rb.RobanditError, match="alpha > 0"):
            run_experiment(config, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unknown_suite_rejected(self):
        with pytest.raises(rb.RobanditError):
            run_suites(["no-such-suite"], seed=0)
        with pytest.raises(TypeMismatchError, match=r"nope.*\(key 'suites', line 3\)"):
            parse_config("[experiment]\nkind = verify\nsuites = [kl, nope]\n")

    def test_empty_suite_list_rejected(self):
        with pytest.raises(TypeMismatchError, match=r"at least one.*\(key 'suites', line 3\)"):
            parse_config("[experiment]\nkind = verify\nsuites = []\n")

    def test_repeated_suite_rejected(self):
        """A suite named twice would run twice and write two rows of its name."""
        with pytest.raises(TypeMismatchError, match=r"repeated verify suites: kl \(key 'suites'\)"):
            run_suites(["kl", "quality", "kl"], seed=0)
        with pytest.raises(TypeMismatchError, match=r"repeated.*: kl \(key 'suites', line 3\)"):
            parse_config("[experiment]\nkind = verify\nsuites = [kl, quality, kl]\n")

    def test_suite_stream_does_not_depend_on_selection(self):
        full = {result.name: result.detail() for result in run_suites(seed=1)}
        for name in ("tail-shift", "quality"):
            alone = run_suites([name], seed=1)[0].detail()
            after_kl = run_suites(["kl", name], seed=1)[1].detail()
            assert alone == after_kl == full[name]

    @pytest.mark.parametrize(
        "name, cells",
        [("coverage-median", 5), ("coverage-mad", 5), ("malicious-tightness", 1),
         ("pac-simple", 1), ("pac-succelim", 2), ("quality", 1)],
    )
    def test_monte_carlo_suite_cells_replay_alone(self, monkeypatch, name, cells):
        """Each cell of a Monte Carlo suite is one engine call, all on one
        seed; its spec survives pickle, and the engine run on that seed alone
        returns the cell's rows."""
        calls = []
        engine = runner._run_replications

        def capture(seed, replications, parallelism, spec):
            rows = engine(seed, replications, parallelism, spec)
            calls.append((seed, replications, spec, rows))
            return rows

        monkeypatch.setattr(runner, "_run_replications", capture)
        assert run_suites([name], seed=1)[0].passed
        assert len(calls) == cells
        assert len({seed for seed, *_ in calls}) == 1
        for seed, replications, spec, rows in calls:
            assert pickle.loads(pickle.dumps(spec)) == spec
            assert engine(seed, replications, 1, spec) == rows


def _cli_env(**overrides):
    """Environment for a child ``python -m robandit``: this checkout's ``src``
    first on PYTHONPATH, an inherited ROBANDIT_SEED dropped, then ``overrides``."""
    env = {k: v for k, v in os.environ.items() if k != "ROBANDIT_SEED"}
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


class TestCli:
    def _run(self, *args, **env_overrides):
        return subprocess.run(
            [sys.executable, "-m", "robandit", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=_cli_env(**env_overrides),
        )

    def test_bai_roundtrip(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINIMAL)
        proc = self._run("bai", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "records.csv").exists()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINIMAL)
        out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
        assert self._run("bai", "--config", str(cfg), "--out", str(out1)).returncode == 0
        assert (
            self._run("bai", "--config", str(cfg), "--out", str(out2), "--seed", "99").returncode
            == 0
        )
        assert self._run("bai", "--config", str(cfg), "--out", str(out3)).returncode == 0
        rec = lambda p: (p / "records.csv").read_bytes()
        assert rec(out1) == rec(out3)
        assert rec(out1) != rec(out2)

    def test_config_error_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL.replace("alpha", "alpa"))
        proc = self._run("bai", "--config", str(cfg))
        assert proc.returncode == 2
        assert "alpa" in proc.stderr

    def test_out_of_range_value_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINIMAL.replace("delta = 0.2", "delta = 0.0"))
        proc = self._run("bai", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "delta must lie in (0, 1)" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_out_of_range_family_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "gaps.cfg"
        cfg.write_text(_demo("gaps").replace("t_bar = 0.4", "t_bar = 0.7"))
        proc = self._run("gaps", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "t_bar must lie in (0, 1/2)" in proc.stderr
        assert "key 't_bar'" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_command_kind_mismatch(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINIMAL)
        proc = self._run("estimate", "--config", str(cfg))
        assert proc.returncode == 2

    @pytest.mark.parametrize("kind", list(_KINDS))
    def test_each_kind_runs_under_its_command_only(self, tmp_path, monkeypatch, capsys, kind):
        """In process: a kind's config runs under its own command and is a
        usage error that writes nothing under every other command."""
        monkeypatch.delenv("ROBANDIT_SEED", raising=False)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(OUTPUT_CASES[kind])
        for command in dict.fromkeys(spec.command for spec in _KINDS.values()):
            out = tmp_path / command
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            if command == _KINDS[kind].command:
                assert code == 0, capsys.readouterr().err
                assert (out / "summary.txt").exists()
            else:
                assert code == 2
                assert not out.exists()

    @pytest.mark.parametrize(
        "command, base, old, new, key",
        [
            ("bai", "minimal", "alpha = 0.3", "alpha = 0.0", "alpha"),
            ("lb", "lower-bound", "p = [0.6, 0.4]", "p = [0.5, 0.5]", "p"),
            ("bai", "bai", _BAI_ARM, _FLAT_ARM, "arm"),
            ("gaps", "gaps", _BAI_ARM, _FLAT_ARM, "arm"),
            ("lb", "lower-bound", "p = [0.6, 0.4]", f"p = [0.6, 0.4]\narm = {_FLAT_ARM}", "arm"),
            # contamination above its known upper bound
            ("bai", "bai", "eps = 0.1", "eps = 0.2", "eps0"),
            # a uniform whose width overflows
            ("estimate", "estimate", "lo: 0.0, hi: 1.0", "lo: -1e308, hi: 1e308", "arm"),
            # a gaussian whose draws overflow
            ("estimate", "estimate", "kind: uniform, lo: 0.0, hi: 1.0", "kind: gaussian, mu: 0.0, sigma: 1e308", "arm"),
            # a coupling whose flip probability is no probability, or that flags above eps
            ("estimate", "estimate", *_malicious_coupling(7.0), "arm"),
            ("estimate", "estimate", *_malicious_coupling(0.9), "arm"),
            # a lower bound that underflows to 0 or overflows
            ("lb", "lb", "c_eta = 1.0", "c_eta = 5e-324", "c_eta"),
            ("lb", "lb", "c_eta = 1.0", "c_eta = 1e308", "c_eta"),
            # uniform exploration past the draw cap
            ("bai", "minimal", "alpha = 0.3", "alpha = 1e-5", "alpha"),
        ],
    )
    def test_config_the_runner_cannot_run_is_usage_error(
        self, tmp_path, capsys, command, base, old, new, key
    ):
        """Rejected at parse time with its key and line: exit 2, no output directory."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_BASES[base].replace(old, new))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"(key {key!r}, line " in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_result_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """A non-finite value that reaches the writer fails the run (exit 1)
        before the output directory is made."""
        monkeypatch.setattr(runner, "draw_sample", lambda arm, n, rng: np.full(n, np.inf))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(OUTPUT_CASES["estimate-median"])
        out = tmp_path / "out"
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "refusing to write non-finite value inf to CSV" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        """A --config that cannot be read, here a directory, is named in a usage error."""
        out = tmp_path / "out"
        assert cli.main(["bai", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert f"cannot read --config {str(tmp_path)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "flag-below-file", "config"])
    def test_output_path_that_is_no_directory_is_usage_error(self, tmp_path, monkeypatch, capsys, source):
        """Rejected before the experiment runs: exit 2, and nothing is written."""

        def ran(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(runner, "_run_replications", ran)
        notes = tmp_path / "notes.txt"
        notes.write_text("kept\n")
        cfg = tmp_path / "exp.cfg"
        out = {"flag": notes, "flag-below-file": notes / "out", "config": None}[source]
        cfg.write_text(MINIMAL if out else MINIMAL + f'\n[output]\ndir = "{notes}"\n')
        args = ["bai", "--config", str(cfg)] + (["--out", str(out)] if out else [])
        assert cli.main(args) == 2
        assert f"{str(notes)!r} is not a directory" in capsys.readouterr().err
        assert notes.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [cfg, notes]

    def test_verify_with_suites_flag(self, tmp_path):
        proc = self._run(
            "verify", "--suites", "kl,delta-budget", "--out", str(tmp_path / "v"), "--seed", "3"
        )
        assert proc.returncode == 0, proc.stderr
        assert "all_passed = True" in proc.stdout

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_suite_is_usage_error(self, tmp_path, source):
        if source == "flag":
            proc = self._run("verify", "--suites", "kl,nope", "--out", str(tmp_path / "out"))
        else:
            cfg = tmp_path / "verify.cfg"
            cfg.write_text("[experiment]\nkind = verify\nsuites = [kl, nope]\n")
            proc = self._run("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "unknown verify suites: nope" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_suite_list_is_usage_error(self, tmp_path, capsys, source):
        """An empty list is an error, not a request for every suite."""
        out = tmp_path / "out"
        if source == "flag":
            args = ["verify", "--suites", ","]
        else:
            cfg = tmp_path / "verify.cfg"
            cfg.write_text("[experiment]\nkind = verify\nsuites = []\n")
            args = ["verify", "--config", str(cfg)]
        assert cli.main([*args, "--out", str(out)]) == 2
        assert "suites must name at least one verify suite (key 'suites'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_suite_is_usage_error(self, tmp_path, capsys, source):
        out = tmp_path / "out"
        if source == "flag":
            args, where = ["verify", "--suites", "kl,kl"], "(key 'suites')"
        else:
            cfg = tmp_path / "verify.cfg"
            cfg.write_text("[experiment]\nkind = verify\nsuites = [kl, kl]\n")
            args, where = ["verify", "--config", str(cfg)], "(key 'suites', line 3)"
        assert cli.main([*args, "--out", str(out)]) == 2
        assert f"repeated verify suites: kl {where}" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINIMAL)
        out_env, out_flag = tmp_path / "e", tmp_path / "f"
        proc = self._run("bai", "--config", str(cfg), "--out", str(out_env), ROBANDIT_SEED="424242")
        assert proc.returncode == 0, proc.stderr
        proc = self._run("bai", "--config", str(cfg), "--out", str(out_flag), "--seed", "424242")
        assert proc.returncode == 0, proc.stderr
        assert (out_env / "records.csv").read_bytes() == (out_flag / "records.csv").read_bytes()

    def test_start_up_without_scipy(self, tmp_path):
        # a race or lower bound on non-Gaussian arms never loads scipy
        blocked = tmp_path / "blocked"
        (blocked / "scipy").mkdir(parents=True)
        (blocked / "scipy" / "__init__.py").write_text('raise ImportError("scipy blocked")\n')
        path = os.pathsep.join([str(blocked), _cli_env()["PYTHONPATH"]])
        probe = [sys.executable, "-c", "import scipy.special"]
        proc = subprocess.run(probe, capture_output=True, text=True, env=_cli_env(PYTHONPATH=path))
        assert proc.returncode != 0 and "scipy blocked" in proc.stderr
        runs = [
            ("lb", "lb", "replications = 100", "replications = 2"),
            ("bai", "prescient", "replications = 20", "replications = 1"),
        ]
        for command, demo, old, new in runs:
            text = _demo(demo)
            assert old in text
            cfg = tmp_path / f"{demo}.cfg"
            cfg.write_text(text.replace(old, new))
            out = tmp_path / demo
            proc = self._run(command, "--config", str(cfg), "--out", str(out), PYTHONPATH=path)
            assert proc.returncode == 0, proc.stderr
            assert (out / "records.csv").exists()
        probe = [sys.executable, "-c", "import sys, robandit.harness; print('scipy' in sys.modules)"]
        proc = subprocess.run(probe, capture_output=True, text=True, env=_cli_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_harness(self):
        """The library imports without the experiment harness."""
        probe = [
            sys.executable,
            "-c",
            "import sys, robandit; print([m for m in sys.modules if m.startswith('robandit.harness')])",
        ]
        proc = subprocess.run(probe, capture_output=True, text=True, env=_cli_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_out_of_range_seed_rejected(self, tmp_path, seed, source):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINIMAL)
        args = ("bai", "--config", str(cfg), "--out", str(tmp_path / "out"))
        if source == "flag":
            proc = self._run(*args, f"--seed={seed}")
        else:
            proc = self._run(*args, ROBANDIT_SEED=seed)
        assert proc.returncode == 2
        assert "seed must be a 64-bit unsigned integer" in proc.stderr
        assert not (tmp_path / "out").exists()


    def test_non_integer_env_seed_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINIMAL)
        proc = self._run("bai", "--config", str(cfg), "--out", str(tmp_path / "out"), ROBANDIT_SEED="abc")
        assert proc.returncode == 2
        assert "ROBANDIT_SEED must be an integer" in proc.stderr
        assert not (tmp_path / "out").exists()


def test_quality_suite_artifact_serialized(tmp_path):
    from robandit.harness.config import ExperimentConfig

    config = ExperimentConfig(kind="verify", replications=1, seed=2, suites=("quality",))
    result = run_experiment(config, out_dir=tmp_path)
    assert result.exit_code == 0
    table = result.files["quality"].read_text().splitlines()
    assert table[0] == "t,threshold,probability_floor"
    assert len(table) == 4


def test_readme_config_format_names_every_key_and_kind():
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    names = list(_ALGORITHM) + list(_DISTRIBUTIONS) + list(_STRATEGIES)
    assert [name for name in names if f"`{name}" not in section and f"{name} =" not in section] == []


def test_readme_example_config_parses():
    """The example under "Config format" sets only keys its kind reads."""
    readme = (REPO_ROOT / "README.md").read_text()
    example = readme.split("## Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config(example).kind == "bai-succelim"
