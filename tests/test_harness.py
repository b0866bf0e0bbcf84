import dataclasses
import hashlib
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import robandit as rb
from robandit.harness import (
    FeasibilityViolationError,
    TypeMismatchError,
    UnknownKeyError,
    mix_seed,
    parse_config,
    replication_rng,
    run_experiment,
    wilson_interval,
)
from robandit.harness import runner
from robandit.harness.config import (
    _ALGORITHM,
    EXPERIMENT_KINDS,
    _DISTRIBUTIONS,
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
        # without unique medians there are no effective gaps to judge by
        flat = twins.replace(
            "{kind: uniform, lo: 0.0, hi: 1.0}, strategy: {kind: uniform_tail_shift, direction: 1}",
            "{kind: bernoulli, p: 0.5}, strategy: {kind: shift_median_up}",
        )
        assert parse_config(flat).kind == "bai-succelim"

    @pytest.mark.parametrize(
        "base, old, new, key",
        [
            ("minimal", "delta = 0.2", "delta = 0.0", "delta"),
            ("estimate", "delta = 0.1", "delta = 1.5", "delta"),
            ("minimal", "alpha = 0.3", "alpha = -1.0", "alpha"),
            ("estimate", "error_level = 0.05", "error_level = -0.1", "error_level"),
            ("minimal", "delta = 0.2", "delta = 0.2\nmax_rounds = 0", "max_rounds"),
            ("minimal", "delta = 0.2", "delta = 0.2\nthreshold_variant = cubic", "threshold_variant"),
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
            ("lower-bound", "delta = 0.1", "delta = 0.2", "delta"),
            ("lower-bound", "p = [0.6, 0.4]", "p = [0.7, 0.4]", "p"),
            ("lower-bound", "p = [0.6, 0.4]", "p = [0.6, 0.3]", "p"),
        ],
    )
    def test_out_of_range_algorithm_value_rejected(self, base, old, new, key):
        text = {
            "minimal": MINIMAL,
            "estimate": (REPO_ROOT / "configs" / "estimate_demo.cfg").read_text(),
            "lower-bound": LOWER_BOUND,
            "gaps": _demo("gaps"),
        }[base]
        assert old in text
        parse_config(text)
        bad = text.replace(old, new)
        with pytest.raises(FeasibilityViolationError) as err:
            parse_config(bad)
        assert err.value.key == key
        assert bad.splitlines()[err.value.line - 1].startswith(f"{key} =")

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
        assert algorithm["threshold_variant"] == "squared-slope"
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
    "verify": "[experiment]\nkind = verify\nsuites = [quality]\n",
}
assert set(OUTPUT_CASES) == set(EXPERIMENT_KINDS)


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
            (OUTPUT_CASES["estimate-mad"], ("records", "summary")),
            (OUTPUT_CASES["bai-succelim"], ("records", "summary")),
        ],
        ids=["bai-simple", "lower-bound", "estimate-mad", "bai-succelim"],
    )
    def test_byte_identical_across_parallelism(self, tmp_path, text, files):
        config = parse_config(text)
        blobs = []
        for name, parallelism in (("a", 1), ("b", 8)):
            result = run_experiment(config, parallelism=parallelism, out_dir=tmp_path / name)
            blobs.append(b"".join(result.files[f].read_bytes() for f in files))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "text, replications, digest",
        [
            (_demo("lb"), 4, "d0c66b6eb548a7fd614fd09ce8264f61869e636c3a589a959b3b044d386bd3e3"),
            (_demo("prescient"), 20, "e536d46730e7ab36ae645e8f3254f0b7025a50ee439e120d655fd8e23b52bb38"),
            (_demo("estimate"), 20, "10f2fed4abf26544f123c7eb7e3a79ceed499bf78d3687e4843039b395ada67a"),
            (OUTPUT_CASES["estimate-mad"], 20, "36891c766e8a2026f78132fe917322f4fe4fa5a33d2a34491db6d3516a40bb9a"),
            (MINIMAL, 20, "7dbe28314332af9e449593e8731d7b629d91a597b2be439021190cd85f981a32"),
        ],
        ids=["lb", "prescient", "estimate-median", "estimate-mad", "bai-simple"],
    )
    def test_racing_records_are_pinned(self, tmp_path, text, replications, digest):
        """sha256 of ``records.csv`` for racing and estimation runs: the lb and
        prescient digests were recorded while the racing kernel kept every
        arm's pulls as one sorted array, the others while each experiment kind
        handed the replication engine a closure instead of a spec."""
        text = re.sub(r"replications = \d+", f"replications = {replications}", text)
        result = run_experiment(parse_config(text), out_dir=tmp_path)
        assert hashlib.sha256(result.files["records"].read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "kind", ["estimate-median", "estimate-mad", "bai-simple", "bai-succelim", "lower-bound"]
    )
    def test_replication_spec_survives_pickle(self, tmp_path, monkeypatch, kind):
        """Each replicating kind hands the engine one spec; a pickled copy
        equals it and gives the same row on an equal stream."""
        specs = []
        engine = runner._run_replications

        def capture(seed, replications, parallelism, spec):
            specs.append(spec)
            return engine(seed, replications, parallelism, spec)

        monkeypatch.setattr(runner, "_run_replications", capture)
        run_experiment(parse_config(OUTPUT_CASES[kind]), out_dir=tmp_path)
        (spec,) = specs
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
        text = MINIMAL.replace("kind = bai-simple", "kind = gaps")
        config = parse_config(text)
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

    def test_unknown_suite_rejected(self):
        with pytest.raises(rb.RobanditError):
            run_suites(["no-such-suite"], seed=0)
        with pytest.raises(TypeMismatchError, match=r"nope.*\(key 'suites', line 3\)"):
            parse_config("[experiment]\nkind = verify\nsuites = [kl, nope]\n")

    def test_suite_stream_does_not_depend_on_selection(self):
        full = {result.name: result.detail() for result in run_suites(seed=1)}
        alone = run_suites(["tail-shift"], seed=1)[0].detail()
        after_kl = run_suites(["kl", "tail-shift"], seed=1)[1].detail()
        assert alone == after_kl == full["tail-shift"]


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
