import math
import os
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
    run_experiment,
    wilson_interval,
)
from robandit.harness.config import distribution_from_spec, strategy_from_spec
from robandit.harness.verify import SUITES, SuiteResult, run_suites

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

    @pytest.mark.parametrize(
        "text, files",
        [
            (MINIMAL, ("records", "summary")),
            (LOWER_BOUND, ("records", "summary", "aggregate")),
        ],
        ids=["bai-simple", "lower-bound"],
    )
    def test_byte_identical_across_parallelism(self, tmp_path, text, files):
        config = parse_config(text)
        blobs = []
        for name, parallelism in (("a", 1), ("b", 8)):
            result = run_experiment(config, parallelism=parallelism, out_dir=tmp_path / name)
            blobs.append(b"".join(result.files[f].read_bytes() for f in files))
        assert blobs[0] == blobs[1]

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

    def test_unknown_suite_rejected(self):
        with pytest.raises(rb.RobanditError):
            run_suites(["no-such-suite"], seed=0)


REPO_ROOT = Path(__file__).resolve().parents[1]


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

    def test_env_seed_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(MINIMAL)
        out_env, out_flag = tmp_path / "e", tmp_path / "f"
        proc = self._run("bai", "--config", str(cfg), "--out", str(out_env), ROBANDIT_SEED="424242")
        assert proc.returncode == 0, proc.stderr
        proc = self._run("bai", "--config", str(cfg), "--out", str(out_flag), "--seed", "424242")
        assert proc.returncode == 0, proc.stderr
        assert (out_env / "records.csv").read_bytes() == (out_flag / "records.csv").read_bytes()


def test_quality_suite_artifact_serialized(tmp_path):
    from robandit.harness.config import ExperimentConfig

    config = ExperimentConfig(kind="verify", replications=1, seed=2, suites=("quality",))
    result = run_experiment(config, out_dir=tmp_path)
    assert result.exit_code == 0
    table = result.files["quality"].read_text().splitlines()
    assert table[0] == "t,threshold,probability_floor"
    assert len(table) == 4
