"""Seeded replication runner with deterministic CSV/summary output.

Replication i derives its own 64-bit seed as ``mix_seed(seed, i)`` (the
SplitMix64 finalizer applied to ``seed + (i + 1) * 0x9E3779B97F4A7C15``, all
mod 2**64) and feeds it to a fresh PCG64 generator, so results are identical
at any parallelism level; rows are always emitted in replication order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..bandit import (
    AlgoConfig,
    BanditInstance,
    effective_gaps,
    run_contaminated_successive_elimination,
    run_simple,
)
from ..contamination import draw_batch
from ..distributions import robust_moments
from ..errors import ParameterOutOfRangeError, RobanditError
from ..estimators import (
    estimate_mad_ci,
    estimate_median_ci,
    sample_size_mad,
    sample_size_median,
)
from ..lower_bounds import LiftedInstance, lower_bound_samples, malicious_lifting, oblivious_lifting
from .config import ExperimentConfig

__all__ = [
    "mix_seed",
    "replication_rng",
    "ExperimentResult",
    "run_experiment",
    "wilson_interval",
    "HardnessReport",
    "hardness_probe",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(seed: int, index: int) -> int:
    """SplitMix64-style mixing of (seed, replication index) into a 64-bit seed."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def replication_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(mix_seed(seed, index)))


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise RobanditError(f"refusing to write non-finite value {value} to CSV")
        return repr(value)
    return str(value)


def write_csv(path: Path, columns: list[str], rows: list[dict[str, Any]]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def write_summary(path: Path, entries: list[tuple[str, Any]]) -> None:
    path.write_text("".join(f"{k} = {_format_cell(v)}\n" for k, v in entries))


@dataclass(frozen=True)
class ExperimentResult:
    exit_code: int
    files: dict[str, Path]
    summary: dict[str, Any]


def _run_replications(
    seed: int,
    replications: int,
    parallelism: int,
    worker: Callable[[int, np.random.Generator], dict[str, Any]],
) -> list[dict[str, Any]]:
    indices = range(replications)

    def call(i: int) -> dict[str, Any]:
        record = worker(i, replication_rng(seed, i))
        return {"replication": i, "seed": mix_seed(seed, i), **record}

    if parallelism <= 1:
        return [call(i) for i in indices]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(call, indices))


_RACE_COLUMNS = ["replication", "seed", "chosen_arm", "total_pulls", "rounds", "terminated_by", "success"]


def _race_rows(
    seed: int,
    replications: int,
    parallelism: int,
    race: Callable[[np.random.Generator], Any],
    is_success: Callable[[int], bool],
) -> list[dict[str, Any]]:
    """One ``_RACE_COLUMNS`` row per replication of ``race(rng)``."""

    def worker(_i: int, rng: np.random.Generator) -> dict[str, Any]:
        result = race(rng)
        return {
            "chosen_arm": result.chosen_arm,
            "total_pulls": result.total_pulls,
            "rounds": result.rounds,
            "terminated_by": result.terminated_by,
            "success": is_success(result.chosen_arm),
        }

    return _run_replications(seed, replications, parallelism, worker)


def _pull_stats(rows: list[dict[str, Any]]) -> list[tuple[str, Any]]:
    pulls = [row["total_pulls"] for row in rows]
    return [
        ("mean_total_pulls", float(np.mean(pulls))),
        ("median_total_pulls", float(np.median(pulls))),
    ]


def _success_stats(rows: list[dict[str, Any]], key: str = "success") -> list[tuple[str, Any]]:
    n = len(rows)
    wins = sum(1 for row in rows if row[key])
    lo, hi = wilson_interval(wins, n)
    return [
        ("replications", n),
        ("success_rate", wins / n),
        ("wilson_low", lo),
        ("wilson_high", hi),
    ]


def run_experiment(
    config: ExperimentConfig, parallelism: int = 1, out_dir: str | Path | None = None
) -> ExperimentResult:
    """Execute one experiment; writes records.csv and summary.txt (plus
    aggregate.csv for lower-bound runs) into the output directory."""
    target = Path(out_dir if out_dir is not None else (config.out_dir or "out"))
    target.mkdir(parents=True, exist_ok=True)
    kind = config.kind

    if kind == "verify":
        return _run_verify(config, target)

    if kind == "gaps":
        return _run_gaps(config, target)

    if kind in ("estimate-median", "estimate-mad"):
        columns, rows, summary = _run_estimate(config, parallelism)
    elif kind == "bai-simple":
        columns, rows, summary = _run_bai(config, parallelism, simple=True)
    elif kind == "bai-succelim":
        columns, rows, summary = _run_bai(config, parallelism, simple=False)
    elif kind == "lower-bound":
        return _run_lower_bound(config, parallelism, target)
    else:
        raise RobanditError(f"unhandled experiment kind {kind}")

    records = target / "records.csv"
    summary_path = target / "summary.txt"
    write_csv(records, columns, rows)
    write_summary(summary_path, summary)
    return ExperimentResult(
        exit_code=0,
        files={"records": records, "summary": summary_path},
        summary=dict(summary),
    )


def _run_estimate(config: ExperimentConfig, parallelism: int):
    arm = config.arms[0]
    params = config.estimation_params()
    delta = config.algorithm["delta"]
    error_level = config.algorithm["error_level"]
    want_mad = config.kind == "estimate-mad"
    if want_mad:
        n = sample_size_mad(error_level, delta, params)
    else:
        n = sample_size_median(error_level, delta, params)
    moments = robust_moments(arm.dist)
    truth = moments.mad if want_mad else moments.median
    if config.algorithm.get("mad_source", "true") == "bound":
        mad_used = config.family().mad_bound
    else:
        mad_used = moments.mad

    def worker(_i: int, rng: np.random.Generator) -> dict[str, Any]:
        xs = draw_batch(arm, n, rng)
        if want_mad:
            report = estimate_mad_ci(xs, delta, params, mad_used)
        else:
            report = estimate_median_ci(xs, delta, params, mad_used)
        covered = abs(report.estimate - truth) <= report.bias + report.half_width
        return {
            "statistic": report.statistic,
            "estimate": report.estimate,
            "bias": report.bias,
            "half_width": report.half_width,
            "n": report.n,
            "model": report.model.value,
            "covered": covered,
        }

    rows = _run_replications(config.seed, config.replications, parallelism, worker)
    columns = [
        "replication",
        "seed",
        "statistic",
        "estimate",
        "bias",
        "half_width",
        "n",
        "model",
        "covered",
    ]
    summary = _success_stats(rows, key="covered")
    summary += [
        ("mean_total_pulls", float(n)),
        ("median_total_pulls", float(n)),
        ("true_value", truth),
    ]
    return columns, rows, summary


def _algo_config(config: ExperimentConfig) -> AlgoConfig:
    alg = config.algorithm
    return AlgoConfig(
        alpha=alg.get("alpha", 0.0),
        delta=alg["delta"],
        family=config.family(),
        eps0=alg["eps0"],
        max_rounds=alg.get("max_rounds", 10**6),
        early_stop=alg.get("early_stop", False),
        threshold_variant=alg.get("threshold_variant", "squared-slope"),
    )


def _run_bai(config: ExperimentConfig, parallelism: int, simple: bool):
    instance = BanditInstance(config.arms)
    algo = _algo_config(config)
    report = effective_gaps(instance, algo.family)
    alpha = config.algorithm.get("alpha", 0.0)

    def is_success(chosen: int) -> bool:
        if simple or algo.early_stop:
            gap = report.gaps[chosen]
            return gap is None or gap <= alpha
        return chosen == report.best_arm

    run = run_simple if simple else run_contaminated_successive_elimination
    rows = _race_rows(
        config.seed,
        config.replications,
        parallelism,
        lambda rng: run(instance, algo, rng),
        is_success,
    )
    summary = _success_stats(rows) + _pull_stats(rows)
    summary.append(("best_arm", report.best_arm))
    return _RACE_COLUMNS, rows, summary


def _run_gaps(config: ExperimentConfig, target: Path) -> ExperimentResult:
    instance = BanditInstance(config.arms)
    report = effective_gaps(instance, config.family())
    rows = [
        {
            "arm": i,
            "median": report.medians[i],
            "mad": report.mads[i],
            "bias": report.biases[i],
            # the best arm has no gap of its own and gets an empty cell
            "effective_gap": report.gaps[i],
            "is_best": i == report.best_arm,
            "feasible": report.gaps[i] is None or report.gaps[i] > 0.0,
        }
        for i in range(instance.k)
    ]
    records = target / "records.csv"
    write_csv(
        records,
        ["arm", "median", "mad", "bias", "effective_gap", "is_best", "feasible"],
        rows,
    )
    summary_path = target / "summary.txt"
    infeasible = report.infeasible_arms
    write_summary(
        summary_path,
        [
            ("best_arm", report.best_arm),
            ("infeasible_arms", ";".join(map(str, infeasible)) or "none"),
        ],
    )
    return ExperimentResult(
        exit_code=0,
        files={"records": records, "summary": summary_path},
        summary={"best_arm": report.best_arm},
    )


@dataclass(frozen=True)
class HardnessReport:
    k: int
    gaps: tuple[float, ...]
    delta: float
    lb_value: float
    mean_pulls: float
    mean_rounds: float
    ratio: float
    success_rate: float

    def as_row(self) -> dict[str, float]:
        return {
            "k": self.k,
            "gap": min(self.gaps) if self.gaps else 0.0,
            "delta": self.delta,
            "lb_value": self.lb_value,
            "mean_pulls": self.mean_pulls,
            "ratio": self.ratio,
            "success_rate": self.success_rate,
        }


def _race_lifted(
    lifted: LiftedInstance,
    algo: AlgoConfig,
    replications: int,
    seed: int,
    c_eta: float,
    parallelism: int,
) -> tuple[list[dict[str, Any]], HardnessReport]:
    """Race every replication on the lifted instance (best arm at index 0) and
    compare the mean pull count with the lower bound."""
    gaps = lifted.classical_gaps
    # a single arm has nothing to separate; the bound degenerates to zero
    lb_value = lower_bound_samples(gaps, algo.alpha, algo.delta, c_eta) if gaps else 0.0
    instance = lifted.instance()
    rows = _race_rows(
        seed,
        replications,
        parallelism,
        lambda rng: run_contaminated_successive_elimination(instance, algo, rng),
        lambda chosen: chosen == 0,
    )
    mean_pulls = float(np.mean([r["total_pulls"] for r in rows]))
    report = HardnessReport(
        k=lifted.k,
        gaps=gaps,
        delta=algo.delta,
        lb_value=lb_value,
        mean_pulls=mean_pulls,
        mean_rounds=float(np.mean([r["rounds"] for r in rows])),
        ratio=mean_pulls / lb_value if lb_value > 0 else math.inf,
        success_rate=sum(1 for r in rows if r["success"]) / len(rows),
    )
    return rows, report


def hardness_probe(
    lifted: LiftedInstance,
    config: AlgoConfig,
    replications: int,
    seed: int,
    c_eta: float = 1.0,
    parallelism: int = 1,
) -> HardnessReport:
    """Run the racing algorithm on a lifted instance and compare its pull count
    with the lower bound. Reports the ratio; with an uncalibrated ``c_eta`` the
    ratio is a trend measurement, not a certified bound. Replication i races on
    ``replication_rng(seed, i)``, as ``robandit lb`` does, concurrently up to
    ``parallelism``."""
    if replications < 100:
        raise ParameterOutOfRangeError("hardness probe needs at least 100 replications")
    return _race_lifted(lifted, config, replications, seed, c_eta, parallelism)[1]


def _run_lower_bound(config: ExperimentConfig, parallelism: int, target: Path) -> ExperimentResult:
    if config.model.value == "malicious":
        lifted = malicious_lifting(config.p, config.eps)
    else:
        lifted = oblivious_lifting(config.p, config.eps)
    rows, report = _race_lifted(
        lifted,
        _algo_config(config),
        config.replications,
        config.seed,
        config.algorithm.get("c_eta", 1.0),
        parallelism,
    )
    records = target / "records.csv"
    write_csv(records, _RACE_COLUMNS, rows)
    aggregate = target / "aggregate.csv"
    row = report.as_row()
    write_csv(aggregate, list(row), [row])
    summary_path = target / "summary.txt"
    summary = _success_stats(rows) + _pull_stats(rows)
    summary += [("lb_value", report.lb_value), ("ratio", report.ratio)]
    write_summary(summary_path, summary)
    return ExperimentResult(
        exit_code=0,
        files={"records": records, "aggregate": aggregate, "summary": summary_path},
        summary=dict(summary),
    )


def _run_verify(config: ExperimentConfig, target: Path) -> ExperimentResult:
    from .verify import run_suites

    results = run_suites(config.suites or None, seed=config.seed)
    rows = [
        {
            "suite": res.name,
            "passed": res.passed,
            "detail": res.detail(),
        }
        for res in results
    ]
    records = target / "records.csv"
    write_csv(records, ["suite", "passed", "detail"], rows)
    extra_files = {}
    for res in results:
        if res.artifact is not None:
            columns, artifact_rows = res.artifact
            path = target / f"{res.name}.csv"
            write_csv(path, columns, artifact_rows)
            extra_files[res.name] = path
    all_passed = all(res.passed for res in results)
    summary_path = target / "summary.txt"
    write_summary(
        summary_path,
        [("suites_run", len(results)), ("all_passed", all_passed)]
        + [(res.name, "pass" if res.passed else "FAIL") for res in results],
    )
    return ExperimentResult(
        exit_code=0 if all_passed else 1,
        files={"records": records, "summary": summary_path, **extra_files},
        summary={"all_passed": all_passed},
    )
