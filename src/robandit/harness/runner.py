"""Seeded replication runner with deterministic CSV/summary output.

Replication i derives its own 64-bit seed as ``mix_seed(seed, i)`` (the
SplitMix64 finalizer applied to ``seed + (i + 1) * 0x9E3779B97F4A7C15``, all
mod 2**64) and feeds it to a fresh PCG64 generator, so results are identical
at any parallelism level; rows are always emitted in replication order.

Every replicating experiment kind describes one replication as a spec: a
frozen, picklable dataclass (``RaceSpec`` or ``EstimateSpec``) whose
``row(rng)`` returns that replication's record. A spec holds data only; its
``row`` looks the racing, sampling and estimation functions up as module
globals at call time, so a tracer that rebinds those names sees every call.
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
from ..contamination import ContaminatedArm, draw_batch
from ..distributions import _median_mad
from ..errors import ParameterOutOfRangeError, RobanditError
from ..estimators import _BOUNDS, EstimationParams, estimate_mad_ci, estimate_median_ci
from ..lower_bounds import LiftedInstance, lower_bound_samples, malicious_lifting, oblivious_lifting
from .config import ExperimentConfig

__all__ = [
    "mix_seed",
    "replication_rng",
    "ExperimentResult",
    "RaceSpec",
    "EstimateSpec",
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


@dataclass(frozen=True)
class RaceSpec:
    """One race on ``instance``: uniform exploration when ``simple``, else the
    contaminated racing loop. The chosen arm succeeds if it is ``best_arm``,
    or, when ``gaps`` (effective gaps, ``None`` for the best arm) are given,
    if its gap is at most ``algo.alpha``."""

    instance: BanditInstance
    algo: AlgoConfig
    simple: bool
    best_arm: int
    gaps: tuple[float | None, ...] | None = None

    def row(self, rng: np.random.Generator) -> dict[str, Any]:
        run = run_simple if self.simple else run_contaminated_successive_elimination
        result = run(self.instance, self.algo, rng)
        chosen = result.chosen_arm
        return {
            "chosen_arm": chosen,
            "total_pulls": result.total_pulls,
            "rounds": result.rounds,
            "terminated_by": result.terminated_by,
            "success": chosen == self.best_arm
            or (self.gaps is not None and self.gaps[chosen] <= self.algo.alpha),
        }


@dataclass(frozen=True)
class EstimateSpec:
    """One interval estimate of ``arm``'s median or MAD (``statistic``) from
    ``n`` contaminated draws; covered if ``truth`` lies within bias + half-width."""

    arm: ContaminatedArm
    n: int
    statistic: str
    delta: float
    params: EstimationParams
    mad_used: float
    truth: float

    def row(self, rng: np.random.Generator) -> dict[str, Any]:
        estimate_ci = estimate_median_ci if self.statistic == "median" else estimate_mad_ci
        xs = draw_batch(self.arm, self.n, rng)
        report = estimate_ci(xs, self.delta, self.params, self.mad_used)
        return {
            "statistic": report.statistic,
            "estimate": report.estimate,
            "bias": report.bias,
            "half_width": report.half_width,
            "n": report.n,
            "model": report.model.value,
            "covered": abs(report.estimate - self.truth) <= report.bias + report.half_width,
        }


def _run_replications(
    seed: int, replications: int, parallelism: int, spec: RaceSpec | EstimateSpec
) -> list[dict[str, Any]]:
    """``spec.row`` of every replication, in replication order, each prefixed
    with its ``replication`` index and ``seed``; the first row's keys are the
    run's CSV columns."""

    def call(i: int) -> dict[str, Any]:
        return {"replication": i, "seed": mix_seed(seed, i), **spec.row(replication_rng(seed, i))}

    if parallelism <= 1:
        return [call(i) for i in range(replications)]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(call, range(replications)))


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
    """Execute one experiment; writes each of its tables to ``<name>.csv``
    (``records.csv`` always, ``aggregate.csv`` for lower-bound runs, one per
    verify artifact) and then ``summary.txt`` into the output directory."""
    target = Path(out_dir if out_dir is not None else (config.out_dir or "out"))
    target.mkdir(parents=True, exist_ok=True)
    tables, summary, exit_code = _RUNS[config.kind](config, parallelism)
    files = {}
    for name, (columns, rows) in tables.items():
        files[name] = target / f"{name}.csv"
        write_csv(files[name], columns, rows)
    files["summary"] = target / "summary.txt"
    write_summary(files["summary"], summary)
    return ExperimentResult(exit_code, files, dict(summary))


def _run_estimate(config: ExperimentConfig, parallelism: int):
    arm = config.arms[0]
    params = config.estimation_params()
    delta = config.algorithm["delta"]
    median, mad, _, _ = _median_mad(arm.dist)
    statistic = config.kind.removeprefix("estimate-")
    truth = median if statistic == "median" else mad
    n = _BOUNDS[statistic].sample_size(config.algorithm["error_level"], delta, params)
    mad_used = config.family().mad_bound if config.algorithm["mad_source"] == "bound" else mad
    spec = EstimateSpec(arm, n, statistic, delta, params, mad_used, truth)
    rows = _run_replications(config.seed, config.replications, parallelism, spec)
    summary = _success_stats(rows, key="covered")
    summary += [
        ("mean_total_pulls", float(n)),
        ("median_total_pulls", float(n)),
        ("true_value", truth),
    ]
    return {"records": (list(rows[0]), rows)}, summary, 0


def _algo_config(config: ExperimentConfig) -> AlgoConfig:
    alg = config.algorithm
    return AlgoConfig(
        alpha=alg["alpha"],
        delta=alg["delta"],
        family=config.family(),
        eps0=alg["eps0"],
        max_rounds=alg["max_rounds"],
        early_stop=alg["early_stop"],
        threshold_variant=alg["threshold_variant"],
    )


def _run_bai(config: ExperimentConfig, parallelism: int):
    simple = config.kind == "bai-simple"
    instance = BanditInstance(config.arms)
    algo = _algo_config(config)
    report = effective_gaps(instance, algo.family)
    gaps = tuple(report.gaps) if simple or algo.early_stop else None
    spec = RaceSpec(instance, algo, simple, report.best_arm, gaps)
    rows = _run_replications(config.seed, config.replications, parallelism, spec)
    summary = _success_stats(rows) + _pull_stats(rows)
    summary.append(("best_arm", report.best_arm))
    return {"records": (list(rows[0]), rows)}, summary, 0


def _run_gaps(config: ExperimentConfig, _parallelism: int):
    report = effective_gaps(BanditInstance(config.arms), config.family())
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
        for i in range(len(config.arms))
    ]
    columns = ["arm", "median", "mad", "bias", "effective_gap", "is_best", "feasible"]
    summary = [
        ("best_arm", report.best_arm),
        ("infeasible_arms", ";".join(map(str, report.infeasible_arms)) or "none"),
    ]
    return {"records": (columns, rows)}, summary, 0


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
    spec = RaceSpec(lifted.instance(), algo, simple=False, best_arm=0)
    rows = _run_replications(seed, replications, parallelism, spec)
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


def _run_lower_bound(config: ExperimentConfig, parallelism: int):
    if config.model.value == "malicious":
        lifted = malicious_lifting(config.p, config.eps)
    else:
        lifted = oblivious_lifting(config.p, config.eps)
    rows, report = _race_lifted(
        lifted,
        _algo_config(config),
        config.replications,
        config.seed,
        config.algorithm["c_eta"],
        parallelism,
    )
    row = report.as_row()
    summary = _success_stats(rows) + _pull_stats(rows)
    summary += [("lb_value", report.lb_value), ("ratio", report.ratio)]
    return {"records": (list(rows[0]), rows), "aggregate": (list(row), [row])}, summary, 0


def _run_verify(config: ExperimentConfig, _parallelism: int):
    from .verify import run_suites

    results = run_suites(config.suites or None, seed=config.seed)
    rows = [{"suite": res.name, "passed": res.passed, "detail": res.detail()} for res in results]
    tables = {"records": (["suite", "passed", "detail"], rows)}
    tables.update((res.name, res.artifact) for res in results if res.artifact is not None)
    all_passed = all(res.passed for res in results)
    summary = [("suites_run", len(results)), ("all_passed", all_passed)]
    summary += [(res.name, "pass" if res.passed else "FAIL") for res in results]
    return tables, summary, 0 if all_passed else 1


_RUNS: dict[str, Callable[[ExperimentConfig, int], tuple[dict, list, int]]] = {
    "estimate-median": _run_estimate,
    "estimate-mad": _run_estimate,
    "bai-simple": _run_bai,
    "bai-succelim": _run_bai,
    "gaps": _run_gaps,
    "lower-bound": _run_lower_bound,
    "verify": _run_verify,
}
