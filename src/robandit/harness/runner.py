"""Seeded replication runner with deterministic CSV/summary output.

Replication i derives its own 64-bit seed as ``mix_seed(seed, i)`` (the
SplitMix64 finalizer applied to ``seed + (i + 1) * 0x9E3779B97F4A7C15``, all
mod 2**64) and feeds it to a fresh SFC64 generator, so results are identical
at any parallelism level; rows are always emitted in replication order.
SFC64 replaced PCG64 because it draws the same laws faster (Gaussian draws
bound bulk estimation), so records written with PCG64 differ from those
written now.

At parallelism P, min(P, CPUs, replications // ``_CHUNK``) forked worker
processes run the replications, ``_CHUNK`` at a time. A run stays in this
process when that is one worker (P = 1, fewer than two full chunks, one CPU)
or where the platform cannot fork; ``multiprocessing`` is imported only when a
pool starts, and every worker has exited when the run returns. Workers are
forked, so they start with the run's modules imported; forking is unsafe
while other threads run, so a threaded caller should pass P = 1.

Every replicating kind runs one path: ``spec_of`` builds a spec, a frozen,
picklable dataclass (``RaceSpec`` or ``EstimateSpec``) whose ``row(rng)``
returns one replication's record and which names the record's success and
pull columns; ``_run_replications`` runs it for every replication; and one
summary reads those columns. A spec holds data only; its ``row`` looks the
racing, sampling and estimation functions up as module globals at call time,
so a tracer that rebinds those names sees every call of a serial run (forked
workers record into their own copies of the tracer).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, ClassVar

import numpy as np

from ..bandit import (
    AlgoConfig,
    BanditInstance,
    effective_gaps,
    exploration_pulls,
    race_schedule,
    run_contaminated_successive_elimination,
    run_simple,
)
from ..contamination import ContaminatedArm, draw_sample
from ..distributions import AdversaryModel, _median_mad
from ..errors import ParameterOutOfRangeError, RobanditError
from ..estimators import _BOUNDS, EstimationParams, estimate_mad_ci, estimate_median_ci
from ..lower_bounds import lower_bound_samples, malicious_lifting, oblivious_lifting
from .config import _KINDS, ConfigError, ExperimentConfig

__all__ = [
    "mix_seed",
    "replication_rng",
    "ExperimentResult",
    "RaceSpec",
    "EstimateSpec",
    "spec_of",
    "run_experiment",
    "wilson_interval",
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
    return np.random.Generator(np.random.SFC64(mix_seed(seed, index)))


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


def _csv_text(columns: list[str], rows: list[dict[str, Any]]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def write_csv(path: Path, text: str) -> None:
    """Write one table formatted by ``_csv_text``; a function of its own, so
    that a tracer that rebinds it times the table writes."""
    path.write_text(text)


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
    success: ClassVar[str] = "success"  # the record's success and pull columns
    pulls: ClassVar[str] = "total_pulls"

    def row(self, rng: np.random.Generator) -> dict[str, Any]:
        if self.simple:
            result = run_simple(self.instance, self.algo, rng).result
        else:
            result = run_contaminated_successive_elimination(self.instance, self.algo, rng)
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
    success: ClassVar[str] = "covered"
    pulls: ClassVar[str] = "n"

    def row(self, rng: np.random.Generator) -> dict[str, Any]:
        estimate_ci = estimate_median_ci if self.statistic == "median" else estimate_mad_ci
        xs = draw_sample(self.arm, self.n, rng)
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


_CHUNK = 8  # replications a worker takes at a time


def _row(seed: int, spec: RaceSpec | EstimateSpec, i: int) -> dict[str, Any]:
    return {"replication": i, "seed": mix_seed(seed, i), **spec.row(replication_rng(seed, i))}


def _run_replications(
    seed: int, replications: int, parallelism: int, spec: RaceSpec | EstimateSpec
) -> list[dict[str, Any]]:
    """``spec.row`` of every replication, in replication order, each prefixed
    with its ``replication`` index and ``seed``; the first row's keys are the
    run's CSV columns. Forked workers, at most one per CPU and per full chunk,
    run them unless that leaves one worker or fork is unavailable."""
    workers = min(parallelism, os.cpu_count() or 1, replications // _CHUNK)
    if workers <= 1 or not hasattr(os, "fork"):
        return [_row(seed, spec, i) for i in range(replications)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(partial(_row, seed, spec), range(replications), chunksize=_CHUNK))


def _pull_stats(rows: list[dict[str, Any]], column: str) -> list[tuple[str, Any]]:
    pulls = [row[column] for row in rows]
    return [
        ("mean_total_pulls", float(np.mean(pulls))),
        ("median_total_pulls", float(np.median(pulls))),
    ]


def _success_stats(rows: list[dict[str, Any]], column: str) -> list[tuple[str, Any]]:
    n = len(rows)
    wins = sum(1 for row in rows if row[column])
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
    verify artifact) and then ``summary.txt`` into the output directory,
    which is created only after the run returns and every file is formatted,
    so a value the formatter refuses leaves nothing behind. A path that cannot
    become that directory is a ``ConfigError`` before the run starts."""
    target = Path(out_dir if out_dir is not None else (config.out_dir or "out"))
    blocker = next(path for path in (target, *target.parents) if path.exists())
    if not blocker.is_dir():
        raise ConfigError(
            f"cannot make output directory {str(target)!r}: {str(blocker)!r} is not a directory"
        )
    tables, summary, exit_code = _RUNS[_KINDS[config.kind].command](config, parallelism)
    texts = {name: _csv_text(*table) for name, table in tables.items()}
    summary_file = "".join(f"{k} = {_format_cell(v)}\n" for k, v in summary)
    target.mkdir(parents=True, exist_ok=True)
    files = {name: target / f"{name}.csv" for name in texts}
    for name, text in texts.items():
        write_csv(files[name], text)
    files["summary"] = target / "summary.txt"
    files["summary"].write_text(summary_file)
    return ExperimentResult(exit_code, files, dict(summary))


def spec_of(config: ExperimentConfig) -> tuple[RaceSpec | EstimateSpec | None, dict[str, Any]]:
    """The replication spec of ``config``'s run (none for gaps) and the set-up
    figures it reports, built as the run builds them, drawing nothing. A
    ``bai-succelim`` race with an arm whose effective gap is not positive and
    no early stop at alpha > 0 may run to the round cap, and is rejected at
    ``alpha``; a lower bound computes no effective gaps, so its race may run
    to the cap too. A lower bound for a model without a lifting is rejected at
    ``model``."""
    kind = _KINDS[config.kind]
    if kind.command == "gaps":
        return None, {"report": effective_gaps(BanditInstance(config.arms), config.family())}
    if kind.command == "estimate":
        arm, params, delta = config.arms[0], config.estimation_params(), config.algorithm["delta"]
        n = _BOUNDS[kind.statistic].sample_size(config.algorithm["error_level"], delta, params)
        median, mad, _, _ = _median_mad(arm.dist)
        truth = median if kind.statistic == "median" else mad
        mad_used = params.family.mad_bound if config.algorithm["mad_source"] == "bound" else mad
        return EstimateSpec(arm, n, kind.statistic, delta, params, mad_used, truth), {"true_value": truth}
    algo = config.algo_config()
    if kind.command == "lb":
        if config.model is AdversaryModel.PRESCIENT:
            raise ParameterOutOfRangeError(
                "a lower bound has a lifting for the oblivious and malicious models only; "
                "the oblivious lifting also bounds a prescient adversary",
                "model",
            )
        lifting = malicious_lifting if config.model is AdversaryModel.MALICIOUS else oblivious_lifting
        lifted = lifting(config.p, config.eps)
        gaps = lifted.classical_gaps
        lb_value = lower_bound_samples(gaps, algo.alpha, algo.delta, config.algorithm["c_eta"])
        spec = RaceSpec(lifted.instance(), algo, simple=False, best_arm=0)
        facts = {"k": lifted.k, "gap": min(gaps), "delta": algo.delta, "lb_value": lb_value}
    else:
        simple = config.kind == "bai-simple"
        instance = BanditInstance(config.arms)
        report = effective_gaps(instance, algo.family)
        if not (simple or algo.early_stop and algo.alpha > 0) and report.infeasible_arms:
            raise ParameterOutOfRangeError(
                f"arms {list(report.infeasible_arms)} have effective gap <= 0 against arm "
                f"{report.best_arm}, so the race may run to max_rounds; "
                "set early_stop = true with alpha > 0",
                "alpha",
            )
        gaps = tuple(report.gaps) if simple or algo.early_stop else None
        spec = RaceSpec(instance, algo, simple, report.best_arm, gaps)
        facts = {"best_arm": report.best_arm}
    set_up = exploration_pulls if spec.simple else race_schedule
    set_up(spec.instance.k, algo, spec.instance.model)
    return spec, facts


def _replicated(config: ExperimentConfig, parallelism: int):
    """The records of ``config``'s spec, the summary of their success and pull
    columns, and the set-up figures ``spec_of`` reports."""
    spec, facts = spec_of(config)
    rows = _run_replications(config.seed, config.replications, parallelism, spec)
    return rows, _success_stats(rows, spec.success) + _pull_stats(rows, spec.pulls), facts


def _run_replicating(config: ExperimentConfig, parallelism: int):
    rows, summary, facts = _replicated(config, parallelism)
    return {"records": (list(rows[0]), rows)}, summary + list(facts.items()), 0


def _run_gaps(config: ExperimentConfig, _parallelism: int):
    report = spec_of(config)[1]["report"]
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


def _run_lower_bound(config: ExperimentConfig, parallelism: int):
    """Race the lifted instance (best arm at index 0) and compare the mean
    pull count with the lower bound; with an uncalibrated ``c_eta`` the ratio
    is a trend measurement, not a certified bound."""
    rows, summary, facts = _replicated(config, parallelism)
    stats = dict(summary)
    ratio = stats["mean_total_pulls"] / facts["lb_value"]
    row = {**facts, "mean_pulls": stats["mean_total_pulls"], "ratio": ratio}
    row["success_rate"] = stats["success_rate"]
    summary += [("lb_value", facts["lb_value"]), ("ratio", ratio)]
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


# command -> the run of every kind that command runs
_RUNS: dict[str, Callable[[ExperimentConfig, int], tuple[dict, list, int]]] = {
    "estimate": _run_replicating,
    "bai": _run_replicating,
    "gaps": _run_gaps,
    "lb": _run_lower_bound,
    "verify": _run_verify,
}
