"""robandit benchmark: seeded Monte Carlo replications through the public API.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is lifted-race, prescient-race, bulk-estimate, or ``all`` (each of the
three in its own process, one after the other). Each workload parses a
generated config and calls ``run_experiment`` as ``robandit <cmd>`` does after
parsing; see ``workloads.py`` for the configs and why each was chosen.

A run measures set-up in fresh interpreters, makes one warm-up repeat, then
repeats ``run_experiment`` at parallelism 1 for about S seconds, cycling
through SEED_POOL configs seeded ``--seed * SEED_POOL + k``. A fixed
reference task (``reference.py``) runs before the first repeat and after each
one, and between set-up interpreters. With ``--trace 0`` it reports the
end-to-end metrics:

    setup_s          import + parse + one-time construction in a fresh
                     interpreter; median of SETUP_RUNS interpreters, each
                     normalized by the reference times on either side
    wall_s           run_experiment wall time for the workload's fixed
                     replication count, normalized; mean over the configs of
                     each config's median repeat
    pulls_per_s      pulls of one repeat of each config / the sum of their
                     wall_s terms
    mean_pulls       pulls per replication over the configs (exact for a seed)
    peak_rss_mb      peak RSS of this process, which ran the workload
    completed_share  1 - failed_share; a replication fails when it raises or
                     ends by the round cap

Normalized means: measured time / mean of the reference times on either side
x REFERENCE_S, that is, seconds of the host in its fast phase. The benchmark
host is a shared two-vCPU virtual machine whose speed drifts by up to 2x over
seconds to minutes, CPU time growing with wall time. Over 20- and 30-second
windows of lifted-race, the quartile spread of the median raw repeat time was
0.07 to 0.11 of its value, and that of the median normalized time 0.02. The
report also prints the raw times: median, quartiles and the highest
percentile with at least ten samples beyond it, over all repeats.

Repeats are short (one or two replications, or 200 estimates) so that the
reference task brackets each closely and each run has many repeats.
Prescient-race is timed at parallelism 1: at its pool's parallelism 2 the two
threads contend for the interpreter lock, and the time measured the host's
scheduler (the quartile spread of repeats reached 0.38 within one run). Before
its timed repeats, its first config runs with one replication per worker at
parallelism 1 and 2, which must write the same records.csv.

With ``--trace 1`` it runs the first config only, with at least one
replication per worker of the pool: untraced repeats, then two
repeats with spans patched around each layer's entry points (``tracer.py``),
and reports per-layer metrics in raw, not normalized, time. Layer times come
from traced repeats at parallelism 1; on prescient-race one traced repeat runs
at parallelism 2 for the runner's busy share, and untraced repeats at both
parallelisms give ``harness.runner.speedup_p2``. Set-up layers come from
traced fresh interpreters. ``tracer.overhead_s`` is traced minus untraced
wall time at the workload's parallelism. A metric a workload never reaches
reads 0.

Correctness gates (any failure makes ``correct`` false and the exit code 1):
success or coverage share >= 1 - delta - 3 sqrt(delta (1 - delta) / reps);
no round-cap terminations; records.csv byte-identical across every repeat,
across parallelism 1 and 2 on prescient-race, and with tracing on; in a
traced run, the exact counters equal between the two traced repeats and the
replayed contamination draws equal to the originals.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import (
    NameTotals,
    median,
    nearest_rank,
    net_durations,
    quartiles,
    summarize_spans,
    tail_percentile,
)
from reference import REFERENCE_S, reference_seconds
from workloads import WORKLOADS, Workload, check_records, pulls_of

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_ROOT = HERE / ".out"

SETUP_RUNS = 7
TRACED_REPEATS = 2
# Configs per run, seeded --seed * SEED_POOL + k; repeats cycle through them,
# so a run's medians average over more inputs than one config holds.
SEED_POOL = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pulls_per_s": "1/s",
    "mean_pulls": "count",
    "peak_rss_mb": "MB",
    "completed_share": "share",
}

SAMPLE_KINDS = ("bernoulli", "cauchy", "dirac", "gaussian", "mixture", "uniform")

PER_LAYER_UNITS = {
    "bandit.race.rounds": "count",
    "bandit.race.pulls": "count",
    "bandit.race.us_per_round": "us",
    "bandit.race.ns_per_pull": "ns",
    "bandit.race.self_s": "s",
    "bandit.median.pushes": "count",
    "bandit.median.ns_per_push": "ns",
    "bandit.median.reads": "count",
    "bandit.rep_ms.p50": "ms",
    "bandit.rep_ms.p90": "ms",
    "contamination.draw_batch.calls": "count",
    "contamination.draw_batch.mean_n": "count",
    "contamination.draw_batch.ns_per_value": "ns",
    "contamination.draw_batch.self_s": "s",
    "contamination.draw_batch.z_useful_ratio": "share",
    "distributions.sample.calls": "count",
    **{f"distributions.sample.ns_per_value.{kind}": "ns" for kind in SAMPLE_KINDS},
    "distributions.robust_moments.ms": "ms",
    "estimators.empirical_median.calls": "count",
    "estimators.empirical_median.ns_per_value": "ns",
    "estimators.ci.self_s": "s",
    "lower_bounds.lifting_ms": "ms",
    "lower_bounds.lower_bound_us": "us",
    "lower_bounds.kl_quadratic_constant_ms": "ms",
    "harness.import_s": "s",
    "harness.parse_config_ms": "ms",
    "harness.write_csv_ms": "ms",
    "harness.runner.busy_share": "share",
    "harness.runner.speedup_p2": "ratio",
    "tracer.overhead_s": "s",
}

# Counters that repeat exactly for a fixed seed; later changes may cite them as counts.
EXACT_COUNTERS = (
    "bandit.race.rounds",
    "bandit.race.pulls",
    "bandit.median.pushes",
    "bandit.median.reads",
    "contamination.draw_batch.calls",
    "distributions.sample.calls",
)

# Root spans that are a replication's own work, for the runner's busy share.
REPLICATION_ROOTS = ("bandit.race", "contamination.draw_batch", "estimators.ci")


@dataclass
class Repeat:
    slot: int  # which of the run's configs it ran
    wall: float
    records: bytes
    ref: float = 0.0  # mean reference time on either side of the repeat

    @property
    def normalized(self) -> float:
        return self.wall / self.ref * REFERENCE_S


@dataclass
class Outcome:
    metrics: dict[str, float]
    notes: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    sha256: str = ""


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_child(workload: Workload, seed: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), workload.name, str(seed), str(int(trace))],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pool_seeds(seed: int) -> list[int]:
    return [seed * SEED_POOL + k for k in range(SEED_POOL)]


def run_once(config, parallelism: int, out: Path, slot: int = 0) -> Repeat:
    from robandit.harness import runner

    start = time.perf_counter()
    runner.run_experiment(config, parallelism=parallelism, out_dir=out)
    wall = time.perf_counter() - start
    return Repeat(slot, wall, (out / "records.csv").read_bytes())


def timed_repeats(configs: list, parallelism: int, out: Path, budget: float, at_least: int) -> list[Repeat]:
    """Repeats, cycling through ``configs``, until the next one would end past
    ``budget`` seconds. The reference task runs before the first repeat and
    after each one; a repeat keeps the mean of the two on either side."""
    reps: list[Repeat] = []
    start = time.perf_counter()
    before = reference_seconds()
    while len(reps) < at_least or time.perf_counter() - start + reps[-1].wall + before <= budget:
        slot = len(reps) % len(configs)
        rep = run_once(configs[slot], parallelism, out, slot)
        after = reference_seconds()
        rep.ref = (before + after) / 2
        reps.append(rep)
        before = after
    return reps


def normalized_setups(workload: Workload, seed: int) -> list[float]:
    """Set-up times of SETUP_RUNS fresh interpreters, each normalized by the
    reference times on either side of it."""
    setups = []
    before = reference_seconds()
    for _ in range(SETUP_RUNS):
        setup = setup_child(workload, seed, False)["setup_s"]
        after = reference_seconds()
        setups.append(setup / ((before + after) / 2) * REFERENCE_S)
        before = after
    return setups


def rows_of(records: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(records.decode())))


def parse(text: str):
    from robandit.harness import config

    return config.parse_config(text)


def check_repeats(
    workload: Workload, delta: float, replications: int, groups: dict[str, list[Repeat]], out: Outcome
) -> None:
    """Gates over every repeat of a run, each of ``replications`` replications.
    The first repeat seen of each config is its reference; every other repeat of
    that config must match it byte for byte. Sets the run's attempted and failed
    replications and its records hash."""
    reference: dict[int, bytes] = {}
    for reps in groups.values():
        for r in reps:
            reference.setdefault(r.slot, r.records)
    slots = sorted(reference)
    problems, capped = check_records(workload, delta, replications, [rows_of(reference[k]) for k in slots])
    out.problems += problems
    for name, reps in groups.items():
        if any(r.records != reference[r.slot] for r in reps):
            out.problems.append(f"records.csv of a {name} repeat differs from the first run of its config")
    out.sha256 = hashlib.sha256(b"".join(reference[k] for k in slots)).hexdigest()
    every = [r for reps in groups.values() for r in reps]
    out.attempted = replications * len(every)
    out.failed = sum(capped[slots.index(r.slot)] for r in every)


def end_to_end(workload: Workload, seed: int, seconds: float, out_dir: Path) -> Outcome:
    seeds = pool_seeds(seed)
    setups = normalized_setups(workload, seeds[0])
    configs = [parse(workload.config_text(s)) for s in seeds]
    warm = run_once(configs[0], 1, out_dir)
    out = Outcome(metrics={})
    if workload.parallelism > 1:
        # the pool at the workload's parallelism must write what parallelism 1 writes
        pooled = parse(workload.config_text(seeds[0], workload.pool_replications))
        records = {run_once(pooled, p, out_dir).records for p in (1, workload.parallelism)}
        if len(records) != 1:
            out.problems.append(f"records.csv differs between parallelism 1 and {workload.parallelism}")
    reps = timed_repeats(configs, 1, out_dir, seconds, len(configs))

    delta = configs[0].algorithm["delta"]
    check_repeats(workload, delta, workload.replications, {"timed": reps, "warm-up": [warm]}, out)
    pulls = [pulls_of(workload, rows_of(r.records)) for r in reps[: len(configs)]]
    # each config's median normalized time; averaging over the configs weighs
    # every replication of the run equally, however many repeats each config had
    walls = [median([r.normalized for r in reps if r.slot == k]) for k in range(len(configs))]
    out.metrics = {
        "setup_s": median(setups),
        "wall_s": statistics.fmean(walls),
        "pulls_per_s": sum(pulls) / sum(walls),
        "mean_pulls": sum(pulls) / (len(pulls) * workload.replications),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_share": 1.0 - out.failed / out.attempted,
    }
    out.notes["setup_s"] = describe(setups, "fresh interpreters, normalized")
    out.notes["wall_s"] = "mean of each config's median; all repeats: " + describe(
        [r.normalized for r in reps], "repeats, normalized"
    )
    out.notes["raw wall"] = describe([r.wall for r in reps], "repeats, raw")
    out.notes["raw reference"] = describe([r.ref for r in reps], "repeats, raw")
    return out


def describe(samples: list[float], what: str) -> str:
    q1, _, q3 = quartiles(samples)
    head = f"median of {len(samples)} {what}, quartiles {q1:.6g}..{q3:.6g}"
    tail = tail_percentile(samples)
    if tail is None:
        return f"{head}; no tail percentile (needs >= 20 samples)"
    return f"{head}; p{tail.percentile:g} = {tail.value:.6g}"


def repeat_layers(totals: dict[str, NameTotals], leaf: dict[str, list[int]], z: list[int]) -> dict[str, float]:
    """Per-layer metrics of one traced repeat."""
    from tracer import DRAW_BATCH_SPAN, PUSH_LEAF, READ_LEAF, SAMPLE_SPAN_PREFIX

    def get(name: str) -> NameTotals:
        return totals.get(name, NameTotals())

    race, draw = get("bandit.race"), get(DRAW_BATCH_SPAN)
    med, ci = get("estimators.empirical_median"), get("estimators.ci")
    pushes, push_ns = leaf.get(PUSH_LEAF, (0, 0))
    metrics = {
        "bandit.race.rounds": race.extra,
        "bandit.race.pulls": race.n,
        "bandit.race.us_per_round": ratio(race.incl_ns / 1e3, race.extra),
        "bandit.race.ns_per_pull": ratio(race.incl_ns, race.n),
        "bandit.race.self_s": race.self_ns / 1e9,
        "bandit.median.pushes": pushes,
        "bandit.median.ns_per_push": ratio(push_ns, pushes),
        "bandit.median.reads": leaf.get(READ_LEAF, (0, 0))[0],
        "contamination.draw_batch.calls": draw.calls,
        "contamination.draw_batch.mean_n": ratio(draw.n, draw.calls),
        "contamination.draw_batch.ns_per_value": ratio(draw.incl_ns, draw.n),
        "contamination.draw_batch.self_s": draw.self_ns / 1e9,
        "contamination.draw_batch.z_useful_ratio": ratio(z[2], z[1]),
        "distributions.sample.calls": sum(
            t.calls for name, t in totals.items() if name.startswith(SAMPLE_SPAN_PREFIX)
        ),
        "estimators.empirical_median.calls": med.calls,
        "estimators.empirical_median.ns_per_value": ratio(med.incl_ns, med.n),
        "estimators.ci.self_s": ci.self_ns / 1e9,
        "harness.write_csv_ms": get("harness.write_csv").incl_ns / 1e6,
    }
    for kind in SAMPLE_KINDS:
        t = get(SAMPLE_SPAN_PREFIX + kind)
        metrics[f"distributions.sample.ns_per_value.{kind}"] = ratio(t.self_ns, t.n)
    return metrics


def setup_layers(setups: list[dict]) -> dict[str, float]:
    """Per-layer set-up metrics: medians over the fresh interpreters."""

    def per_call(name: str, scale: float) -> float:
        values = []
        for s in setups:
            calls, ns = s["spans"].get(name, (0, 0))
            values.append(ratio(ns / scale, calls))
        return median(values)

    return {
        "harness.import_s": median([s["import_s"] for s in setups]),
        "harness.parse_config_ms": per_call("harness.parse_config", 1e6),
        "lower_bounds.lifting_ms": per_call("lower_bounds.lifting", 1e6),
        "lower_bounds.lower_bound_us": per_call("lower_bounds.lower_bound", 1e3),
        "lower_bounds.kl_quadratic_constant_ms": per_call("lower_bounds.kl_quadratic_constant", 1e6),
        "distributions.robust_moments.ms": median(
            [s["spans"].get("distributions.robust_moments", (0, 0))[1] / 1e6 for s in setups]
        ),
    }


def traced(workload: Workload, seed: int, seconds: float, out_dir: Path) -> Outcome:
    from tracer import Z_REPLAY_SPAN, Tracer

    seed = pool_seeds(seed)[0]
    setups = [setup_child(workload, seed, True) for _ in range(SETUP_RUNS)]
    text = workload.config_text(seed, workload.pool_replications)
    config = parse(text)
    par = workload.parallelism
    warm = run_once(config, 1, out_dir)
    untraced = timed_repeats([config], par, out_dir, seconds / 2, 2)
    p1 = timed_repeats([config], 1, out_dir, seconds / 4, 1) if par > 1 else []

    # Layer times come from parallelism-1 repeats, where a span's wall time is
    # its own work and not time spent waiting for the interpreter lock; a
    # repeat at the workload's parallelism gives the runner's busy share.
    plan = [par] + [1] * (TRACED_REPEATS - 1)
    tracer = Tracer()
    tracer.install()
    runs = []
    try:
        for parallelism in plan:
            tracer.reset()
            rep = run_once(parse(text), parallelism, out_dir)
            runs.append((parallelism, rep, *tracer.collect()))
    finally:
        tracer.uninstall()

    out = Outcome(metrics={})
    groups = {"untraced": untraced, "warm-up": [warm], "traced": [r[1] for r in runs]}
    if p1:
        groups["parallelism-1"] = p1
    check_repeats(workload, config.algorithm["delta"], workload.pool_replications, groups, out)

    counters, timings, rep_ms, busy = [], [], [], []
    for parallelism, rep, spans, leaf, z in runs:
        layers = repeat_layers(summarize_spans(spans, excluded=(Z_REPLAY_SPAN,)), leaf, z)
        counters.append({name: layers[name] for name in EXACT_COUNTERS})
        net = net_durations(spans, excluded=(Z_REPLAY_SPAN,))
        if parallelism == 1:
            timings.append(layers)
            rep_ms += [net[s.id] / 1e6 for s in spans if s.name == "bandit.race"]
        if parallelism == par:
            root_ns = sum(net[s.id] for s in spans if s.parent is None and s.name in REPLICATION_ROOTS)
            busy.append(root_ns / 1e9 / (rep.wall * par))
        if z[3]:
            out.problems.append(f"{z[3]} replayed draw_batch calls differ from the original draws")
    for name in EXACT_COUNTERS:
        values = {c[name] for c in counters}
        if len(values) != 1:
            out.problems.append(f"exact counter {name} differs between traced repeats: {sorted(values)}")
    if workload.success_key == "success":
        if counters[0]["bandit.race.pulls"] != pulls_of(workload, rows_of(runs[0][1].records)):
            out.problems.append("traced race pulls differ from records.csv total_pulls")

    for name, first in timings[0].items():
        values = [m[name] for m in timings]
        exact = isinstance(first, int) and len(set(values)) == 1
        out.metrics[name] = first if exact else statistics.fmean(values)
    out.metrics.update(setup_layers(setups))
    ordered = sorted(rep_ms)
    out.metrics["bandit.rep_ms.p50"] = median(ordered) if ordered else 0.0
    out.metrics["bandit.rep_ms.p90"] = nearest_rank(ordered, 90.0)[0] if ordered else 0.0
    out.metrics["harness.runner.busy_share"] = statistics.fmean(busy)
    untraced_wall = median([r.wall for r in untraced])
    out.metrics["harness.runner.speedup_p2"] = ratio(median([r.wall for r in p1]), untraced_wall) if p1 else 0.0
    traced_wall = statistics.fmean(r[1].wall for r in runs if r[0] == par)
    out.metrics["tracer.overhead_s"] = traced_wall - untraced_wall
    out.notes["bandit.rep_ms.p90"] = f"nearest rank over {len(ordered)} replications"
    out.notes["tracer.overhead_s"] = f"traced {traced_wall:.4f} s vs untraced median {untraced_wall:.4f} s"
    if p1:
        out.notes["harness.runner.speedup_p2"] = (
            f"untraced medians: parallelism 1 {median([r.wall for r in p1]):.4f} s, "
            f"parallelism {par} {untraced_wall:.4f} s"
        )
    return out


def print_report(workload: str, outcome: Outcome, units: dict[str, str]) -> None:
    print(f"== {workload}")
    for name, unit in units.items():
        value = outcome.metrics[name]
        note = outcome.notes.get(name, "")
        print(f"{name:<44} {value:>16.6g} {unit:<6} {note}".rstrip())
    if units is END_TO_END_UNITS:
        share = ratio(outcome.failed, outcome.attempted)
        print(f"{'failed_share':<44} {share:>16.6g} {'share':<6} {outcome.failed}/{outcome.attempted} replications")
        for name, note in outcome.notes.items():
            if name not in units:
                print(f"{name:<44} {'':>16} {'s':<6} {note}")
    else:
        print("exact counters (repeat exactly for a fixed seed): " + ", ".join(EXACT_COUNTERS))
    print(f"records_sha256 = {outcome.sha256}")
    for problem in outcome.problems:
        print(f"GATE FAILED: {problem}")
    if not outcome.problems:
        print("all correctness gates passed")


def result_line(outcome: Outcome, units: dict[str, str]) -> dict:
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if not lines or not lines[-1].startswith("{"):
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if not (SRC / "robandit" / "__init__.py").is_file():
        print(f"error: robandit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    OUT_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_ROOT) as tmp:
            if args.trace:
                outcome, units = traced(workload, args.seed, args.seconds, Path(tmp)), PER_LAYER_UNITS
            else:
                outcome, units = end_to_end(workload, args.seed, args.seconds, Path(tmp)), END_TO_END_UNITS
    finally:
        if not any(OUT_ROOT.iterdir()):
            OUT_ROOT.rmdir()
    print_report(workload.name, outcome, units)
    print(json.dumps(result_line(outcome, units)))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
