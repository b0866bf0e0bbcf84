"""The benchmark's workloads: generated configs, one-time construction and
correctness gates.

Each workload is a closed loop in one process: ``run_experiment`` runs a
fixed number of replications of one config, and the next repeat starts when
the previous one has returned. Only the config's seed, derived from the
benchmark's ``--seed``, varies between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# lb_demo's lifted two-arm instance, the racing loop behind `robandit lb`,
# `hardness_probe` and the pac-succelim suite.
LIFTED_RACE = """\
[experiment]
kind = lower-bound
replications = {replications}
seed = {seed}

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

# Four prescient arms: unbuffered draws, one draw_batch + np.quantile per arm
# per round; timed at parallelism 1, checked and traced on the runner's thread pool.
PRESCIENT_RACE = """\
[experiment]
kind = bai-succelim
replications = {replications}
seed = {seed}

[instance]
model = prescient
eps = 0.05
arm = {{dist: {{kind: uniform, lo: 0.0, hi: 1.0}}, strategy: {{kind: empirical_quantile, target_quantile: 0.9}}}}
arm = {{dist: {{kind: uniform, lo: 0.1, hi: 1.1}}, strategy: {{kind: empirical_quantile, target_quantile: 0.9}}}}
arm = {{dist: {{kind: uniform, lo: 0.2, hi: 1.2}}, strategy: {{kind: shift_median_up}}}}
arm = {{dist: {{kind: uniform, lo: 0.4, hi: 1.4}}, strategy: {{kind: empirical_quantile, target_quantile: 0.1}}}}

[algorithm]
alpha = 0.05
early_stop = true
delta = 0.1
eps0 = 0.05
t_bar = 0.4
slope_bound = 4.0
mad_bound = 0.25
"""

# One large batch per replication (n = 19,087) and a MAD interval; the
# racing layer is never called.
BULK_ESTIMATE = """\
[experiment]
kind = estimate-mad
replications = {replications}
seed = {seed}

[instance]
model = oblivious
eps = 0.05
arm = {{dist: {{kind: gaussian, mu: 0.0, sigma: 1.0}}, strategy: {{kind: fixed, dist: {{kind: cauchy, x0: 5.0, scale: 2.0}}}}}}

[algorithm]
delta = 0.05
eps0 = 0.05
error_level = 0.3
t_bar = 0.3
slope_bound = 2.5
mad_bound = 0.7
mad_ratio = 2.0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    replications: int
    parallelism: int
    success_key: str  # records.csv column that must be true often enough

    @property
    def pool_replications(self) -> int:
        """Replications of a repeat run at the workload's parallelism: at least
        one per worker, so that the pool runs replications side by side."""
        return max(self.replications, self.parallelism)

    def config_text(self, seed: int, replications: int | None = None) -> str:
        return self.template.format(replications=replications or self.replications, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lifted-race", LIFTED_RACE, 2, 1, "success"),
        Workload("prescient-race", PRESCIENT_RACE, 1, 2, "success"),
        Workload("bulk-estimate", BULK_ESTIMATE, 200, 1, "covered"),
    )
}


def construct(config) -> None:
    """The one-time construction a run does before its first replication:
    lifting with its self-checks, effective gaps, sample sizes and the lower
    bound, through robandit's public API."""
    from robandit import (
        AlgoConfig,
        BanditInstance,
        effective_gaps,
        lower_bound_samples,
        oblivious_lifting,
        robust_moments,
        sample_size_mad,
        warmup_pulls,
    )

    alg = config.algorithm
    if config.kind == "estimate-mad":
        sample_size_mad(alg["error_level"], alg["delta"], config.estimation_params())
        robust_moments(config.arms[0].dist)
        return
    algo = AlgoConfig(
        alpha=alg["alpha"],
        delta=alg["delta"],
        family=config.family(),
        eps0=alg["eps0"],
        early_stop=alg.get("early_stop", False),
    )
    if config.kind == "lower-bound":
        lifted = oblivious_lifting(config.p, config.eps)
        instance = lifted.instance()
        lower_bound_samples(lifted.classical_gaps, algo.alpha, algo.delta, alg["c_eta"])
    else:
        instance = BanditInstance(config.arms)
        effective_gaps(instance, algo.family)
    warmup_pulls(instance.k, algo.delta, algo.estimation_params(instance.model))


def success_floor(delta: float, replications: int) -> float:
    """Lowest success (or coverage) share a correct run may show:
    1 - delta - 3 sqrt(delta (1 - delta) / replications)."""
    return 1.0 - delta - 3.0 * math.sqrt(delta * (1.0 - delta) / replications)


def check_records(
    workload: Workload, delta: float, replications: int, row_sets: list[list[dict[str, str]]]
) -> tuple[list[str], list[int]]:
    """Correctness gates on the records.csv of each config a run used; returns
    the failures and, per config, the replications that ended by the round cap."""
    problems = []
    for rows in row_sets:
        if len(rows) != replications:
            problems.append(f"records.csv has {len(rows)} rows, expected {replications}")
    capped = [sum(1 for r in rows if r.get("terminated_by") == "round-cap") for rows in row_sets]
    if sum(capped):
        problems.append(f"{sum(capped)} replications ended by round-cap")
    rows = [r for rs in row_sets for r in rs]
    wins = sum(1 for r in rows if r[workload.success_key] == "true")
    floor = success_floor(delta, len(rows))
    if wins < floor * len(rows):
        problems.append(f"{workload.success_key} share {wins}/{len(rows)} below floor {floor:.4f}")
    return problems, capped


def pulls_of(workload: Workload, rows: list[dict[str, str]]) -> int:
    """Total pulls of one repeat: summed total_pulls, or n per replication."""
    key = "total_pulls" if "total_pulls" in rows[0] else "n"
    return sum(int(r[key]) for r in rows)
