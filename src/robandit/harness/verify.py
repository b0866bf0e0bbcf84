"""Named verification suites: statistical coverage/PAC experiments at fixed
desk-scale sizes plus exact structural property checks. Each suite returns a
SuiteResult with the measured statistics; the acceptance tests and the
``robandit verify`` command both run them.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..bandit import (
    AlgoConfig,
    BanditInstance,
    effective_gaps,
    elimination_round_delta,
    exploration_pulls,
    run_simple,
)
from ..contamination import (
    ContaminatedArm,
    FixedContamination,
    ShiftMedianDown,
    ShiftMedianUp,
    UniformTailShift,
    contaminated_cdf,
    draw_batch,
    draw_sample,
    malicious_median_attack,
    median_sandwich_bounds,
)
from ..distributions import (
    AdversaryModel,
    Affine,
    Bernoulli,
    Cauchy,
    Dirac,
    Distribution,
    FamilyParams,
    Gaussian,
    Mixture,
    SmoothedBernoulli,
    Uniform,
    abs_deviation_of,
    contamination_bias,
    in_quantile_family,
    robust_moments,
)
from ..estimators import (
    EstimationParams,
    _BOUNDS,
    empirical_mad,
    empirical_median,
)
from ..lower_bounds import (
    kl_smoothed_bernoulli,
    lifted_effective_gaps,
    malicious_lifting,
    oblivious_lifting,
)
from ..quality import quantile_guarantee
from . import config, runner

__all__ = ["SuiteResult", "SUITES", "run_suites", "binomial_slack"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    stats: dict[str, Any] = field(default_factory=dict)
    # optional (columns, rows) table the runner writes next to records.csv
    artifact: tuple[list[str], list[dict[str, Any]]] | None = None

    def detail(self) -> str:
        return ";".join(f"{k}={v}" for k, v in self.stats.items())


def binomial_slack(rate: float, n: int) -> float:
    """Three-sigma slack for an empirical frequency targeted at ``rate``."""
    return 3.0 * math.sqrt(max(rate * (1.0 - rate), 1e-12) / n)


def _oblivious_strategies() -> list[tuple[str, Any]]:
    return [
        ("fixed_dirac0", FixedContamination(Dirac(0.0))),
        ("shift_up", ShiftMedianUp(1e6)),
        ("shift_down", ShiftMedianDown(1e6)),
        ("tail_up", UniformTailShift(1)),
        ("tail_down", UniformTailShift(-1)),
    ]


def _builtin_distributions() -> list[tuple[str, Distribution]]:
    return [
        ("uniform01", Uniform(0.0, 1.0)),
        ("uniform_wide", Uniform(-1.0, 3.0)),
        ("gaussian_std", Gaussian(0.0, 1.0)),
        ("gaussian_shifted", Gaussian(2.0, 3.0)),
        ("cauchy_std", Cauchy(0.0, 1.0)),
        ("cauchy_shifted", Cauchy(1.0, 2.0)),
        ("sber_030", SmoothedBernoulli(0.3)),
        ("sber_050", SmoothedBernoulli(0.5)),
        ("sber_070", SmoothedBernoulli(0.7)),
        ("mixture_uniforms", Mixture([0.3, 0.7], [Uniform(0.0, 1.0), Uniform(2.0, 3.0)])),
        ("affine_gaussian", Affine(Gaussian(0.0, 1.0), -2.0, 1.0)),
        ("dirac", Dirac(2.0)),
        ("bernoulli_030", Bernoulli(0.3)),
    ]


def _tail_shift_instance(
    widths_starts: list[float], eps: float, best: int
) -> BanditInstance:
    """Unit-width uniform arms at the given left endpoints; the best arm's
    contamination drags its median down, every rival's median up."""
    arms = []
    for i, start in enumerate(widths_starts):
        direction = -1 if i == best else 1
        arms.append(
            ContaminatedArm(
                dist=Uniform(start, start + 1.0),
                strategy=UniformTailShift(direction),
                eps=eps,
                model=AdversaryModel.OBLIVIOUS,
            )
        )
    return BanditInstance(arms)


# -- exact / structural suites -------------------------------------------------


def suite_moment_oracle(rng: np.random.Generator) -> SuiteResult:
    """Empirical median/MAD agree exactly with a brute-force sort oracle."""

    def oracle_median(xs: list[float]) -> float:
        ys = sorted(xs)
        n = len(ys)
        return ys[n // 2] if n % 2 else (ys[n // 2 - 1] + ys[n // 2]) / 2

    def oracle_mad(xs: list[float]) -> float:
        med = oracle_median(xs)
        return oracle_median([abs(x - med) for x in xs])

    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 51))
        mode = rng.integers(0, 3)
        if mode == 0:
            xs = rng.normal(0.0, 10.0, n)
        elif mode == 1:
            xs = rng.integers(-5, 6, n).astype(float)
        else:
            xs = rng.standard_cauchy(n)
        values = xs.tolist()
        if empirical_median(xs) != oracle_median(values):
            mismatches += 1
        elif empirical_mad(xs) != oracle_mad(values):
            mismatches += 1
    return SuiteResult("moment-oracle", mismatches == 0, {"arrays": 10_000, "mismatches": mismatches})


def suite_quantile_galois(rng: np.random.Generator) -> SuiteResult:
    """For all p: F(Q_L(p)) >= p, Q_L <= Q_R, and F stays below p left of Q_L."""
    worst = 0.0
    ok = True
    for _name, dist in _builtin_distributions():
        for p in np.linspace(0.02, 0.98, 33):
            p = float(p)
            q_lo = dist.quantile_left(p)
            q_hi = dist.quantile_right(p)
            if q_lo > q_hi + 1e-12:
                ok = False
            gap = p - dist.cdf(q_lo)
            worst = max(worst, gap)
            if gap > 1e-9:
                ok = False
            left = q_lo - max(1e-9, 1e-9 * abs(q_lo))
            if dist.cdf(left) >= p + 1e-9:
                ok = False
    return SuiteResult("quantile-galois", ok, {"max_defect": worst})


def suite_m4_bound(rng: np.random.Generator) -> SuiteResult:
    """Second-order MAD never exceeds twice the MAD when both are unique."""
    worst = -math.inf
    checked = 0
    ok = True
    for _name, dist in _builtin_distributions():
        moments = robust_moments(dist)
        if not (moments.mad_unique and moments.mad2_unique):
            continue
        checked += 1
        excess = moments.mad2 - 2.0 * moments.mad
        worst = max(worst, excess)
        if excess > 1e-9 * max(1.0, moments.mad):
            ok = False
    return SuiteResult("m4-bound", ok, {"distributions": checked, "worst_excess": worst})


def suite_sandwich(rng: np.random.Generator) -> SuiteResult:
    """Replacing s < n/2 values moves the empirical median at most s ranks."""
    violations = 0
    for _ in range(400):
        n = int(rng.integers(2, 61))
        s = int(rng.integers(0, (n - 1) // 2 + 1))
        clean = rng.normal(0.0, 5.0, n)
        mixed = clean.copy()
        if s:
            idx = rng.choice(n, size=s, replace=False)
            mixed[idx] = rng.uniform(-1e7, 1e7, s)
        lo, hi = median_sandwich_bounds(clean, s)
        med = empirical_median(mixed)
        if not lo <= med <= hi:
            violations += 1
    # debug-mode batches assert the same bound internally on every call
    arm = ContaminatedArm(Uniform(0.0, 1.0), ShiftMedianUp(1e6), 0.2, AdversaryModel.OBLIVIOUS)
    for _ in range(50):
        draw_batch(arm, int(rng.integers(3, 200)), rng, debug=True)
    return SuiteResult("sandwich", violations == 0, {"violations": violations, "cases": 400})


def suite_lipschitz(rng: np.random.Generator) -> SuiteResult:
    """Shifting an array by c moves the median of absolute values by at most |c|."""
    worst = 0.0
    for _ in range(400):
        n = int(rng.integers(1, 80))
        xs = rng.standard_cauchy(n) * 3.0
        c = float(rng.normal(0.0, 4.0))
        lhs = abs(empirical_median(np.abs(xs + c)) - empirical_median(np.abs(xs)))
        worst = max(worst, lhs - abs(c))
    return SuiteResult("lipschitz", worst <= 1e-12, {"worst_excess": worst})


def suite_family_closure(rng: np.random.Generator) -> SuiteResult:
    """Affine images stay in the family with equivariant moments; the law of
    |X - median| lands in the family with rescaled parameters."""
    gaussian_slope = 8.5  # 1 / (mad * min density on the t_bar=0.4 window), rounded up
    members = [
        (Uniform(0.0, 1.0), 0.4, 4.0, 2.0),
        (Gaussian(0.0, 1.0), 0.4, gaussian_slope, 3.0),
        (Cauchy(0.0, 1.0), 0.4, math.pi * (1.0 + math.tan(0.4 * math.pi) ** 2), 1.5),
    ]
    ok = True
    stats: dict[str, Any] = {}
    for dist, t_bar, slope, mad_ratio in members:
        if not in_quantile_family(dist, t_bar, slope, grid=2000):
            ok = False
        base = robust_moments(dist)
        for _ in range(8):
            a = float(rng.uniform(0.5, 3.0)) * (1 if rng.random() < 0.5 else -1)
            b = float(rng.uniform(-2.0, 2.0))
            image = Affine(dist, a, b)
            if not in_quantile_family(image, t_bar, slope, grid=2000):
                ok = False
            moments = robust_moments(image)
            if abs(moments.median - (a * base.median + b)) > 1e-8 * max(1.0, abs(a)):
                ok = False
            if abs(moments.mad - abs(a) * base.mad) > 1e-8 * max(1.0, abs(a)):
                ok = False
        # closure of the absolute-deviation law
        dev = abs_deviation_of(dist, base.median)
        t_dev = min(0.5 - 1e-9, 2.0 / slope)
        if not in_quantile_family(dev, t_dev, mad_ratio * slope, grid=2000):
            ok = False
    stats["members"] = len(members)
    return SuiteResult("family-closure", ok, stats)


def suite_kl(rng: np.random.Generator) -> SuiteResult:
    """Closed-form value, identity at p = q, and nonnegativity on a grid."""
    ref = kl_smoothed_bernoulli(0.5, 0.25)
    value_ok = abs(ref - 0.0719205) <= 1e-6
    grid = np.linspace(0.01, 0.99, 100)
    nonneg = True
    symmetric = True
    for p in grid:
        if kl_smoothed_bernoulli(float(p), float(p)) != 0.0:
            nonneg = False
        for q in grid:
            v = kl_smoothed_bernoulli(float(p), float(q))
            if v < 0.0:
                nonneg = False
            if abs(v - kl_smoothed_bernoulli(1.0 - float(p), 1.0 - float(q))) > 1e-12:
                symmetric = False
    return SuiteResult(
        "kl",
        value_ok and nonneg and symmetric,
        {"kl_05_025": ref, "nonnegative": nonneg, "symmetric": symmetric},
    )


def suite_delta_budget(rng: np.random.Generator) -> SuiteResult:
    """The kernel's per-round confidence shares, over k arms and all rounds, sum to delta."""
    delta = 0.1
    k = 3
    terms = 1_000_000
    r = np.arange(1, terms + 1, dtype=float)
    partial = k * math.fsum(elimination_round_delta(r, k, delta))
    tail_bound = (6.0 * delta / math.pi**2) / terms
    defect = abs(partial - delta)
    allowed = 1e-6 * delta + tail_bound
    return SuiteResult(
        "delta-budget", defect <= allowed, {"defect": defect, "allowed": allowed}
    )


def suite_lifting_identity(rng: np.random.Generator) -> SuiteResult:
    """Both liftings reproduce their smoothed-Bernoulli observable laws and the
    classical gaps; the malicious coupling keeps the flag marginal at eps."""
    p = (0.6, 0.4, 0.5)
    eps = 0.05
    grid = np.linspace(-0.25, 1.25, 1001)
    worst_cdf = 0.0
    worst_gap = 0.0
    for lifted in (oblivious_lifting(p, eps), malicious_lifting(p, eps)):
        for arm, law in zip(lifted.lifted_arms, lifted.observable_law):
            sup = float(np.max(np.abs(contaminated_cdf(arm, grid) - law.cdf(grid))))
            worst_cdf = max(worst_cdf, sup)
        gaps = lifted_effective_gaps(lifted)
        classical = lifted.classical_gaps
        worst_gap = max(worst_gap, max(abs(g - c) for g, c in zip(gaps, classical)))
    lifted = malicious_lifting(p, eps)
    n = 100_000
    band = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))
    marginal_ok = True
    worst_marg = 0.0
    for arm in lifted.lifted_arms[:2]:
        batch = draw_batch(arm, n, rng, debug=True)
        dev = abs(float(batch.d.mean()) - eps)
        worst_marg = max(worst_marg, dev)
        if dev > band:
            marginal_ok = False
    passed = worst_cdf <= 1e-12 and worst_gap <= 1e-12 and marginal_ok
    return SuiteResult(
        "lifting-identity",
        passed,
        {
            "cdf_sup": worst_cdf,
            "gap_defect": worst_gap,
            "marginal_dev": worst_marg,
            "marginal_band": band,
        },
    )


# -- Monte Carlo suites ----------------------------------------------------------


def suite_tail_shift(rng: np.random.Generator) -> SuiteResult:
    """The uniform tail shift moves the observable median by exactly the
    worst-case bias; measured on one large contaminated batch."""
    width = 2.0
    eps = 0.1
    arm = ContaminatedArm(
        Uniform(0.0, width), UniformTailShift(1), eps, AdversaryModel.OBLIVIOUS
    )
    xs = draw_sample(arm, 200_000, rng)
    med = empirical_median(xs)
    target = width / 2.0 + width * eps / (2.0 * (1.0 - eps))
    defect = abs(med - target)
    return SuiteResult(
        "tail-shift", defect <= 0.005 * width, {"median": med, "target": target, "defect": defect}
    )


def _coverage_family() -> FamilyParams:
    return FamilyParams(t_bar=0.4, slope_bound=4.0, mad_bound=0.25, mad_ratio=2.0)


def _replicate(rng: np.random.Generator, reps: int, *specs) -> list[list[dict[str, Any]]]:
    """Each spec's rows on one seed drawn from ``rng``: replication i of every
    spec runs on ``replication_rng(seed, i)``, so the specs share random numbers."""
    seed = int(rng.integers(2**64, dtype=np.uint64))
    return [runner._run_replications(seed, reps, 1, spec) for spec in specs]


def _coverage(
    rng: np.random.Generator, statistic: str, error_level: float, reps: int, truth: float
) -> SuiteResult:
    """Coverage of a uniform arm's median or MAD by its reported interval at the
    advertised sample size against every fixed-law oblivious strategy."""
    eps = 0.1
    delta = 0.1
    family = _coverage_family()
    params = EstimationParams(eps0=eps, family=family, model=AdversaryModel.OBLIVIOUS)
    n = _BOUNDS[statistic].sample_size(error_level, delta, params)
    allowed = delta + binomial_slack(delta, reps)
    stats: dict[str, Any] = {"n": n, "allowed": allowed}
    names, strategies = zip(*_oblivious_strategies())
    arms = [ContaminatedArm(Uniform(0.0, 1.0), s, eps, params.model) for s in strategies]
    specs = [runner.EstimateSpec(a, n, statistic, delta, params, family.mad_bound, truth) for a in arms]
    for name, rows in zip(names, _replicate(rng, reps, *specs)):
        stats[name] = sum(not row["covered"] for row in rows) / reps
    passed = all(stats[name] <= allowed for name in names)
    return SuiteResult(f"coverage-{statistic}", passed, stats)


def suite_coverage_median(rng: np.random.Generator) -> SuiteResult:
    return _coverage(rng, "median", error_level=0.05, reps=1000, truth=0.5)


def suite_coverage_mad(rng: np.random.Generator) -> SuiteResult:
    return _coverage(rng, "mad", error_level=0.2, reps=500, truth=0.25)


def suite_malicious_tightness(rng: np.random.Generator) -> SuiteResult:
    """The coupled attack forces a median deviation of nearly the full malicious
    bias with probability close to one at the critical sample size."""
    eps = 0.1
    delta = 0.1
    n = math.ceil(0.5 * eps**-2 * math.log(1.0 / delta))
    arm = malicious_median_attack(Uniform(-1.0, 1.0), eps)
    params = EstimationParams(eps0=eps, family=_coverage_family(), model=arm.model)
    # quantile spread of Uniform(-1, 1) grows at 2 per unit of level
    threshold = 2.0 * (eps - math.sqrt(math.log(1.0 / delta) / (2.0 * n)))
    reps = 1000
    spec = runner.EstimateSpec(arm, n, "median", delta, params, mad_used=0.5, truth=0.0)
    (rows,) = _replicate(rng, reps, spec)
    rate = sum(abs(row["estimate"]) >= threshold for row in rows) / reps
    floor = 1.0 - delta - binomial_slack(delta, reps)
    return SuiteResult(
        "malicious-tightness",
        rate >= floor,
        {"n": n, "threshold": threshold, "rate": rate, "floor": floor},
    )


def suite_pac_simple(rng: np.random.Generator) -> SuiteResult:
    """Uniform exploration returns an alpha-suboptimal arm at the advertised
    rate with a deterministic pull count."""
    eps = 0.1
    alpha = 0.1
    delta = 0.1
    family = _coverage_family()
    instance = _tail_shift_instance([0.0, 0.3, 0.6], eps, best=2)
    algo = AlgoConfig(alpha=alpha, delta=delta, family=family, eps0=eps)
    expected = instance.k * exploration_pulls(instance.k, algo, instance.model)
    report = effective_gaps(instance, family)
    spec = runner.RaceSpec(instance, algo, simple=True, best_arm=report.best_arm, gaps=tuple(report.gaps))
    reps = 200
    (rows,) = _replicate(rng, reps, spec)
    pulls_ok = all(row["total_pulls"] == expected for row in rows)
    rate = sum(row["success"] for row in rows) / reps
    floor = 1.0 - delta - binomial_slack(delta, reps)
    return SuiteResult(
        "pac-simple",
        rate >= floor and pulls_ok,
        {"rate": rate, "floor": floor, "total_pulls": expected, "pulls_deterministic": pulls_ok},
    )


def suite_pac_succelim(rng: np.random.Generator) -> SuiteResult:
    """Racing run is PAC and its pull count scales like the inverse squared
    effective gap: halving the gap multiplies mean pulls by roughly four."""
    eps = 0.05
    delta = 0.1
    family = _coverage_family()
    bias = contamination_bias(eps, family.slope_bound, family.mad_bound, AdversaryModel.OBLIVIOUS)
    algo = AlgoConfig(alpha=0.0, delta=delta, family=family, eps0=eps)
    reps = 200
    floor = 1.0 - delta - binomial_slack(delta, reps)
    stats: dict[str, Any] = {"floor": floor}
    instances = [_tail_shift_instance([0.0, g + 2.0 * bias], eps, best=1) for g in (0.45, 0.225)]
    specs = [runner.RaceSpec(instance, algo, simple=False, best_arm=1) for instance in instances]
    passed = True
    for label, rows in zip(("wide", "narrow"), _replicate(rng, reps, *specs)):
        rate = sum(row["success"] for row in rows) / reps
        stats[f"success_{label}"] = rate
        stats[f"pulls_{label}"] = sum(row["total_pulls"] for row in rows) / reps
        if rate < floor:
            passed = False
    stats["ratio"] = ratio = stats["pulls_narrow"] / stats["pulls_wide"]
    if not 3.0 <= ratio <= 6.0:
        passed = False
    return SuiteResult("pac-succelim", passed, stats)


@dataclass(frozen=True)
class _QualitySpec:
    """One uniform exploration of ``instance`` and one fresh draw from the
    chosen arm, held against the certified threshold at each of ``t_values``."""

    instance: BanditInstance
    algo: AlgoConfig
    t_values: tuple[float, ...]

    def row(self, rng: np.random.Generator) -> dict[str, Any]:
        outcome = run_simple(self.instance, self.algo, rng)
        chosen = outcome.result.chosen_arm
        fresh = float(self.instance.arms[chosen].dist.sample(1, rng)[0])
        algo, family = self.algo, self.algo.family
        bias = contamination_bias(
            algo.eps0, family.slope_bound, family.mad_bound, self.instance.model
        )
        row: dict[str, Any] = {}
        for t in self.t_values:
            guarantee = quantile_guarantee(
                outcome.medians[chosen], outcome.mads[chosen], t, algo.alpha, bias,
                family.slope_bound, family.mad_ratio, algo.delta, self.instance.k, family.t_bar
            )
            row[f"threshold_t{t}"] = guarantee.threshold
            row[f"floor_t{t}"] = guarantee.probability_floor
            row[f"hit_t{t}"] = fresh >= guarantee.threshold
        return row


def suite_quality(rng: np.random.Generator) -> SuiteResult:
    """After uniform exploration, fresh draws from the selected arm clear the
    certified thresholds at their probability floors."""
    eps = 0.05
    delta = 0.1
    family = _coverage_family()
    instance = _tail_shift_instance([0.0, 0.3], eps, best=1)
    algo = AlgoConfig(alpha=0.2, delta=delta, family=family, eps0=eps)
    reps = 500
    spec = _QualitySpec(instance, algo, (0.0, 0.05, 0.1))
    (rows,) = _replicate(rng, reps, spec)
    passed = True
    stats: dict[str, Any] = {}
    table = []
    for t in spec.t_values:
        floor = 0.5 + t - 3.0 * delta / instance.k
        bar = floor - binomial_slack(floor, reps)
        rate = sum(row[f"hit_t{t}"] for row in rows) / reps
        stats[f"rate_t{t}"] = rate
        stats[f"bar_t{t}"] = bar
        if rate < bar:
            passed = False
        threshold = sum(row[f"threshold_t{t}"] for row in rows) / reps
        table.append({"t": t, "threshold": threshold, "probability_floor": rows[-1][f"floor_t{t}"]})
    artifact = (["t", "threshold", "probability_floor"], table)
    return SuiteResult("quality", passed, stats, artifact=artifact)


def suite_reproducibility(rng: np.random.Generator) -> SuiteResult:
    """Identical config and seed give byte-identical CSVs at parallelism 1 and 8, racing or not.
    Its 16 replications are two chunks, so on two CPUs or more parallelism 8 forks a pool."""
    text = """
[experiment]
kind = {kind}
replications = 16
seed = 20240817

[instance]
model = oblivious
eps = 0.1
arm = {{dist: {{kind: uniform, lo: 0.0, hi: 1.0}}, strategy: {{kind: uniform_tail_shift, direction: 1}}}}
arm = {{dist: {{kind: uniform, lo: 0.3, hi: 1.3}}, strategy: {{kind: uniform_tail_shift, direction: -1}}}}

[algorithm]
alpha = 0.3
delta = 0.2
eps0 = 0.1
t_bar = 0.4
slope_bound = 4.0
mad_bound = 0.25
mad_ratio = 2.0
"""
    identical, sizes = True, {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("bai-simple", "bai-succelim"):
            experiment = config.parse_config(text.format(kind=kind))
            blobs = []
            for run, parallelism in enumerate((1, 8, 1)):
                out_dir = Path(tmp, kind, str(run))
                files = runner.run_experiment(experiment, parallelism=parallelism, out_dir=out_dir).files
                blobs.append(files["records"].read_bytes() + files["summary"].read_bytes())
            identical = identical and blobs[0] == blobs[1] == blobs[2]
            sizes[f"bytes_{kind[4:]}"] = len(blobs[0])
    return SuiteResult("reproducibility", identical, sizes)


SUITES: dict[str, Callable[[np.random.Generator], SuiteResult]] = {
    "quantile-galois": suite_quantile_galois,
    "moment-oracle": suite_moment_oracle,
    "sandwich": suite_sandwich,
    "lipschitz": suite_lipschitz,
    "m4-bound": suite_m4_bound,
    "family-closure": suite_family_closure,
    "lifting-identity": suite_lifting_identity,
    "kl": suite_kl,
    "coverage-median": suite_coverage_median,
    "coverage-mad": suite_coverage_mad,
    "malicious-tightness": suite_malicious_tightness,
    "pac-simple": suite_pac_simple,
    "pac-succelim": suite_pac_succelim,
    "quality": suite_quality,
    "delta-budget": suite_delta_budget,
    "tail-shift": suite_tail_shift,
    "reproducibility": suite_reproducibility,
}


def check_suites(names, line: int | None = None) -> tuple[str, ...]:
    """``names`` as a tuple if it lists one or more verify suites, each once,
    else a ``TypeMismatchError``."""
    if not names:
        raise config.TypeMismatchError("suites must name at least one verify suite", "suites", line)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise config.TypeMismatchError(f"unknown verify suites: {', '.join(unknown)}", "suites", line)
    repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
    if repeated:
        raise config.TypeMismatchError(f"repeated verify suites: {', '.join(repeated)}", "suites", line)
    return tuple(names)


def run_suites(names=None, seed: int = 0) -> list[SuiteResult]:
    """Run the named suites (all when None), each on the stream of its place in SUITES."""
    order = list(SUITES)
    selected = order if names is None else check_suites(names)
    return [SUITES[name](runner.replication_rng(seed, order.index(name))) for name in selected]
