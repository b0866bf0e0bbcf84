"""Config parsing for the experiment runner.

The format is flat sectioned key-value text::

    [experiment]
    kind = bai-simple          # estimate-median | estimate-mad | bai-simple |
    replications = 200         # bai-succelim | gaps | lower-bound | verify
    seed = 12345

    [instance]
    model = oblivious
    eps = 0.1
    arm = {dist: {kind: uniform, lo: 0.0, hi: 1.0}, strategy: {kind: uniform_tail_shift, direction: -1}}
    arm = {dist: {kind: uniform, lo: 0.3, hi: 1.3}, strategy: {kind: shift_median_up, magnitude: 1e6}}

    [algorithm]
    alpha = 0.1
    delta = 0.1
    eps0 = 0.1
    t_bar = 0.4
    slope_bound = 4.0
    mad_bound = 0.25
    mad_ratio = 2.0

    [output]
    dir = out

Values are scalars (int, float, true/false, bare or quoted strings), lists
``[...]`` or tagged maps ``{key: value, ...}``. The ``arm`` key repeats, one
line per arm. Lines starting with ``#`` are comments. Every feasibility
invariant of the downstream modules is re-validated here so bad configs fail
at parse time with the offending key and line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..bandit import BanditInstance, effective_gaps
from ..contamination import (
    AtomTriggeredCoupling,
    BelowMedianCoupling,
    ContaminatedArm,
    EmpiricalQuantileShift,
    FixedContamination,
    ShiftMedianDown,
    ShiftMedianUp,
    UniformTailShift,
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
)
from ..errors import (
    IncompatibleStrategyError,
    InfeasibleRegimeError,
    NonUniqueMedianError,
    ParameterOutOfRangeError,
    RobanditError,
)
from ..estimators import EstimationParams

__all__ = [
    "ConfigError",
    "UnknownKeyError",
    "TypeMismatchError",
    "FeasibilityViolationError",
    "ExperimentConfig",
    "parse_config",
    "distribution_from_spec",
    "strategy_from_spec",
]

EXPERIMENT_KINDS = (
    "estimate-median",
    "estimate-mad",
    "bai-simple",
    "bai-succelim",
    "gaps",
    "lower-bound",
    "verify",
)


class ConfigError(RobanditError):
    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        where = ""
        if key is not None:
            where += f" (key {key!r}"
            where += f", line {line})" if line is not None else ")"
        elif line is not None:
            where += f" (line {line})"
        super().__init__(message + where)
        self.key = key
        self.line = line


class UnknownKeyError(ConfigError):
    pass


class TypeMismatchError(ConfigError):
    pass


class FeasibilityViolationError(ConfigError):
    pass


# -- value parser -------------------------------------------------------------


class _ValueParser:
    def __init__(self, text: str, line: int, key: str):
        self.text = text
        self.pos = 0
        self.line = line
        self.key = key

    def fail(self, message: str):
        raise TypeMismatchError(message, key=self.key, line=self.line)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def parse(self):
        self.skip_ws()
        value = self.parse_value()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"trailing characters after value: {self.text[self.pos:]!r}")
        return value

    def parse_value(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            self.fail("missing value")
        ch = self.text[self.pos]
        if ch == "{":
            return self.parse_map()
        if ch == "[":
            return self.parse_list()
        if ch == '"':
            return self.parse_quoted()
        return self.parse_scalar()

    def parse_map(self):
        self.pos += 1  # {
        out: dict[str, Any] = {}
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "}":
            self.pos += 1
            return out
        while True:
            self.skip_ws()
            key = self.parse_bare_word()
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != ":":
                self.fail(f"expected ':' after map key {key!r}")
            self.pos += 1
            out[key] = self.parse_value()
            self.skip_ws()
            if self.pos >= len(self.text):
                self.fail("unterminated map")
            if self.text[self.pos] == ",":
                self.pos += 1
                continue
            if self.text[self.pos] == "}":
                self.pos += 1
                return out
            self.fail(f"expected ',' or '}}' in map, got {self.text[self.pos]!r}")

    def parse_list(self):
        self.pos += 1  # [
        out: list[Any] = []
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "]":
            self.pos += 1
            return out
        while True:
            out.append(self.parse_value())
            self.skip_ws()
            if self.pos >= len(self.text):
                self.fail("unterminated list")
            if self.text[self.pos] == ",":
                self.pos += 1
                continue
            if self.text[self.pos] == "]":
                self.pos += 1
                return out
            self.fail(f"expected ',' or ']' in list, got {self.text[self.pos]!r}")

    def parse_quoted(self):
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            self.fail("unterminated string")
        value = self.text[self.pos + 1 : end]
        self.pos = end + 1
        return value

    def parse_bare_word(self):
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_.-+/~"
        ):
            self.pos += 1
        if self.pos == start:
            self.fail(f"expected a token at {self.text[start:]!r}")
        return self.text[start : self.pos]

    def parse_scalar(self):
        word = self.parse_bare_word()
        if word == "true":
            return True
        if word == "false":
            return False
        try:
            return int(word)
        except ValueError:
            pass
        try:
            return float(word)
        except ValueError:
            pass
        return word


# -- distribution / strategy literals -----------------------------------------


def distribution_from_spec(spec: Any, key: str = "dist", line: int | None = None) -> Distribution:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise TypeMismatchError("distribution literal must be a map with a 'kind'", key, line)
    spec = dict(spec)
    kind = spec.pop("kind")
    try:
        if kind == "uniform":
            return Uniform(float(spec.pop("lo")), float(spec.pop("hi")))
        if kind == "gaussian":
            return Gaussian(float(spec.pop("mu")), float(spec.pop("sigma")))
        if kind == "cauchy":
            return Cauchy(float(spec.pop("x0")), float(spec.pop("scale")))
        if kind == "bernoulli":
            return Bernoulli(float(spec.pop("p")))
        if kind == "smoothed_bernoulli":
            return SmoothedBernoulli(float(spec.pop("p")))
        if kind == "dirac":
            return Dirac(float(spec.pop("x")))
        if kind == "mixture":
            weights = [float(w) for w in spec.pop("weights")]
            components = [
                distribution_from_spec(c, key, line) for c in spec.pop("components")
            ]
            return Mixture(weights, components)
        if kind == "affine":
            base = distribution_from_spec(spec.pop("base"), key, line)
            return Affine(base, float(spec.pop("scale")), float(spec.pop("shift", 0.0)))
    except ConfigError:
        raise
    except KeyError as exc:
        raise TypeMismatchError(
            f"distribution kind {kind!r} is missing field {exc.args[0]!r}", key, line
        ) from exc
    except (TypeError, ValueError, ParameterOutOfRangeError) as exc:
        raise TypeMismatchError(f"bad distribution literal: {exc}", key, line) from exc
    raise TypeMismatchError(f"unknown distribution kind {kind!r}", key, line)


def strategy_from_spec(spec: Any, key: str = "strategy", line: int | None = None):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise TypeMismatchError("strategy literal must be a map with a 'kind'", key, line)
    spec = dict(spec)
    kind = spec.pop("kind")
    try:
        if kind == "fixed":
            return FixedContamination(distribution_from_spec(spec.pop("dist"), key, line))
        if kind == "shift_median_up":
            return ShiftMedianUp(float(spec.pop("magnitude", 1e6)))
        if kind == "shift_median_down":
            return ShiftMedianDown(float(spec.pop("magnitude", 1e6)))
        if kind == "uniform_tail_shift":
            return UniformTailShift(int(spec.pop("direction", 1)))
        if kind == "below_median_coupling":
            return BelowMedianCoupling(
                float(spec.pop("threshold")),
                float(spec.pop("flip_prob")),
                float(spec.pop("point")),
            )
        if kind == "atom_coupling":
            return AtomTriggeredCoupling(
                float(spec.pop("trigger")),
                float(spec.pop("flip_prob")),
                float(spec.pop("point")),
            )
        if kind == "empirical_quantile":
            return EmpiricalQuantileShift(float(spec.pop("target_quantile", 0.9)))
    except ConfigError:
        raise
    except KeyError as exc:
        raise TypeMismatchError(
            f"strategy kind {kind!r} is missing field {exc.args[0]!r}", key, line
        ) from exc
    except (TypeError, ValueError, ParameterOutOfRangeError) as exc:
        raise TypeMismatchError(f"bad strategy literal: {exc}", key, line) from exc
    raise TypeMismatchError(f"unknown strategy kind {kind!r}", key, line)


# -- config assembly -----------------------------------------------------------

_KNOWN_KEYS = {
    "experiment": {"kind", "replications", "seed", "suites"},
    "instance": {"model", "eps", "arm", "p"},
    "algorithm": {
        "alpha",
        "delta",
        "eps0",
        "t_bar",
        "slope_bound",
        "mad_bound",
        "mad_ratio",
        "error_level",
        "mad_source",
        "early_stop",
        "max_rounds",
        "threshold_variant",
        "c_eta",
    },
    "output": {"dir"},
}

_MODELS = {m.value: m for m in AdversaryModel}


@dataclass
class ExperimentConfig:
    kind: str
    replications: int
    seed: int
    out_dir: str | None = None
    model: AdversaryModel | None = None
    eps: float = 0.0
    arms: tuple[ContaminatedArm, ...] = ()
    p: tuple[float, ...] = ()
    algorithm: dict[str, Any] = field(default_factory=dict)
    suites: tuple[str, ...] = ()

    def family(self) -> FamilyParams:
        alg = self.algorithm
        return FamilyParams(
            t_bar=alg["t_bar"],
            slope_bound=alg["slope_bound"],
            mad_bound=alg["mad_bound"],
            mad_ratio=alg.get("mad_ratio", 0.0),
        )

    def estimation_params(self) -> EstimationParams:
        return EstimationParams(
            eps0=self.algorithm["eps0"], family=self.family(), model=self.model
        )


def _coerce(value, want, key, line):
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatchError(f"expected a number, got {value!r}", key, line)
        return float(value)
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"expected an integer, got {value!r}", key, line)
        return value
    if want is bool:
        if not isinstance(value, bool):
            raise TypeMismatchError(f"expected true/false, got {value!r}", key, line)
        return value
    if want is str:
        if not isinstance(value, str):
            raise TypeMismatchError(f"expected a string, got {value!r}", key, line)
        return value
    raise AssertionError(want)


def _parse_sections(text: str):
    """Returns {section: [(key, value, line)]} with values decoded."""
    sections: dict[str, list[tuple[str, Any, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if current not in _KNOWN_KEYS:
                raise UnknownKeyError(f"unknown section [{current}]", line=lineno)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ConfigError("key outside any section", line=lineno)
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, _, rest = stripped.partition("=")
        key = key.strip()
        rest = rest.split("#", 1)[0].strip() if not rest.strip().startswith('"') else rest.strip()
        if key not in _KNOWN_KEYS[current]:
            raise UnknownKeyError(f"unknown key in [{current}]", key=key, line=lineno)
        value = _ValueParser(rest, lineno, key).parse()
        sections[current].append((key, value, lineno))
    return sections


def _section_map(entries: list[tuple[str, Any, int]], repeatable: set[str] = frozenset()):
    out: dict[str, Any] = {}
    lines: dict[str, int] = {}
    for key, value, lineno in entries:
        if key in repeatable:
            out.setdefault(key, []).append((value, lineno))
        elif key in out:
            raise ConfigError(f"duplicate key {key!r}", key=key, line=lineno)
        else:
            out[key] = value
            lines[key] = lineno
    return out, lines


_ALGO_TYPES = {
    "alpha": float,
    "delta": float,
    "eps0": float,
    "t_bar": float,
    "slope_bound": float,
    "mad_bound": float,
    "mad_ratio": float,
    "error_level": float,
    "mad_source": str,
    "early_stop": bool,
    "max_rounds": int,
    "threshold_variant": str,
    "c_eta": float,
}

_REQUIRED_ALGO = {
    "estimate-median": {"delta", "eps0", "t_bar", "slope_bound", "mad_bound", "error_level"},
    "estimate-mad": {"delta", "eps0", "t_bar", "slope_bound", "mad_bound", "mad_ratio", "error_level"},
    "bai-simple": {"alpha", "delta", "eps0", "t_bar", "slope_bound", "mad_bound"},
    "bai-succelim": {"alpha", "delta", "eps0", "t_bar", "slope_bound", "mad_bound"},
    "gaps": {"slope_bound", "mad_bound", "t_bar"},
    "lower-bound": {"alpha", "delta", "eps0", "t_bar", "slope_bound", "mad_bound"},
    "verify": set(),
}


def parse_config(text: str) -> ExperimentConfig:
    sections = _parse_sections(text)

    exp, exp_lines = _section_map(sections.get("experiment", []))
    kind = _coerce(exp.get("kind", ""), str, "kind", exp_lines.get("kind"))
    if kind not in EXPERIMENT_KINDS:
        raise TypeMismatchError(
            f"kind must be one of {', '.join(EXPERIMENT_KINDS)}; got {kind!r}",
            key="kind",
            line=exp_lines.get("kind"),
        )
    replications = _coerce(exp.get("replications", 1), int, "replications", exp_lines.get("replications"))
    if replications < 1:
        raise FeasibilityViolationError(
            f"replications must be at least 1, got {replications}",
            key="replications",
            line=exp_lines.get("replications"),
        )
    seed = _coerce(exp.get("seed", 0), int, "seed", exp_lines.get("seed"))
    if not 0 <= seed < 2**64:
        raise TypeMismatchError("seed must be a 64-bit unsigned integer", key="seed", line=exp_lines.get("seed"))

    suites: tuple[str, ...] = ()
    if "suites" in exp:
        raw = exp["suites"]
        if isinstance(raw, str):
            raw = [raw]
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise TypeMismatchError("suites must be a list of names", key="suites", line=exp_lines.get("suites"))
        suites = tuple(raw)

    out, out_lines = _section_map(sections.get("output", []))
    out_dir = _coerce(out["dir"], str, "dir", out_lines.get("dir")) if "dir" in out else None

    algo_entries = sections.get("algorithm", [])
    algo, algo_lines = _section_map(algo_entries)
    algorithm: dict[str, Any] = {}
    for key, value in algo.items():
        algorithm[key] = _coerce(value, _ALGO_TYPES[key], key, algo_lines.get(key))
    missing = _REQUIRED_ALGO[kind] - set(algorithm)
    if missing:
        raise ConfigError(
            f"[algorithm] is missing required keys for {kind}: {', '.join(sorted(missing))}"
        )

    inst_entries = sections.get("instance", [])
    inst, inst_lines = _section_map(inst_entries, repeatable={"arm"})

    model = None
    if "model" in inst:
        name = _coerce(inst["model"], str, "model", inst_lines.get("model"))
        if name not in _MODELS:
            raise TypeMismatchError(
                f"model must be one of {', '.join(_MODELS)}; got {name!r}",
                key="model",
                line=inst_lines.get("model"),
            )
        model = _MODELS[name]
    eps = _coerce(inst.get("eps", 0.0), float, "eps", inst_lines.get("eps"))

    p: tuple[float, ...] = ()
    if "p" in inst:
        raw = inst["p"]
        if not isinstance(raw, list) or not all(isinstance(v, (int, float)) for v in raw):
            raise TypeMismatchError("p must be a list of numbers", key="p", line=inst_lines.get("p"))
        p = tuple(float(v) for v in raw)

    arms: list[ContaminatedArm] = []
    for value, lineno in inst.get("arm", []):
        if not isinstance(value, dict):
            raise TypeMismatchError("arm must be a map with dist and strategy", "arm", lineno)
        dist = distribution_from_spec(value.get("dist"), "arm", lineno)
        strategy = strategy_from_spec(
            value.get("strategy", {"kind": "shift_median_up"}), "arm", lineno
        )
        try:
            arms.append(ContaminatedArm(dist=dist, strategy=strategy, eps=eps, model=model))
        except (IncompatibleStrategyError, ParameterOutOfRangeError) as exc:
            raise FeasibilityViolationError(str(exc), key="arm", line=lineno) from exc

    config = ExperimentConfig(
        kind=kind,
        replications=replications,
        seed=seed,
        out_dir=out_dir,
        model=model,
        eps=eps,
        arms=tuple(arms),
        p=p,
        algorithm=algorithm,
        suites=suites,
    )
    _validate_feasibility(config, inst_lines, algo_lines)
    return config


def _validate_feasibility(config: ExperimentConfig, inst_lines, algo_lines) -> None:
    kind = config.kind
    if kind == "verify":
        return
    if kind in ("estimate-median", "estimate-mad", "bai-simple", "bai-succelim", "gaps"):
        if config.model is None:
            raise ConfigError("[instance] must set a model", key="model")
        if not config.arms:
            raise ConfigError("[instance] must declare at least one arm", key="arm")
    if kind in ("estimate-median", "estimate-mad") and len(config.arms) != 1:
        raise FeasibilityViolationError(
            "estimation experiments use exactly one arm", key="arm"
        )
    if kind == "lower-bound":
        if len(config.p) < 2:
            raise ConfigError("[instance] must list at least two p values", key="p")
        if config.model is None:
            raise ConfigError("[instance] must set a model", key="model")
    if kind == "gaps":
        return
    try:
        params = config.estimation_params()
        if kind == "estimate-mad":
            params.mad_margin()
        else:
            params.median_margin()
    except InfeasibleRegimeError as exc:
        raise FeasibilityViolationError(str(exc), key="eps0", line=algo_lines.get("eps0")) from exc
    except ParameterOutOfRangeError as exc:
        raise FeasibilityViolationError(str(exc), key="eps0", line=algo_lines.get("eps0")) from exc
    if kind == "bai-succelim":
        _validate_race_terminates(config, algo_lines)


def _validate_race_terminates(config: ExperimentConfig, algo_lines) -> None:
    """Reject a race that may only end at the round cap: without an early stop
    at alpha > 0, an arm whose effective gap is not positive need never be
    dropped, and the race keeps every pull up to ``max_rounds``."""
    alg = config.algorithm
    if alg.get("early_stop", False) and alg["alpha"] > 0:
        return
    try:
        report = effective_gaps(BanditInstance(config.arms), config.family())
    except NonUniqueMedianError:
        return  # effective gaps are undefined; leave the race to its round cap
    if report.infeasible_arms:
        raise FeasibilityViolationError(
            f"arms {list(report.infeasible_arms)} have effective gap <= 0 against arm "
            f"{report.best_arm}, so the race may run to max_rounds; "
            "set early_stop = true with alpha > 0",
            key="alpha",
            line=algo_lines.get("alpha"),
        )
