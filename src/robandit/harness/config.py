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

import math
from dataclasses import dataclass, field
from typing import Any

from ..bandit import THRESHOLD_VARIANTS, BanditInstance, effective_gaps
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
from ..estimators import EstimationParams, _BOUNDS
from .verify import SUITES

__all__ = [
    "ConfigError",
    "UnknownKeyError",
    "TypeMismatchError",
    "FeasibilityViolationError",
    "ExperimentConfig",
    "parse_config",
    "check_seed",
    "check_suites",
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
        if self.pos != len(self.text) and self.text[self.pos] != "#":
            self.fail(f"trailing characters after value: {self.text[self.pos:]!r}")
        return value

    def parse_value(self):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] == "#":
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

# kind -> (constructor, fields). A field is (name, type) or (name, type,
# default); a type is float, int, Distribution (a nested literal) or [type],
# a list of that type. Fields are passed to the constructor in this order.
_DISTRIBUTIONS = {
    "uniform": (Uniform, (("lo", float), ("hi", float))),
    "gaussian": (Gaussian, (("mu", float), ("sigma", float))),
    "cauchy": (Cauchy, (("x0", float), ("scale", float))),
    "bernoulli": (Bernoulli, (("p", float),)),
    "smoothed_bernoulli": (SmoothedBernoulli, (("p", float),)),
    "dirac": (Dirac, (("x", float),)),
    "mixture": (Mixture, (("weights", [float]), ("components", [Distribution]))),
    "affine": (Affine, (("base", Distribution), ("scale", float), ("shift", float, 0.0))),
}

_STRATEGIES = {
    "fixed": (FixedContamination, (("dist", Distribution),)),
    "shift_median_up": (ShiftMedianUp, (("magnitude", float, 1e6),)),
    "shift_median_down": (ShiftMedianDown, (("magnitude", float, 1e6),)),
    "uniform_tail_shift": (UniformTailShift, (("direction", int, 1),)),
    "below_median_coupling": (
        BelowMedianCoupling,
        (("threshold", float), ("flip_prob", float), ("point", float)),
    ),
    "atom_coupling": (
        AtomTriggeredCoupling,
        (("trigger", float), ("flip_prob", float), ("point", float)),
    ),
    "empirical_quantile": (EmpiricalQuantileShift, (("target_quantile", float, 0.9),)),
}


def _literal(table: dict, what: str, spec: Any, key: str, line: int | None):
    """Build the ``what`` literal ``spec``, a map with a ``kind`` from ``table``."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise TypeMismatchError(f"{what} literal must be a map with a 'kind'", key, line)
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise TypeMismatchError(f"unknown {what} kind {kind!r}", key, line)
    constructor, fields = table[kind]
    unknown = set(spec) - {"kind"} - {name for name, *_ in fields}
    if unknown:
        raise TypeMismatchError(
            f"{what} kind {kind!r} has unknown field(s) {', '.join(sorted(unknown))}", key, line
        )
    args = []
    for name, want, *default in fields:
        if name in spec:
            args.append(_coerce(spec[name], want, key, line))
        elif default:
            args.append(default[0])
        else:
            raise TypeMismatchError(f"{what} kind {kind!r} is missing field {name!r}", key, line)
    try:
        return constructor(*args)
    except (TypeError, ValueError, ParameterOutOfRangeError) as exc:
        raise TypeMismatchError(f"bad {what} literal: {exc}", key, line) from exc


def distribution_from_spec(spec: Any, key: str = "dist", line: int | None = None) -> Distribution:
    return _literal(_DISTRIBUTIONS, "distribution", spec, key, line)


def strategy_from_spec(spec: Any, key: str = "strategy", line: int | None = None):
    return _literal(_STRATEGIES, "strategy", spec, key, line)


# -- config assembly -----------------------------------------------------------

# [algorithm] key -> (type, default or None, range test or None, requirement).
# parse_config fills in each default the config leaves out.
_ALGORITHM = {
    "alpha": (float, 0.0, lambda v: v >= 0.0, "must be nonnegative"),
    "delta": (float, None, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "eps0": (float, None, lambda v: 0.0 <= v < 0.5, "must lie in [0, 1/2)"),
    "t_bar": (float, None, lambda v: 0.0 < v < 0.5, "must lie in (0, 1/2)"),
    "slope_bound": (float, None, lambda v: v > 0.0, "must be positive"),
    "mad_bound": (float, None, lambda v: v > 0.0, "must be positive"),
    "mad_ratio": (float, 0.0, lambda v: v >= 0.0, "must be nonnegative"),
    "error_level": (float, None, lambda v: v > 0.0, "must be positive"),
    "mad_source": (str, "true", lambda v: v in ("true", "bound"), "must be true or bound"),
    "early_stop": (bool, False, None, None),
    "max_rounds": (int, 10**6, lambda v: v >= 1, "must be at least 1"),
    "threshold_variant": (
        str,
        "squared-slope",
        lambda v: v in THRESHOLD_VARIANTS,
        "must be one of " + ", ".join(THRESHOLD_VARIANTS),
    ),
    "c_eta": (float, 1.0, lambda v: v > 0.0, "must be positive"),
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

_KNOWN_KEYS = {
    "experiment": {"kind", "replications", "seed", "suites"},
    "instance": {"model", "eps", "arm", "p"},
    "algorithm": set(_ALGORITHM),
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
            mad_ratio=alg["mad_ratio"],
        )

    def estimation_params(self) -> EstimationParams:
        return EstimationParams(
            eps0=self.algorithm["eps0"], family=self.family(), model=self.model
        )


def _coerce(value, want, key, line):
    if isinstance(want, list):
        if not isinstance(value, list):
            raise TypeMismatchError(f"expected a list, got {value!r}", key, line)
        return [_coerce(v, want[0], key, line) for v in value]
    if want is Distribution:
        return distribution_from_spec(value, key, line)
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


def check_seed(seed: int, line: int | None = None) -> int:
    """``seed`` if it is a 64-bit unsigned integer, else a ``TypeMismatchError``."""
    if not 0 <= seed < 2**64:
        raise TypeMismatchError("seed must be a 64-bit unsigned integer", key="seed", line=line)
    return seed


def check_suites(names, line: int | None = None) -> tuple[str, ...]:
    """``names`` as a tuple if each one names a verify suite, else a ``TypeMismatchError``."""
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise TypeMismatchError(f"unknown verify suites: {', '.join(unknown)}", "suites", line)
    return tuple(names)


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
        if key not in _KNOWN_KEYS[current]:
            raise UnknownKeyError(f"unknown key in [{current}]", key=key, line=lineno)
        value = _ValueParser(rest.strip(), lineno, key).parse()
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
    seed_line = exp_lines.get("seed")
    seed = check_seed(_coerce(exp.get("seed", 0), int, "seed", seed_line), seed_line)

    suites: tuple[str, ...] = ()
    if "suites" in exp:
        raw = exp["suites"]
        if isinstance(raw, str):
            raw = [raw]
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise TypeMismatchError("suites must be a list of names", key="suites", line=exp_lines.get("suites"))
        suites = check_suites(raw, exp_lines.get("suites"))

    out, out_lines = _section_map(sections.get("output", []))
    out_dir = _coerce(out["dir"], str, "dir", out_lines.get("dir")) if "dir" in out else None

    algo, algo_lines = _section_map(sections.get("algorithm", []))
    algorithm = {key: spec[1] for key, spec in _ALGORITHM.items() if spec[1] is not None}
    for key, value in algo.items():
        want, _, in_range, requirement = _ALGORITHM[key]
        if key == "mad_source" and value is True:
            value = "true"  # the value parser reads a bare true as a bool
        algorithm[key] = _coerce(value, want, key, algo_lines[key])
        if want is float and not math.isfinite(algorithm[key]):
            raise FeasibilityViolationError(
                f"{key} must be finite, got {value!r}", key=key, line=algo_lines[key]
            )
        if in_range is not None and not in_range(algorithm[key]):
            raise FeasibilityViolationError(
                f"{key} {requirement}, got {value!r}", key=key, line=algo_lines[key]
            )
    missing = _REQUIRED_ALGO[kind] - set(algo)
    if missing:
        raise ConfigError(
            f"[algorithm] is missing required keys for {kind}: {', '.join(sorted(missing))}"
        )

    inst, inst_lines = _section_map(sections.get("instance", []), repeatable={"arm"})

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

    p = tuple(_coerce(inst["p"], [float], "p", inst_lines["p"])) if "p" in inst else ()

    arms: list[ContaminatedArm] = []
    for value, lineno in inst.get("arm", []):
        if not isinstance(value, dict) or not value.keys() <= {"dist", "strategy"}:
            raise TypeMismatchError(
                f"arm must be a map with dist and strategy, got {value!r}", "arm", lineno
            )
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
        # the validity ranges of lower_bound_samples and of the liftings
        if not config.algorithm["delta"] < 3.0 / 20.0:
            raise FeasibilityViolationError(
                f"the lower bound needs delta < 0.15, got {config.algorithm['delta']}",
                key="delta",
                line=algo_lines.get("delta"),
            )
        if not 0.0 < config.eps < 1.0 / 15.0:
            raise FeasibilityViolationError(
                f"a lifted instance needs eps in (0, 1/15), got {config.eps}",
                key="eps",
                line=inst_lines.get("eps"),
            )
        if not all(1.0 / 3.0 <= v <= 2.0 / 3.0 for v in config.p):
            raise FeasibilityViolationError(
                f"a lifted instance needs every p in [1/3, 2/3], got {list(config.p)}",
                key="p",
                line=inst_lines.get("p"),
            )
    if kind == "gaps":
        return
    try:
        _BOUNDS["mad" if kind == "estimate-mad" else "median"].margin(config.estimation_params())
    except InfeasibleRegimeError as exc:
        raise FeasibilityViolationError(str(exc), key="eps0", line=algo_lines.get("eps0")) from exc
    if kind == "bai-succelim":
        _validate_race_terminates(config, algo_lines)


def _validate_race_terminates(config: ExperimentConfig, algo_lines) -> None:
    """Reject a race that may only end at the round cap: without an early stop
    at alpha > 0, an arm whose effective gap is not positive need never be
    dropped, and the race keeps every pull up to ``max_rounds``."""
    alg = config.algorithm
    if alg["early_stop"] and alg["alpha"] > 0:
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
