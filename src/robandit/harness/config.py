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
``[...]`` or tagged maps ``{key: value, ...}``; ``_TOKEN`` states what a
token is. The ``arm`` key repeats, one line per arm. Lines starting with
``#`` are comments. A distribution or strategy literal's fields are its
class's dataclass fields. The parser validates a config by building its
run's spec with the runner's own set-up (``runner.spec_of``), whose library
objects each state their own ranges, and reports a rejection at the config
key and line of the parameter it names, so a bad config fails at parse time.

``_KINDS`` states each experiment kind once: the CLI command that runs it,
what its ``[instance]`` declares, the statistic it estimates or races on,
and the ``[algorithm]`` keys it requires and those it also reads; a config
that sets any other ``[algorithm]`` key is rejected. The CLI's subcommands
and the runner's dispatch are read from it.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..bandit import AlgoConfig
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
    _median_mad,
)
from ..errors import (
    IncompatibleStrategyError,
    InfeasibleRegimeError,
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
    "check_seed",
    "distribution_from_spec",
    "strategy_from_spec",
]

class ConfigError(RobanditError):
    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        super().__init__(message)
        self.key = key
        self.line = line
        self.stated: str | None = None  # that line as the config states it, set by parse_config

    def __str__(self) -> str:
        where = [f"key {self.key!r}"] if self.key is not None else []
        if self.line is not None:
            where.append(f"line {self.line}: {self.stated}" if self.stated else f"line {self.line}")
        return super().__str__() + (f" ({', '.join(where)})" if where else "")


class UnknownKeyError(ConfigError):
    pass


class TypeMismatchError(ConfigError):
    pass


class FeasibilityViolationError(ConfigError):
    pass


# -- value parser -------------------------------------------------------------

# After blanks, one token: a quoted string (no escapes), a bare word, a mark, a
# comment running to the end of the line, or any other character, which no
# value may hold. Every character but a blank is in some token.
_TOKEN = re.compile(r'[ \t]*(?:"([^"]*)"|([\w.+/~-]+)|([{}\[\],:])|(#.*)|([^ \t]))')
_QUOTED, _WORD, _MARK, _COMMENT = 1, 2, 3, 4


def _scalar(word: str):
    """A bare word as true/false, an int, a float, or else the word itself."""
    if word in ("true", "false"):
        return word == "true"
    for number in (int, float):
        try:
            return number(word)
        except ValueError:
            pass
    return word


def _parse_value(text: str, key: str, line: int):
    """Decode ``text``, one value (a scalar, a quoted string, a ``[list]`` or a
    ``{map}`` with bare-word keys) that a ``# comment`` may follow."""
    tokens = [(m.lastindex, m[m.lastindex]) for m in _TOKEN.finditer(text)]
    if tokens and tokens[-1][0] == _COMMENT:
        tokens.pop()
    tokens.append((None, "end of value"))
    at = 0

    def take(*marks):
        """The next token, which must be one of ``marks`` if any are given."""
        nonlocal at
        group, token = tokens[at]
        if marks and (group != _MARK or token not in marks):
            expected = " or ".join(map(repr, marks))
            raise TypeMismatchError(f"expected {expected}, got {token!r}", key, line)
        at += 1
        return group, token

    def value():
        group, token = take()
        if group == _QUOTED:
            return token
        if group == _WORD:
            return _scalar(token)
        if token == "[":
            return items("]", value)
        if token == "{":
            return dict(items("}", entry))
        got = "an unterminated string" if token == '"' else repr(token)
        raise TypeMismatchError(f"expected a value, got {got}", key, line)

    def entry():
        group, name = take()
        if group != _WORD:
            raise TypeMismatchError(f"expected a bare-word map key, got {name!r}", key, line)
        take(":")
        return name, value()

    def items(close, item):
        if tokens[at] == (_MARK, close):
            take()
            return []
        out = [item()]
        while take(",", close)[1] == ",":
            out.append(item())
        return out

    decoded = value()
    if at < len(tokens) - 1:
        raise TypeMismatchError(f"trailing characters after value: {tokens[at][1]!r}", key, line)
    return decoded


# -- distribution / strategy literals -----------------------------------------

# A literal field's declared type, as its annotation string reads (the literal
# classes postpone annotations), to the type _coerce checks; [t] is a list of t.
_FIELD_TYPES = {
    "float": float,
    "int": int,
    "Distribution": Distribution,
    "tuple[float, ...]": [float],
    "tuple[Distribution, ...]": [Distribution],
}


def _literals(**constructors) -> dict:
    """kind -> (constructor, fields), each field (name, type) or (name, type,
    default), in the order its class declares them."""
    return {
        kind: (c, tuple(_field(f) for f in dataclasses.fields(c) if f.init))
        for kind, c in constructors.items()
    }


def _field(f: dataclasses.Field) -> tuple:
    default = () if f.default is dataclasses.MISSING else (f.default,)
    return (f.name, _FIELD_TYPES[f.type], *default)


_DISTRIBUTIONS = _literals(
    uniform=Uniform, gaussian=Gaussian, cauchy=Cauchy, bernoulli=Bernoulli,
    smoothed_bernoulli=SmoothedBernoulli, dirac=Dirac, mixture=Mixture, affine=Affine
)
_STRATEGIES = _literals(
    fixed=FixedContamination, shift_median_up=ShiftMedianUp, shift_median_down=ShiftMedianDown,
    uniform_tail_shift=UniformTailShift, below_median_coupling=BelowMedianCoupling,
    atom_coupling=AtomTriggeredCoupling, empirical_quantile=EmpiricalQuantileShift
)


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
            value = _coerce(spec[name], want, key, line)
            numbers = value if want == [float] else [value] if want is float else []
            if not all(map(math.isfinite, numbers)):
                raise FeasibilityViolationError(
                    f"{what} kind {kind!r} field {name!r} must be finite, got {spec[name]!r}",
                    key,
                    line,
                )
            args.append(value)
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

# [algorithm] key -> (type, default or None). parse_config fills in each
# default the config leaves out; the library objects the kind runs state the
# ranges.
_ALGORITHM = {
    "alpha": (float, 0.0),
    "delta": (float, None),
    "eps0": (float, None),
    "t_bar": (float, None),
    "slope_bound": (float, None),
    "mad_bound": (float, None),
    "mad_ratio": (float, 0.0),
    "error_level": (float, None),
    "mad_source": (str, "true"),
    "early_stop": (bool, False),
    "max_rounds": (int, 10**6),
    "c_eta": (float, 1.0),
}


class _Kind(NamedTuple):
    command: str  # the CLI subcommand that runs the kind
    instance: str  # what [instance] declares: "arms", one "arm", "p" or ""
    statistic: str | None  # what it estimates or races on: "median", "mad" or None
    required: frozenset[str]  # the [algorithm] keys the config must set
    optional: frozenset[str]  # the other [algorithm] keys it reads, if set


_FAMILY = frozenset({"t_bar", "slope_bound", "mad_bound"})
_ESTIMATE = _FAMILY | {"delta", "eps0", "error_level"}
_RACE = _FAMILY | {"alpha", "delta", "eps0"}
_RACING = frozenset({"early_stop", "max_rounds", "mad_ratio"})
_NONE = frozenset()
_MAD_SOURCE = frozenset({"mad_source"})

_KINDS = {
    "estimate-median": _Kind("estimate", "arm", "median", _ESTIMATE, _MAD_SOURCE),
    "estimate-mad": _Kind("estimate", "arm", "mad", _ESTIMATE | {"mad_ratio"}, _MAD_SOURCE),
    "bai-simple": _Kind("bai", "arms", "median", _RACE, frozenset({"mad_ratio"})),
    "bai-succelim": _Kind("bai", "arms", "median", _RACE, _RACING),
    "gaps": _Kind("gaps", "arms", None, _FAMILY, _NONE),
    "lower-bound": _Kind("lb", "p", "median", _RACE, _RACING | {"c_eta"}),
    "verify": _Kind("verify", "", None, _NONE, _NONE),
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
        keys = ("t_bar", "slope_bound", "mad_bound", "mad_ratio")
        return FamilyParams(**{key: self.algorithm[key] for key in keys})

    def estimation_params(self) -> EstimationParams:
        return EstimationParams(
            eps0=self.algorithm["eps0"], family=self.family(), model=self.model
        )

    def algo_config(self) -> AlgoConfig:
        keys = ("alpha", "delta", "eps0", "max_rounds", "early_stop")
        return AlgoConfig(family=self.family(), **{key: self.algorithm[key] for key in keys})


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


def _parse_sections(text: str):
    """Returns {section: [(key, value, line)]} with values decoded."""
    sections: dict[str, list[tuple[str, Any, int]]] = {}
    current: str | None = None
    # only "\n" ends a line; strip() drops the "\r" of a "\r\n"
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        value = _parse_value(rest.strip(), key, lineno)
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
    """The config ``text`` states; a ``ConfigError`` that names a key and a
    line quotes that line as ``text`` states it."""
    try:
        return _parse_config(text)
    except ConfigError as exc:
        if exc.key is not None and exc.line is not None:
            exc.stated = text.split("\n")[exc.line - 1].strip()
        raise


def _parse_config(text: str) -> ExperimentConfig:
    sections = _parse_sections(text)

    exp, exp_lines = _section_map(sections.get("experiment", []))
    kind = _coerce(exp.get("kind", ""), str, "kind", exp_lines.get("kind"))
    if kind not in _KINDS:
        raise TypeMismatchError(
            f"kind must be one of {', '.join(_KINDS)}; got {kind!r}",
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
        if kind != "verify":
            raise UnknownKeyError(f"{kind} reads no suites", key="suites", line=exp_lines["suites"])
        raw = exp["suites"]
        if isinstance(raw, str):
            raw = [raw]
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise TypeMismatchError("suites must be a list of names", key="suites", line=exp_lines.get("suites"))
        from .verify import check_suites

        suites = check_suites(raw, exp_lines.get("suites"))

    out, out_lines = _section_map(sections.get("output", []))
    out_dir = _coerce(out["dir"], str, "dir", out_lines.get("dir")) if "dir" in out else None

    algo, algo_lines = _section_map(sections.get("algorithm", []))
    algorithm = {key: default for key, (_, default) in _ALGORITHM.items() if default is not None}
    algo_reads = _KINDS[kind].required | _KINDS[kind].optional
    for key, value in algo.items():
        if key not in algo_reads:
            raise UnknownKeyError(
                f"{kind} reads no [algorithm] key {key!r}", key=key, line=algo_lines[key]
            )
        if key == "mad_source" and value is True:
            value = "true"  # the value parser reads a bare true as a bool
        algorithm[key] = _coerce(value, _ALGORITHM[key][0], key, algo_lines[key])
        if key == "mad_source" and value not in ("true", "bound"):
            raise FeasibilityViolationError(
                f"mad_source must be true or bound, got {value!r}", key=key, line=algo_lines[key]
            )
    missing = _KINDS[kind].required - set(algo)
    if missing:
        raise ConfigError(
            f"[algorithm] is missing required keys for {kind}: {', '.join(sorted(missing))}"
        )

    instance = _KINDS[kind].instance
    reads = {"model", "eps", "p" if instance == "p" else "arm"} if instance else set()
    for key, _, lineno in sections.get("instance", []):
        if key not in reads:
            raise UnknownKeyError(f"{kind} reads no [instance] key {key!r}", key=key, line=lineno)
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
            if isinstance(exc, ParameterOutOfRangeError) and exc.key == "eps":
                raise FeasibilityViolationError(str(exc), "eps", inst_lines.get("eps")) from exc
            raise FeasibilityViolationError(str(exc), key="arm", line=lineno) from exc
        if instance == "arms" and not _median_mad(dist)[2]:
            raise FeasibilityViolationError(
                "effective gaps need every arm's median to be unique", key="arm", line=lineno
            )

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
    """Check the rules no library object states, then build the run's spec as
    the run does (``runner.spec_of``), each object built stating its own
    ranges. A rejection is reported at the key it names and that key's line
    (the lower bound's gaps at ``p``), an infeasible margin or warm-up at ``eps0``."""
    from .runner import spec_of  # runner imports this module at load

    kind = _KINDS[config.kind]
    if not kind.instance:
        return
    if config.model is None:
        raise ConfigError("[instance] must set a model", key="model")
    if kind.instance == "p" and len(config.p) < 2:
        raise ConfigError("[instance] must list at least two p values", key="p")
    if kind.instance != "p" and not config.arms:
        raise ConfigError("[instance] must declare at least one arm", key="arm")
    if kind.instance == "arm" and len(config.arms) != 1:
        raise FeasibilityViolationError("estimation experiments use exactly one arm", key="arm")
    lines = {**inst_lines, **algo_lines}
    try:
        spec_of(config)
    except ParameterOutOfRangeError as exc:
        key = "p" if exc.key == "gaps" else exc.key
        raise FeasibilityViolationError(str(exc), key=key, line=lines.get(key)) from exc
    except InfeasibleRegimeError as exc:
        raise FeasibilityViolationError(str(exc), key="eps0", line=lines.get("eps0")) from exc
    # eps0 is the known upper bound on the contamination level
    if "eps0" in kind.required and config.eps > config.algorithm["eps0"]:
        raise FeasibilityViolationError(
            f"eps0 must be at least the instance's eps {config.eps}, got {config.algorithm['eps0']}",
            key="eps0",
            line=algo_lines.get("eps0"),
        )
