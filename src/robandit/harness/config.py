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
token is. The ``arm`` key repeats, one line per arm; any other key is
stated at most once. Lines starting with ``#`` are comments. A distribution
or strategy literal's fields are its class's dataclass fields. The parser
validates a config by building its run's spec with the runner's own set-up
(``runner.spec_of``), whose library objects each state their own ranges,
and reports a rejection at the config key and line of the parameter it
names, so a bad config fails at parse time.

Three tables state what a config may hold. ``_KEYS`` maps every key to its
section, its type and its default; no two sections share a key. ``_KINDS``
states each experiment kind once: the CLI command that runs it, the
statistic it estimates or races on, the keys it requires and the other keys
it reads, in any section (every kind also reads ``kind``, ``replications``,
``seed`` and ``dir``). ``_CHOICES`` lists the values a string key may take.
The CLI's subcommands and the runner's dispatch are read from ``_KINDS``.

A config's faults are reported in this order, the first one found: its
lines (a section, a key or a value no config may state, a key stated
twice), then ``kind``, then each key the kind does not read in line order,
then the first missing required key in ``_KEYS`` order, then each value
against its type and choices, then the arms in line order, then the run's
spec.
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

# key -> (section, type, default or None). Every value a config states, and
# every default it leaves out, is read as its type by _coerce. An [algorithm]
# default is filled in whether or not the kind reads the key; the library
# objects the kind runs state the ranges.
_KEYS = {
    "kind": ("experiment", str, ""),
    "replications": ("experiment", int, 1),
    "seed": ("experiment", int, 0),
    "suites": ("experiment", [str], None),
    "model": ("instance", str, None),
    "eps": ("instance", float, 0.0),
    "arm": ("instance", dict, None),
    "p": ("instance", [float], None),
    "alpha": ("algorithm", float, 0.0),
    "delta": ("algorithm", float, None),
    "eps0": ("algorithm", float, None),
    "t_bar": ("algorithm", float, None),
    "slope_bound": ("algorithm", float, None),
    "mad_bound": ("algorithm", float, None),
    "mad_ratio": ("algorithm", float, 0.0),
    "error_level": ("algorithm", float, None),
    "mad_source": ("algorithm", str, "true"),
    "early_stop": ("algorithm", bool, False),
    "max_rounds": ("algorithm", int, 10**6),
    "c_eta": ("algorithm", float, 1.0),
    "dir": ("output", str, None),
}

# the keys every kind reads
_EVERY = frozenset({"kind", "replications", "seed", "dir"})


class _Kind(NamedTuple):
    command: str  # the CLI subcommand that runs the kind
    statistic: str | None  # what it estimates or races on: "median", "mad" or None
    required: frozenset[str]  # the keys the config must set
    optional: frozenset[str]  # the other keys it reads, if set


_FAMILY = frozenset({"t_bar", "slope_bound", "mad_bound"})
_ARMS = _FAMILY | {"model", "arm"}  # a family and contaminated arms, all gaps requires
_ESTIMATE = _ARMS | {"delta", "eps0", "error_level"}
_RACE = frozenset({"alpha", "delta", "eps0"})
_EPS = frozenset({"eps"})  # every kind with an instance reads eps
_RACING = _EPS | {"early_stop", "max_rounds", "mad_ratio"}

_KINDS = {
    "estimate-median": _Kind("estimate", "median", _ESTIMATE, _EPS | {"mad_source"}),
    "estimate-mad": _Kind("estimate", "mad", _ESTIMATE | {"mad_ratio"}, _EPS | {"mad_source"}),
    "bai-simple": _Kind("bai", "median", _ARMS | _RACE, _EPS | {"mad_ratio"}),
    "bai-succelim": _Kind("bai", "median", _ARMS | _RACE, _RACING),
    "gaps": _Kind("gaps", None, _ARMS, _EPS),
    "lower-bound": _Kind("lb", "median", _FAMILY | _RACE | {"model", "p"}, _RACING | {"c_eta"}),
    "verify": _Kind("verify", None, frozenset(), frozenset({"suites"})),
}

_MODELS = {m.value: m for m in AdversaryModel}

# key -> (the values it may take, the error a value outside them raises)
_CHOICES = {
    "kind": (_KINDS, TypeMismatchError),
    "model": (_MODELS, TypeMismatchError),
    "mad_source": (("true", "bound"), FeasibilityViolationError),
}


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


# a scalar type as _coerce's messages name it
_EXPECTED = {float: "a number", int: "an integer", bool: "true/false", str: "a string", dict: "a map"}


def _coerce(value, want, key, line):
    """``value`` as ``want``: a scalar type, ``Distribution`` (a literal) or
    ``[t]``, a list of ``t``. A bool is no number, and an integer is a float."""
    if isinstance(want, list):
        if not isinstance(value, list):
            raise TypeMismatchError(f"expected a list, got {value!r}", key, line)
        return [_coerce(v, want[0], key, line) for v in value]
    if want is Distribution:
        return distribution_from_spec(value, key, line)
    if isinstance(value, want) and not (want is int and isinstance(value, bool)):
        return value
    if want is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past the floats reads as the word 1e400 does
            return math.inf if value > 0 else -math.inf
    raise TypeMismatchError(f"expected {_EXPECTED[want]}, got {value!r}", key, line)


def check_seed(seed: int, line: int | None = None) -> int:
    """``seed`` if it is a 64-bit unsigned integer, else a ``TypeMismatchError``."""
    if not 0 <= seed < 2**64:
        raise TypeMismatchError("seed must be a 64-bit unsigned integer", key="seed", line=line)
    return seed


def _parse_sections(text: str):
    """Returns {section: [(key, value, line)]} with values decoded."""
    sections: dict[str, list[tuple[str, Any, int]]] = {}
    stated: set[str] = set()
    current: str | None = None
    # only "\n" ends a line; strip() drops the "\r" of a "\r\n"
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if all(section != current for section, *_ in _KEYS.values()):
                raise UnknownKeyError(f"unknown section [{current}]", line=lineno)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ConfigError("key outside any section", line=lineno)
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, _, rest = stripped.partition("=")
        key = key.strip()
        if _KEYS.get(key, ("",))[0] != current:
            raise UnknownKeyError(f"unknown key in [{current}]", key=key, line=lineno)
        value = _parse_value(rest.strip(), key, lineno)
        if key in stated and key != "arm":
            raise ConfigError(f"duplicate key {key!r}", key=key, line=lineno)
        stated.add(key)
        sections[current].append((key, value, lineno))
    return sections


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
    entries = sorted((e for s in _parse_sections(text).values() for e in s), key=lambda e: e[2])
    values = {key: value for key, value, _ in entries}
    lines = {key: lineno for key, _, lineno in reversed(entries)}  # an arm's is the first arm's

    def read(key: str):
        """``key``'s stated value, else its default, as its type and one of its choices."""
        _, want, default = _KEYS[key]
        value, line = values.get(key, default), lines.get(key)
        if value is None:
            return None
        choices, error = _CHOICES.get(key, ((), None))
        if value is True and "true" in choices:
            value = "true"  # the value parser reads a bare true as a bool
        if key == "suites" and isinstance(value, str):
            value = [value]  # one suite may be named bare
        value = _coerce(value, want, key, line)
        if error is not None and value not in choices:
            raise error(f"{key} must be one of {', '.join(choices)}; got {value!r}", key, line)
        return value

    name = read("kind")
    kind = _KINDS[name]
    reads = kind.required | kind.optional | _EVERY
    for key, _, lineno in entries:
        if key not in reads:
            raise UnknownKeyError(f"{name} reads no [{_KEYS[key][0]}] key {key!r}", key, lineno)
    missing = next((key for key in _KEYS if key in kind.required and key not in lines), None)
    if missing is not None:
        raise ConfigError(f"[{_KEYS[missing][0]}] is missing a key {name} requires", missing)

    replications = read("replications")
    if replications < 1:
        message = f"replications must be at least 1, got {replications}"
        raise FeasibilityViolationError(message, "replications", lines.get("replications"))
    seed = check_seed(read("seed"), lines.get("seed"))
    suites = read("suites")
    if suites is not None:
        from .verify import check_suites

        suites = check_suites(suites, lines["suites"])
    p = tuple(read("p") or ())
    if "p" in lines and len(p) < 2:
        raise ConfigError("[instance] must list at least two p values", key="p", line=lines["p"])
    eps, model, out_dir = read("eps"), _MODELS.get(read("model")), read("dir")
    algorithm = {
        key: value
        for key, (section, *_) in _KEYS.items()
        if section == "algorithm" and (value := read(key)) is not None
    }

    arms: list[ContaminatedArm] = []
    for value, lineno in ((value, lineno) for key, value, lineno in entries if key == "arm"):
        if kind.command == "estimate" and arms:
            raise FeasibilityViolationError("estimation experiments use exactly one arm", "arm", lineno)
        value = _coerce(value, dict, "arm", lineno)
        if not value.keys() <= {"dist", "strategy"}:
            message = f"arm must be a map with dist and strategy, got {value!r}"
            raise TypeMismatchError(message, "arm", lineno)
        dist = distribution_from_spec(value.get("dist"), "arm", lineno)
        strategy = strategy_from_spec(value.get("strategy", {"kind": "shift_median_up"}), "arm", lineno)
        try:
            arms.append(ContaminatedArm(dist=dist, strategy=strategy, eps=eps, model=model))
        except (IncompatibleStrategyError, ParameterOutOfRangeError) as exc:
            if isinstance(exc, ParameterOutOfRangeError) and exc.key == "eps":
                raise FeasibilityViolationError(str(exc), "eps", lines.get("eps")) from exc
            raise FeasibilityViolationError(str(exc), key="arm", line=lineno) from exc
        if kind.command != "estimate" and not _median_mad(dist)[2]:
            message = "effective gaps need every arm's median to be unique"
            raise FeasibilityViolationError(message, key="arm", line=lineno)

    config = ExperimentConfig(
        kind=name, replications=replications, seed=seed, out_dir=out_dir, model=model, eps=eps,
        arms=tuple(arms), p=p, algorithm=algorithm, suites=suites or ()
    )
    if kind.command != "verify":
        _check_run(config, lines)
    return config


def _check_run(config: ExperimentConfig, lines: dict[str, int]) -> None:
    """Build the run's spec as the run does (``runner.spec_of``), each object
    built stating its own ranges, then check that ``eps`` is at most ``eps0``,
    the rule no library object states. A rejection is reported at the key it
    names and that key's line (the lower bound's gaps at ``p``), an
    infeasible margin or warm-up at ``eps0``."""
    from .runner import spec_of  # runner imports this module at load

    try:
        spec_of(config)
    except ParameterOutOfRangeError as exc:
        key = "p" if exc.key == "gaps" else exc.key
        raise FeasibilityViolationError(str(exc), key=key, line=lines.get(key)) from exc
    except InfeasibleRegimeError as exc:
        raise FeasibilityViolationError(str(exc), key="eps0", line=lines.get("eps0")) from exc
    # eps0 is the known upper bound on the contamination level
    if "eps0" in _KINDS[config.kind].required and config.eps > config.algorithm["eps0"]:
        message = f"eps0 must be at least the instance's eps {config.eps}, got {config.algorithm['eps0']}"
        raise FeasibilityViolationError(message, key="eps0", line=lines.get("eps0"))
