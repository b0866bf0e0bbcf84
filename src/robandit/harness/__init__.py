"""Experiment harness: config parsing, seeded replication, verify suites, CLI."""

from .config import (
    ConfigError,
    ExperimentConfig,
    FeasibilityViolationError,
    TypeMismatchError,
    UnknownKeyError,
    parse_config,
)
from .runner import ExperimentResult, mix_seed, replication_rng, run_experiment, wilson_interval

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "FeasibilityViolationError",
    "TypeMismatchError",
    "UnknownKeyError",
    "parse_config",
    "ExperimentResult",
    "mix_seed",
    "replication_rng",
    "run_experiment",
    "wilson_interval",
]
