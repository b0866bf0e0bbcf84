"""Command-line entry point.

    robandit <command> --config <path> [--seed N] [--parallelism P] [--out DIR]

Commands: estimate, bai, gaps, lb, verify. Each command accepts a config file
whose [experiment] kind must belong to the command's group; ``verify`` may
instead take ``--suites name,name,...`` directly. The environment variable
ROBANDIT_SEED overrides the config seed; ``--seed`` overrides both. Exit
status: 0 success, 1 experiment-level failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ..errors import RobanditError
from .config import ConfigError, ExperimentConfig, check_seed, check_suites, parse_config
from .runner import run_experiment

_COMMAND_KINDS = {
    "estimate": {"estimate-median", "estimate-mad"},
    "bai": {"bai-simple", "bai-succelim"},
    "gaps": {"gaps"},
    "lb": {"lower-bound"},
    "verify": {"verify"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robandit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMAND_KINDS:
        cp = sub.add_parser(command)
        cp.add_argument("--config", type=Path, default=None)
        cp.add_argument("--seed", type=int, default=None)
        cp.add_argument("--parallelism", type=int, default=1)
        cp.add_argument("--out", type=Path, default=None)
        if command == "verify":
            cp.add_argument("--suites", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.config is not None:
            config = parse_config(args.config.read_text())
        elif args.command == "verify":
            config = ExperimentConfig(kind="verify", replications=1, seed=0)
        else:
            print("error: --config is required", file=sys.stderr)
            return 2
        if config.kind not in _COMMAND_KINDS[args.command]:
            print(
                f"error: config kind {config.kind!r} does not belong to command "
                f"{args.command!r}",
                file=sys.stderr,
            )
            return 2
        if args.command == "verify" and args.suites:
            config.suites = check_suites([s for s in args.suites.split(",") if s])

        env_seed = os.environ.get("ROBANDIT_SEED")
        if env_seed is not None:
            config.seed = check_seed(int(env_seed))
        if args.seed is not None:
            config.seed = check_seed(args.seed)

        if args.parallelism < 1:
            print("error: --parallelism must be at least 1", file=sys.stderr)
            return 2

        result = run_experiment(config, parallelism=args.parallelism, out_dir=args.out)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RobanditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, path in result.files.items():
        print(f"{name}: {path}")
    for key, value in result.summary.items():
        print(f"{key} = {value}")
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
