"""Command-line entry point.

Exit codes: 0 on success, 1 when a computation fails its checks (or an
acceptance criterion fails), 2 for unusable configuration or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .acceptance import CRITERIA, run_suite
from .config import EXPERIMENT_IDS, ExperimentConfig
from .errors import ConfigError, DomainError, RejectionBudgetError, SizeError
from .experiments import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspec",
        description="Fractal constructions, their transforms, and density verdicts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENT_IDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: out)")

    v = sub.add_parser("verify", help="run acceptance criteria")
    v.add_argument(
        "--suite",
        action="append",
        default=None,
        choices=sorted(CRITERIA),
        help="criterion to run (repeatable; default: all of them)",
    )
    return parser


# Built once, at import: the parser's first message lookup (gettext) imports
# locale, and imports belong to set-up, not to the command they would delay.
PARSER = build_parser()


def _run_verify(suite: list[str] | None) -> int:
    results = run_suite(suite)
    for res in results:
        print(res.line())
    passed = sum(r.passed for r in results)
    summary = {
        "passed": passed,
        "failed": len(results) - passed,
        "criteria": {r.name: r.passed for r in results},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if passed == len(results) else 1


def _run_experiment_command(args) -> int:
    cfg = ExperimentConfig.from_file(
        args.config, experiment=args.command, seed=args.seed, out=args.out
    )
    record = run_experiment(cfg)
    print(json.dumps(record.to_dict(), sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args.suite)
        return _run_experiment_command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SizeError, RejectionBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
