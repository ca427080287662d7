"""Command-line entry point.

    vqls-precond <solve|sweep-depth|spectrum|heat> [--config FILE]
                 [--profile ci|paper] [--seed S] [--depth D] [--out DIR]
                 [--no-precond] [--dump-matrix]

Exit codes: 0 success, 2 a configuration error or an output that cannot be
written (the directory or any file in it), 3 numerical failure: a zero ILU(0)
pivot, a singular matrix in a LAPACK solve (``numpy.linalg.LinAlgError``), a
degenerate block or operator, a diverged training run, or no factorable
instance.
Precedence: profile < heat defaults < config file < flags, each a layer
merged by ``experiments.load_config``. The config file holds a JSON object.
Booleans, ``output_dir`` and every other field must have their declared
types, and a heat run's right-hand side must be normalizable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .embedding import DegenerateBlockError
from .experiments import (COMMANDS, PROFILES, ExperimentConfig, NoFactorableInstanceError,
                          load_config, run)
from .ilu import ZeroPivotError
from .vqls import DegenerateOperatorError, DivergedError

_NUMERICAL_ERRORS = (ZeroPivotError, DegenerateBlockError, DegenerateOperatorError,
                     DivergedError, NoFactorableInstanceError, np.linalg.LinAlgError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqls-precond",
        description="Solve sparse linear systems with a simulated variational "
                    "quantum linear solver, with and without ILU(0) preconditioning.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in COMMANDS:
        name = kind.replace("_", "-")
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.set_defaults(kind=kind)
        p.add_argument("--config", help="JSON config file (fields override the profile)")
        p.add_argument("--profile", choices=sorted(PROFILES), default="paper",
                       help="built-in base configuration (default: paper)")
        p.add_argument("--seed", type=int, help="replace the seed list with this one seed")
        p.add_argument("--depth", type=int, help="override the ansatz depth")
        p.add_argument("--out", help="output directory")
        p.add_argument("--no-precond", action="store_true",
                       help="skip the preconditioned arm")
        p.add_argument("--dump-matrix", action="store_true",
                       help="export the generated instance in Matrix Market format")
    return parser


def _load_config(args) -> ExperimentConfig:
    """Read the config file and turn the flags into the last layer."""
    file_layer = json.loads(Path(args.config).read_text()) if args.config else {}
    flags = {}
    if args.seed is not None:
        flags["seeds"] = [args.seed]
    if args.depth is not None:
        flags.update(depths=[args.depth], vqls={"depth": args.depth})
    if args.out:
        flags["output_dir"] = args.out
    if args.no_precond:
        flags["no_precond"] = True
    if args.dump_matrix:
        flags["dump_matrix"] = True
    return load_config(args.kind, args.profile, file_layer, flags)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        artifacts = run(cfg)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for name in artifacts:
        print(f"wrote {cfg.output_dir}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
