"""Command-line entry point.

    vqls-precond <solve|sweep-depth|spectrum|heat> [--config FILE]
                 [--profile ci|paper] [--seed S] [--depth D] [--out DIR]
                 [--no-precond] [--dump-matrix]

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Precedence: profile defaults < config file < explicit flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .dense import SingularMatrixError
from .embedding import DegenerateBlockError
from .experiments import (ExperimentConfig, NoFactorableInstanceError, ci_profile,
                          paper_profile, run)
from .ilu import ZeroPivotError
from .vqls import DegenerateOperatorError, DivergedError

_KINDS = {"solve": "solve", "sweep-depth": "sweep_depth",
          "spectrum": "spectrum", "heat": "heat"}

_NUMERICAL_ERRORS = (ZeroPivotError, SingularMatrixError, DegenerateBlockError,
                     DegenerateOperatorError, DivergedError, NoFactorableInstanceError,
                     np.linalg.LinAlgError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqls-precond",
        description="Solve sparse linear systems with a simulated variational "
                    "quantum linear solver, with and without ILU(0) preconditioning.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _KINDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file (fields override the profile)")
        p.add_argument("--profile", choices=("ci", "paper"), default="paper",
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
    kind = _KINDS[args.command]
    base = ci_profile(kind) if args.profile == "ci" else paper_profile(kind)
    if args.config:
        data = json.loads(open(args.config).read())
        data.setdefault("kind", kind)
        merged = base.to_dict()
        vqls_overrides = data.pop("vqls", {})
        merged.update(data)
        merged["vqls"].update(vqls_overrides)
        cfg = ExperimentConfig.from_dict(merged)
    else:
        cfg = base
    if cfg.kind != kind:
        raise ValueError(f"config kind {cfg.kind!r} does not match subcommand {args.command!r}")
    if args.seed is not None:
        cfg = replace(cfg, seeds=[args.seed])
    if args.depth is not None:
        cfg = replace(cfg, depths=[args.depth], vqls=replace(cfg.vqls, depth=args.depth))
    if args.out:
        cfg = replace(cfg, output_dir=args.out)
    if args.no_precond:
        cfg = replace(cfg, no_precond=True)
    if args.dump_matrix:
        cfg = replace(cfg, dump_matrix=True)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        artifacts = run(cfg)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for name in artifacts:
        print(f"wrote {cfg.output_dir}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
