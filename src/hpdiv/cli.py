"""Command-line interface: estimate / weights / bounds / gen / bench.

Primary output is machine-parsable (JSON on stdout, CSV files for tables)
and deterministic for a fixed seed. Exit codes: 0 success, 2 usage or
validation error, 3 numeric runtime failure or out of memory. Every error,
a usage error from argument parsing included, is one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bench as bench_mod
from . import io as hpio
from .core import HPDivError, PointCloud, parse_number
from .estimators import knn_estimate, wnn_estimate
from .mst import mst_estimate
from .oracle import bayes_bounds, truncated_normal, uniform_box
from .synth import RejectionStall, make_state, sample
from .weights import (
    SingularConstraints,
    constraint_matrix,
    default_l_values,
    resolve_schedule,
    solve_weights,
)

# errors that indicate a numeric or memory failure at runtime rather than bad input
_NUMERIC_ERRORS = (SingularConstraints, RejectionStall, MemoryError)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _fail(exc: Exception) -> int:
    code = 3 if isinstance(exc, _NUMERIC_ERRORS) else 2
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )
    return code


def _csv_numbers(text: str, flag: str, conv=float) -> list:
    return [parse_number(conv, v, flag) for v in text.split(",") if v.strip()]


def _l_values(text: str | None, d: int) -> np.ndarray:
    """--l-values as an array, or the default grid for dimension d."""
    return default_l_values(d) if text is None else np.asarray(_csv_numbers(text, "--l-values"))


def _load_pair(args) -> tuple[PointCloud, PointCloud]:
    """The samples of --x/--y or of --data/--class-a/--class-b, one mode
    given in full, checked before any file is read."""
    points, labeled = (args.x, args.y), (args.data, args.class_a, args.class_b)
    if any(points) and any(labeled):
        raise HPDivError("point files (--x/--y) and labeled file (--data) are exclusive")
    if any(points):
        if not all(points):
            raise HPDivError("point mode needs both --x and --y")
        return hpio.load_points(args.x), hpio.load_points(args.y)
    if not any(labeled):
        raise HPDivError("supply --x/--y or --data/--class-a/--class-b")
    if not all(labeled):
        raise HPDivError("labeled mode needs --data, --class-a and --class-b")
    return hpio.class_pair(hpio.load_labeled(args.data), args.class_a, args.class_b)


def cmd_estimate(args) -> int:
    x, y = _load_pair(args)
    if args.method == "knn":
        if args.k is None:
            raise HPDivError("--k is required for method knn")
        res = knn_estimate(x, y, args.k, args.p, clamp=args.clamp)
    elif args.method == "wnn":
        sched = resolve_schedule(_l_values(args.l_values, x.dim), x.dim, len(x), m=len(y))
        res = wnn_estimate(x, y, sched, args.p, clamp=args.clamp)
    else:
        res = mst_estimate(x, y, args.p, clamp=args.clamp)
    fields = ("method", "value", "n", "m", "p", "clamped")
    _emit({**{f: getattr(res, f) for f in fields}, **res.params})
    return 0


def cmd_weights(args) -> int:
    ls = _l_values(args.l_values, args.d)
    k_values = None
    if args.n is None:
        w = solve_weights(ls, args.d)
    else:
        sched = resolve_schedule(ls, args.d, args.n)
        w, k_values = sched.w, sched.k_values.tolist()
    a, b = constraint_matrix(ls, args.d)
    _emit({
        "d": args.d,
        "l_values": ls.tolist(),
        "weights": w.tolist(),
        # each row summed in one fixed order, so the bits do not depend on BLAS
        "residual": max(abs(math.fsum([*row * w, -bi])) for row, bi in zip(a, b)),
        "k_values": k_values,
    })
    return 0


def cmd_bounds(args) -> int:
    bounds = bayes_bounds(args.divergence, args.p)
    _emit({"lower": bounds.lower, "upper": bounds.upper})
    return 0


def cmd_gen(args) -> int:
    if args.dim < 1:
        raise HPDivError(f"--dim must be >= 1, got {args.dim}")
    box = _csv_numbers(args.box, "--box")
    if len(box) != 2:
        raise HPDivError("--box wants LO,HI")
    if args.dist == "uniform":
        spec = uniform_box(np.tile(box, (args.dim, 1)))
    else:
        mean = _csv_numbers(args.mean, "--mean") if args.mean else [0.0] * args.dim
        if len(mean) != args.dim:
            raise HPDivError(f"--mean needs {args.dim} values")
        sigma = _csv_numbers(args.sigma, "--sigma") if args.sigma else [1.0] * args.dim
        if len(sigma) == 1:
            sigma = sigma * args.dim
        if len(sigma) != args.dim:
            raise HPDivError(f"--sigma needs 1 or {args.dim} values")
        if min(sigma) <= 0:  # squaring would hide the sign
            raise HPDivError(f"--sigma values must be positive, got {args.sigma}")
        cov = [s * s for s in sigma]  # a Python float overflows to inf without a warning
        spec = truncated_normal(mean, cov, box)
    cloud = sample(make_state(spec, args.seed), args.n)
    hpio.save_points(args.out, cloud)
    _emit({"written": len(cloud), "dim": cloud.dim, "path": args.out})
    return 0


def cmd_bench(args) -> int:
    plan = bench_mod.ExperimentPlan(
        scenario=args.scenario,
        dims=args.dims,
        n_grid=tuple(_csv_numbers(args.n_grid, "--n-grid", int)),
        methods=tuple(bench_mod.parse_methods(args.methods)),
        trials=args.trials,
        p=args.p,
        base_seed=args.seed,
        truth=args.truth,
        shift=args.shift,
        x_path=args.x,
        y_path=args.y,
    )
    summaries = bench_mod.run_plan(plan)
    bench_mod.summarize_csv(summaries, args.out)
    _emit({"out": args.out, "cells": len(summaries)})
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error takes main's one error path
        raise HPDivError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hpdiv",
        description="Graph-based divergence estimation between two samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate divergence between two samples")
    est.set_defaults(run=cmd_estimate)
    est.add_argument("--method", choices=["knn", "wnn", "mst"], required=True)
    est.add_argument("--k", type=int, help="neighbor rank for knn")
    est.add_argument("--l-values", help="comma-separated index values for wnn")
    est.add_argument("--p", type=float, default=0.5)
    est.add_argument("--clamp", action="store_true", help="clip the value into [0,1]")
    est.add_argument("--x", help="CSV of X points")
    est.add_argument("--y", help="CSV of Y points")
    est.add_argument("--data", help="labeled CSV (features + class column)")
    est.add_argument("--class-a")
    est.add_argument("--class-b")

    wts = sub.add_parser("weights", help="solve ensemble weights")
    wts.set_defaults(run=cmd_weights)
    wts.add_argument("--d", type=int, required=True)
    wts.add_argument("--l-values")
    wts.add_argument("--n", type=int, help="resolve K(l) for this sample size")

    bnd = sub.add_parser("bounds", help="Bayes error bounds from a divergence")
    bnd.set_defaults(run=cmd_bounds)
    bnd.add_argument("--divergence", type=float, required=True)
    bnd.add_argument("--p", type=float, default=0.5)

    gen = sub.add_parser("gen", help="generate a synthetic sample CSV")
    gen.set_defaults(run=cmd_gen)
    gen.add_argument("--dist", choices=["tnorm", "uniform"], required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--mean", help="comma-separated mean vector (tnorm)")
    gen.add_argument("--sigma", help="per-axis standard deviations (tnorm)")
    gen.add_argument("--box", default="-5,5", help="LO,HI per-axis bounds")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    ben = sub.add_parser("bench", help="run a Monte Carlo benchmark")
    ben.set_defaults(run=cmd_bench)
    ben.add_argument("--scenario", choices=bench_mod.SCENARIOS, required=True)
    ben.add_argument("--dims", type=int, default=1)
    ben.add_argument("--n-grid", default="128,256,512,1024,2048")
    ben.add_argument("--trials", type=int, default=100)
    ben.add_argument("--methods", default="knn:5,wnn,mst")
    ben.add_argument("--p", type=float, default=0.5)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--shift", type=float, default=1.0)
    ben.add_argument("--truth", type=float)
    ben.add_argument("--x", help="X CSV for the csv scenario")
    ben.add_argument("--y", help="Y CSV for the csv scenario")
    ben.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (HPDivError, OSError, MemoryError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
