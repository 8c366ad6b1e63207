"""Monte Carlo benchmark harness: bias / variance / MSE of the estimators
versus sample size, with reproducible seeded trials.

Each (n, trial) cell draws one pair of samples and evaluates every
requested method on the same draw (common random numbers). knn and wnn go
through one ``estimators.neighbor_statistics`` call per trial, the engine
of the public estimators, so one neighbor pass serves all their ranks.
Trials run on ``core.thread_map``, and each trial's neighbor pass and EMST
run on its thread within that thread's share of the neighbor byte budget,
as in an estimate call. Each trial keys its own counter-based streams from
(base seed, trial), so results do not depend on HPDIV_THREADS.

In every scenario a draw at n pools n points of the plan's first source and
``_draw_m(plan, n)`` = floor(n q / p) of its second (csv resamples its
files' rows), so the ranks of each knn and wnn (method, n) cell are
resolved, and checked by ``neighbors.checked_ranks``, once, before its
trials. A rank or schedule error (an HPDivError) aborts only its own cell:
the error is reported as a CellErrorWarning, the cell runs no trial and the
remaining cells still run; an n whose every cell aborted draws no sample.
Any other exception is a bug and propagates out of run_plan.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    HPDivError,
    MixtureParam,
    PointCloud,
    affine_map,
    expected_m,
    parse_number,
    pool_pair,
    thread_map,
)
from .estimators import neighbor_statistics
from .io import load_points
from .mst import build_emst, dichotomous_edge_count
from .neighbors import checked_ranks
from .oracle import DimTooHigh, DistributionSpec, true_divergence, truncated_normal, uniform_box
from .synth import make_state, sample, seeded_rng, trial_seed
from .weights import default_l_values, resolve_schedule

SCENARIO_GAUSS_SHIFT = "gauss-shift"
SCENARIO_GAUSS_SCALE = "gauss-scale"
SCENARIO_GAUSS_VS_UNIFORM = "gauss-vs-uniform"
SCENARIO_CSV = "csv"
SCENARIOS = (
    SCENARIO_GAUSS_SHIFT,
    SCENARIO_GAUSS_SCALE,
    SCENARIO_GAUSS_VS_UNIFORM,
    SCENARIO_CSV,
)

# Every synthetic scenario truncates to this per-axis box.
BOX_HALF_WIDTH = 5.0

CSV_HEADER = "method,n,mean,bias,variance,mse,ci_low,ci_high,trials"


class CellErrorWarning(UserWarning):
    """A (method, n) cell failed; its summary is omitted."""


@dataclass(frozen=True)
class MethodSpec:
    """One estimator configuration: knn:K, wnn[:l1|l2|...], mst, const:V."""

    kind: str
    k: int | None = None
    l_values: tuple[float, ...] | None = None
    value: float | None = None

    @property
    def label(self) -> str:
        if self.kind == "knn":
            return f"knn:{self.k}"
        if self.kind == "const":
            return f"const:{self.value:g}"
        return self.kind


def _check_labels(specs) -> None:
    """Each method owns one output row per n, keyed by its label."""
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise HPDivError(f"duplicate method labels in {', '.join(labels)}")


def parse_methods(text: str) -> list[MethodSpec]:
    """Parse a CLI-style method list like "knn:5,knn:10,wnn,mst"."""
    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, colon, arg = token.partition(":")
        what = f"method {token!r}"
        if name == "knn":
            if not arg:
                raise HPDivError(f"knn needs a rank, e.g. knn:5 (got {token!r})")
            specs.append(MethodSpec(kind="knn", k=parse_number(int, arg, what)))
        elif name == "wnn":
            ls = tuple(parse_number(float, v, what) for v in arg.split("|")) if colon else None
            specs.append(MethodSpec(kind="wnn", l_values=ls))
        elif name == "mst":
            if colon:
                raise HPDivError(f"mst takes no argument (got {token!r})")
            specs.append(MethodSpec(kind="mst"))
        elif name == "const":
            value = parse_number(float, arg, what)
            if not math.isfinite(value):
                raise HPDivError(f"const needs a finite value (got {token!r})")
            specs.append(MethodSpec(kind="const", value=value))
        else:
            raise HPDivError(f"unknown method {token!r}")
    if not specs:
        raise HPDivError("no methods given")
    _check_labels(specs)
    return specs


@dataclass(frozen=True)
class ExperimentPlan:
    """One benchmark: scenario, sample-size grid, methods, trial count."""

    scenario: str
    dims: int
    n_grid: tuple[int, ...]
    methods: tuple[MethodSpec, ...]
    trials: int
    p: float = 0.5
    base_seed: int = 0
    truth: float | None = None
    shift: float = 1.0
    x_path: str | None = None
    y_path: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise HPDivError(f"unknown scenario {self.scenario!r}")
        if self.dims < 1:
            raise HPDivError(f"dims must be >= 1, got {self.dims}")
        if self.trials < 2:
            raise HPDivError("trials must be >= 2")
        if not 0 <= self.base_seed < 1 << 127:  # trial_seed shifts it left by one
            raise HPDivError(f"base_seed must lie in [0, 2**127), got {self.base_seed}")
        if self.truth is not None and not 0.0 <= self.truth <= 1.0:
            raise HPDivError(f"truth must be a finite divergence in [0, 1], got {self.truth}")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise HPDivError("n_grid must be nonempty and strictly increasing")
        if grid[0] < 1:
            raise HPDivError(f"n_grid entries must be >= 1, got {grid[0]}")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "methods", tuple(self.methods))
        _check_labels(self.methods)
        MixtureParam(self.p)  # raises InvalidP
        if self.scenario == SCENARIO_CSV and not (self.x_path and self.y_path):
            raise HPDivError("csv scenario needs x_path and y_path")


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate of one (method, n) cell over all trials."""

    method: str
    n: int
    mean_est: float
    bias: float | None
    variance: float
    mse: float | None
    ci_low: float
    ci_high: float
    trials: int


def scenario_specs(plan: ExperimentPlan) -> tuple[DistributionSpec, DistributionSpec] | None:
    """Analytic (f_X, f_Y) for synthetic scenarios, None for csv."""
    if plan.scenario == SCENARIO_CSV:
        return None
    d, box = plan.dims, (-BOX_HALF_WIDTH, BOX_HALF_WIDTH)
    fx = truncated_normal(np.zeros(d), 1.0, box)
    if plan.scenario == SCENARIO_GAUSS_SHIFT:
        return fx, truncated_normal(np.r_[plan.shift, np.zeros(d - 1)], 1.0, box)
    if plan.scenario == SCENARIO_GAUSS_SCALE:
        return fx, truncated_normal(np.r_[1.0, np.zeros(d - 1)], 2.0, box)
    return fx, uniform_box(np.tile(box, (d, 1)))


def resolve_truth(plan: ExperimentPlan) -> float | None:
    """True divergence for the plan: user-supplied, analytic, or None (csv
    without --truth, or specs that differ on more than 3 axes)."""
    if plan.truth is not None:
        return float(plan.truth)
    if plan.scenario == SCENARIO_CSV:
        return None
    try:
        return true_divergence(*scenario_specs(plan), plan.p)
    except DimTooHigh:
        return None


def _draw_m(plan: ExperimentPlan, n: int) -> int:
    """Balanced size max(floor(n q / p), 1) of every second sample at n."""
    return max(expected_m(n, plan.p), 1)


def _draw_pair(plan: ExperimentPlan, sources, n: int, t: int):
    """n points of sources[0] and _draw_m(plan, n) of sources[1]: a spec is
    sampled, a PointCloud's rows are resampled with replacement."""
    pair = []
    for role, (source, size) in enumerate(zip(sources, (n, _draw_m(plan, n)))):
        key = trial_seed(plan.base_seed, t, role)
        if isinstance(source, PointCloud):
            rows = seeded_rng(key).integers(0, len(source), size=size)
            pair.append(PointCloud(source.points[rows]))
        else:
            pair.append(sample(make_state(source, key), size))
    return tuple(pair)


def _neighbor_cells(plan: ExperimentPlan, n: int, dim: int) -> tuple[dict, set]:
    """(label -> (checked ranks, weights) for each knn and wnn cell of the
    plan that runs at sample size n on ``dim``-dimensional data, labels of
    the cells that abort). Each HPDivError that aborts a cell is warned as a
    CellErrorWarning. Every draw at n pools n + _draw_m(plan, n) points."""
    m = _draw_m(plan, n)
    cells, failed = {}, set()
    for spec in plan.methods:
        try:
            if spec.kind == "knn":
                ranks, weights = [spec.k], [1]
            elif spec.kind == "wnn":
                ls = default_l_values(dim) if spec.l_values is None else np.asarray(spec.l_values)
                schedule = resolve_schedule(ls, dim, n, m=m)
                ranks, weights = schedule.k_values, schedule.w
            else:
                continue
            cells[spec.label] = (checked_ranks(ranks, n + m), weights)
        except HPDivError as exc:
            msg = f"cell {spec.label} @ n={n} aborted: {exc}"
            warnings.warn(msg, CellErrorWarning, stacklevel=3)
            failed.add(spec.label)
    return cells, failed


def _run_trial(plan, sources, sums, n, t) -> dict[str, float]:
    """All method values for one (n, trial); ``sums`` holds the checked
    ranks and weights of the knn and wnn cells that run."""
    x, y = _draw_pair(plan, sources, n, t)
    z = pool_pair(x, y)  # p is checked by the plan
    stats = neighbor_statistics(z, sums)
    out = {label: affine_map(stat, z.n_x, z.n_y) for label, stat in stats.items()}
    for spec in plan.methods:
        if spec.kind == "const":
            out[spec.label] = float(spec.value)
        elif spec.kind == "mst":
            out[spec.label] = affine_map(dichotomous_edge_count(build_emst(z), z), z.n_x, z.n_y)
    return out


def run_plan(plan: ExperimentPlan) -> list[TrialSummary]:
    """Execute the full plan and aggregate per-(method, n) summaries."""
    sources = scenario_specs(plan) or (load_points(plan.x_path), load_points(plan.y_path))
    truth = resolve_truth(plan)
    dim = sources[0].dim
    summaries: list[TrialSummary] = []
    for n in plan.n_grid:
        sums, failed = _neighbor_cells(plan, n, dim)
        if len(failed) == len(plan.methods):
            continue
        trial = partial(_run_trial, plan, sources, sums, n)
        results = thread_map(trial, range(plan.trials))
        for label in (s.label for s in plan.methods if s.label not in failed):
            vals = np.asarray([r[label] for r in results], float)
            summaries.append(_summarize(label, n, vals, truth))
    return summaries


def _summarize(label: str, n: int, vals: np.ndarray, truth: float | None) -> TrialSummary:
    trials = len(vals)
    mean = float(vals.mean())
    variance = float(vals.var())  # E[T^2] - E[T]^2
    half = 1.96 * math.sqrt(variance / trials)
    bias = mse = None
    if truth is not None:
        bias = mean - truth
        mse = float(((vals - truth) ** 2).mean())
    return TrialSummary(
        method=label,
        n=n,
        mean_est=mean,
        bias=bias,
        variance=variance,
        mse=mse,
        ci_low=mean - half,
        ci_high=mean + half,
        trials=trials,
    )


def _fmt(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def summarize_csv(results: list[TrialSummary], path) -> None:
    """Write plot-ready rows; refuses to create a file for empty input."""
    if not results:
        raise HPDivError("no summaries to write")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for s in results:
            fh.write(
                ",".join(
                    [
                        s.method,
                        str(s.n),
                        _fmt(s.mean_est),
                        _fmt(s.bias),
                        _fmt(s.variance),
                        _fmt(s.mse),
                        _fmt(s.ci_low),
                        _fmt(s.ci_high),
                        str(s.trials),
                    ]
                )
                + "\n"
            )
