"""Monte Carlo benchmark harness: bias / variance / MSE of the estimators
versus sample size, with reproducible seeded trials.

Each (n, trial) cell draws one pair of samples and evaluates every
requested method on the same draw (common random numbers). knn and wnn go
through one ``estimators.neighbor_statistics`` call per trial, the engine
of the public estimators, so one neighbor pass serves all their ranks.
Trials own disjoint counter-based streams, so results are identical
whether trials run serially or in the thread pool (HPDIV_THREADS caps the
pool; 0 or unset means auto).

A rank or schedule error (an HPDivError) aborts only its own (method, n)
cell: the error is reported as a CellErrorWarning and the remaining cells
still run. Any other exception is a bug and propagates out of run_plan.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .core import (
    HPDivError,
    MixtureParam,
    PointCloud,
    affine_map,
    expected_m,
    parse_number,
    pool_pair,
    worker_count,
)
from .estimators import neighbor_statistics
from .io import load_points
from .mst import build_emst, dichotomous_edge_count
from .oracle import DimTooHigh, DistributionSpec, true_divergence, truncated_normal, uniform_box
from .synth import make_state, sample, trial_seed
from .weights import WeightSchedule, default_l_values, resolve_schedule

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
        name, _, arg = token.partition(":")
        what = f"method {token!r}"
        if name == "knn":
            if not arg:
                raise HPDivError(f"knn needs a rank, e.g. knn:5 (got {token!r})")
            specs.append(MethodSpec(kind="knn", k=parse_number(int, arg, what)))
        elif name == "wnn":
            ls = tuple(parse_number(float, v, what) for v in arg.split("|")) if arg else None
            specs.append(MethodSpec(kind="wnn", l_values=ls))
        elif name == "mst":
            specs.append(MethodSpec(kind="mst"))
        elif name == "const":
            specs.append(MethodSpec(kind="const", value=parse_number(float, arg, what)))
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
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise HPDivError("n_grid must be nonempty and strictly increasing")
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
    d = plan.dims
    box = (-BOX_HALF_WIDTH, BOX_HALF_WIDTH)
    mu_x = np.zeros(d)
    mu_y = np.zeros(d)
    mu_y[0] = plan.shift if plan.scenario != SCENARIO_GAUSS_VS_UNIFORM else 0.0
    fx = truncated_normal(mu_x, 1.0, box)
    if plan.scenario == SCENARIO_GAUSS_SHIFT:
        fy = truncated_normal(mu_y, 1.0, box)
    elif plan.scenario == SCENARIO_GAUSS_SCALE:
        mu_y = np.zeros(d)
        mu_y[0] = 1.0
        fy = truncated_normal(mu_y, 2.0, box)
    else:
        fy = uniform_box(np.tile(box, (d, 1)))
    return fx, fy


def resolve_truth(plan: ExperimentPlan) -> float | None:
    """True divergence for the plan: user-supplied, analytic, or None."""
    if plan.truth is not None:
        return float(plan.truth)
    specs = scenario_specs(plan)
    if specs is None:
        return None
    fx, fy = specs
    if fx == fy:
        return 0.0
    try:
        return true_divergence(fx, fy, plan.p)
    except DimTooHigh:
        return None


def _draw_pair(plan: ExperimentPlan, specs, clouds, n: int, t: int):
    if plan.scenario == SCENARIO_CSV:
        pair = []
        for role, cloud in enumerate(clouds):
            rng = np.random.Generator(np.random.Philox(key=trial_seed(plan.base_seed, t, role)))
            pair.append(PointCloud(cloud.points[rng.integers(0, len(cloud), size=n)]))
        return tuple(pair)
    fx, fy = specs
    m = expected_m(n, plan.p)
    x = sample(make_state(fx, trial_seed(plan.base_seed, t, 0)), n)
    y = sample(make_state(fy, trial_seed(plan.base_seed, t, 1)), max(m, 1))
    return x, y


def _run_trial(plan, specs, clouds, schedules, n, t) -> dict[str, object]:
    """All method values for one (n, trial); HPDivErrors recorded per method."""
    x, y = _draw_pair(plan, specs, clouds, n, t)
    z = pool_pair(x, y)  # p is checked by the plan
    out: dict[str, object] = {}
    sums = {}
    for spec in plan.methods:
        if spec.kind == "const":
            out[spec.label] = float(spec.value)
        elif spec.kind == "mst":
            out[spec.label] = affine_map(dichotomous_edge_count(build_emst(z), z), z.n_x, z.n_y)
        elif spec.kind == "knn":
            sums[spec.label] = ([spec.k], [1])
        elif isinstance(schedules[n], HPDivError):  # recorded, cell aborts later
            out[spec.label] = schedules[n]
        else:
            sums[spec.label] = (schedules[n].k_values, schedules[n].w)
    stats = neighbor_statistics(z, sums)  # 1 thread: trials hold the cores
    for label, stat in stats.items():
        out[label] = stat if isinstance(stat, HPDivError) else affine_map(stat, z.n_x, z.n_y)
    return out


def _resolve_schedules(plan: ExperimentPlan) -> dict[int, WeightSchedule | HPDivError]:
    """One schedule per n for the wnn method (labels are unique, so a plan
    holds at most one)."""
    out: dict[int, WeightSchedule | HPDivError] = {}
    wnn = [m for m in plan.methods if m.kind == "wnn"]
    if not wnn:
        return out
    ls = (
        np.asarray(wnn[0].l_values, dtype=np.float64)
        if wnn[0].l_values is not None
        else default_l_values(plan.dims)
    )
    for n in plan.n_grid:
        m = expected_m(n, plan.p) if plan.scenario != SCENARIO_CSV else n
        try:
            out[n] = resolve_schedule(ls, plan.dims, n, m=max(m, 1))
        except HPDivError as exc:
            out[n] = exc
    return out


def run_plan(plan: ExperimentPlan) -> list[TrialSummary]:
    """Execute the full plan and aggregate per-(method, n) summaries."""
    workers = worker_count()
    specs = scenario_specs(plan)
    clouds = None
    if plan.scenario == SCENARIO_CSV:
        clouds = (load_points(plan.x_path), load_points(plan.y_path))
    truth = resolve_truth(plan)
    schedules = _resolve_schedules(plan)
    summaries: list[TrialSummary] = []
    for n in plan.n_grid:
        trial = partial(_run_trial, plan, specs, clouds, schedules, n)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(trial, range(plan.trials)))
        else:
            results = [trial(t) for t in range(plan.trials)]

        for spec in plan.methods:
            label = spec.label
            vals = [r[label] for r in results]
            err = next((v for v in vals if isinstance(v, Exception)), None)
            if err is not None:
                warnings.warn(
                    f"cell {label} @ n={n} aborted: {err}",
                    CellErrorWarning,
                    stacklevel=2,
                )
                continue
            summaries.append(_summarize(label, n, np.asarray(vals, float), truth))
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


def load_summaries(path) -> list[TrialSummary]:
    """Parse a summarize_csv file back into TrialSummary rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise HPDivError(f"{path} is not a bench summary file")
    out = []
    for line in lines[1:]:
        if not line.strip():
            continue
        cells = line.split(",")
        out.append(
            TrialSummary(
                method=cells[0],
                n=int(cells[1]),
                mean_est=float(cells[2]),
                bias=float(cells[3]) if cells[3] else None,
                variance=float(cells[4]),
                mse=float(cells[5]) if cells[5] else None,
                ci_low=float(cells[6]),
                ci_high=float(cells[7]),
                trials=int(cells[8]),
            )
        )
    return out
