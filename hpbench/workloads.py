"""The benchmark's workloads: inputs, one timed operation, the correctness
gate and the traced replay of each.

Two families share one shape:

- ``MonteCarlo``: one operation is one ``hpdiv.bench.run_plan`` call over a
  block of trials. Block ``i`` of seed ``s`` uses base seed
  ``(s * 4096 + i) * 256``; with fewer than 256 trials per block, the
  program's trial seeds (base XOR trial) never repeat across blocks.
- ``EstimateFiles``: one operation is one in-process
  ``hpdiv.cli.main(["estimate", ...])`` call on CSV files written in
  set-up, cycling through three call kinds (a closed loop with one caller).

The gates recompute every checked value with numpy and scipy alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from hpdiv import bench, cli

# A method's pooled mean may sit this far from the quadrature truth, plus
# four standard errors. It covers the finite-N bias of knn:20 at N=500
# (about 0.02) with room, and catches a wrong statistic or affine map.
BIAS_ALLOWANCE = 0.05
SE_MULTIPLIER = 4.0
P = 0.5


def _worker_count() -> int:
    """Trial threads run_plan uses: HPDIV_THREADS capped at min(cpus, 8)."""
    cap = int(os.environ.get("HPDIV_THREADS", "0") or 0)
    auto = min(os.cpu_count() or 1, 8)
    if cap == 1:
        return 1
    return min(cap, auto) if cap > 0 else auto


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _peak_mb(out: list):
    """Append the tracemalloc peak (MB) of the enclosed block to ``out``."""
    tracemalloc.start()
    try:
        yield
        out.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()


@dataclass(frozen=True)
class McConfig:
    scenario: str
    dims: int
    n_grid: tuple[int, ...]
    methods: str
    trials: int


class MonteCarlo:
    """Repeated run_plan calls on a synthetic scenario."""

    def __init__(self, cfg: McConfig):
        self.cfg = cfg
        self.kinds = ("run_plan",)
        self.seed = 0
        self.specs = tuple(bench.parse_methods(cfg.methods))
        self.work_per_op = cfg.trials * len(cfg.n_grid)
        self._trace_op = 0
        self._peaks: dict[str, list[float]] = {"neighbors": [], "mst": []}

    def plan(self, i: int) -> bench.ExperimentPlan:
        return bench.ExperimentPlan(
            scenario=self.cfg.scenario,
            dims=self.cfg.dims,
            n_grid=self.cfg.n_grid,
            methods=self.specs,
            trials=self.cfg.trials,
            p=P,
            base_seed=(self.seed * 4096 + i) * 256,
        )

    def one_off(self) -> None:
        """Work the program does once before the first plan: truth and weights."""
        plan = self.plan(0)
        bench.resolve_truth(plan)
        if any(s.kind == "wnn" for s in self.specs):
            from hpdiv.core import expected_m
            from hpdiv.weights import default_l_values, resolve_schedule

            for n in plan.n_grid:
                resolve_schedule(
                    default_l_values(plan.dims), plan.dims, n, m=expected_m(n, P)
                )

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def op(self, i: int) -> dict:
        plan = self.plan(i)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", bench.CellErrorWarning)
                rows = bench.run_plan(plan)
        except Exception:
            return {"error": traceback.format_exc(), "rows": [], "warnings": []}
        cell_warnings = [
            str(w.message) for w in caught if issubclass(w.category, bench.CellErrorWarning)
        ]
        return {"rows": rows, "warnings": cell_warnings}

    def gate(self, outputs: list[dict]) -> dict:
        expected = [(s.label, n) for n in self.cfg.n_grid for s in self.specs]
        attempted = len(expected) * len(outputs)
        failed = 0
        cells: dict[tuple[str, int], list] = {k: [] for k in expected}
        for out in outputs:
            got = {(r.method, r.n): r for r in out["rows"]}
            for key in expected:
                r = got.get(key)
                if r is None or not (math.isfinite(r.mean_est) and math.isfinite(r.variance)):
                    failed += 1
                else:
                    cells[key].append(r)
        truth = bench.resolve_truth(self.plan(0))
        checks = {}
        for (label, n), rows in cells.items():
            if not rows:
                continue
            trials = sum(r.trials for r in rows)
            mean = sum(r.mean_est * r.trials for r in rows) / trials
            second = sum((r.variance + r.mean_est**2) * r.trials for r in rows) / trials
            se = math.sqrt(max(second - mean**2, 0.0) / trials)
            tol = BIAS_ALLOWANCE + SE_MULTIPLIER * se
            ok = abs(mean - truth) <= tol
            if not ok:
                failed += len(rows)
            checks[f"{label}@{n}"] = {
                "mean": mean, "truth": truth, "tolerance": tol, "trials": trials, "ok": ok,
            }
        digest = None
        if outputs and outputs[0]["rows"]:
            path = self.workdir / "block0.csv"
            bench.summarize_csv(outputs[0]["rows"], path)
            digest = _sha256(path.read_bytes())
        return {
            "attempted": attempted,
            "failed": failed,
            "checks": checks,
            "output_sha256": digest,
            "cell_warnings": [w for out in outputs for w in out["warnings"]],
            "errors": [out["error"] for out in outputs if "error" in out],
        }

    def replay(self, i: int, tracer) -> dict:
        """Time block i untraced, then replay its trials serially with spans."""
        from hpdiv.core import expected_m, validate_pair
        from hpdiv.estimators import affine_map, dichotomous_counts
        from hpdiv.mst import build_emst, dichotomous_edge_count
        from hpdiv.neighbors import build_index, neighbor_table
        from hpdiv.oracle import true_divergence
        from hpdiv.synth import make_state, sample, trial_seed
        from hpdiv.weights import default_l_values, resolve_schedule

        t0 = time.perf_counter()
        out = self.op(i)
        wall = time.perf_counter() - t0
        plan = self.plan(i)
        fx, fy = bench.scenario_specs(plan)
        knn_ks = [s.k for s in self.specs if s.kind == "knn"]
        has_wnn = any(s.kind == "wnn" for s in self.specs)
        has_mst = any(s.kind == "mst" for s in self.specs)

        with tracer.span("bench.plan_setup", op=-1 - i):
            with tracer.span("oracle.true_divergence"):
                true_divergence(fx, fy, plan.p)
            schedules = {}
            if has_wnn:
                for n in plan.n_grid:
                    with tracer.span("weights.resolve_schedule"):
                        schedules[n] = resolve_schedule(
                            default_l_values(plan.dims), plan.dims, n,
                            m=max(expected_m(n, plan.p), 1),
                        )

        serial_s = 0.0
        replayed: dict[tuple[str, int], list[float]] = {}
        for n in plan.n_grid:
            for t in range(plan.trials):
                op = self._trace_op
                self._trace_op += 1
                vals: dict[str, float] = {}
                with tracer.span("bench.trial", op=op) as trial:
                    with tracer.span("synth.sample"):
                        x = sample(make_state(fx, trial_seed(plan.base_seed, t, 0)), n)
                    with tracer.span("synth.sample"):
                        y = sample(
                            make_state(fy, trial_seed(plan.base_seed, t, 1)),
                            max(expected_m(n, plan.p), 1),
                        )
                    with tracer.span("core.validate_pair"), warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        z = validate_pair(x, y, plan.p)
                    ks = set(knn_ks)
                    if has_wnn:
                        ks.update(int(k) for k in schedules[n].k_values)
                    ks = sorted(ks)
                    with tracer.span("neighbors.build_index"):
                        idx = build_index(z)
                    with tracer.span("estimators.dichotomous_counts"):
                        counts = dichotomous_counts(z, idx, ks)
                    if has_mst:
                        with tracer.span("mst.build_emst"):
                            tree = build_emst(z)
                        with tracer.span("mst.dichotomous_edge_count"):
                            edges = dichotomous_edge_count(tree, z)
                    for s in self.specs:
                        if s.kind == "knn":
                            vals[s.label] = affine_map(counts[s.k], z.n_x, z.n_y)
                        elif s.kind == "wnn":
                            sched = schedules[n]
                            total = float(
                                sum(w * counts[int(k)] for w, k in zip(sched.w, sched.k_values))
                            )
                            vals[s.label] = affine_map(total, z.n_x, z.n_y)
                        elif s.kind == "mst":
                            vals[s.label] = affine_map(edges, z.n_x, z.n_y)
                serial_s += trial["end"] - trial["start"]
                for label, v in vals.items():
                    replayed.setdefault((label, n), []).append(v)

                k_max = ks[-1]
                tracer.count("neighbors.k_max", k_max)
                tracer.count("neighbors.ranks_read", len(ks))
                # Reference calls, outside the trial span: the table at k_max
                # alone, and the bare kd-tree query an exact table needs.
                with tracer.span("reference", op=op):
                    with tracer.span("neighbors.neighbor_table"):
                        neighbor_table(idx, k_max)
                    with tracer.span("neighbors.kdtree_query"):
                        idx.tree.query(z.points, k=k_max + 1)
                if has_mst:
                    tracer.count("mst.points", len(z))
                if t == 0 and i == 0:
                    with _peak_mb(self._peaks["neighbors"]):
                        neighbor_table(idx, k_max)
                    if has_mst:
                        with _peak_mb(self._peaks["mst"]):
                            build_emst(z)

        rows = {(r.method, r.n): r for r in out["rows"]}
        matches = all(
            key in rows and float(np.asarray(v, float).mean()) == rows[key].mean_est
            for key, v in replayed.items()
        )
        workers = _worker_count()
        tracer.count("bench.workers", workers)
        tracer.count("bench.parallel_efficiency", serial_s / (wall * workers))
        tracer.count("trace.untraced_trials_per_s", self.work_per_op / wall)
        tracer.count("trace.traced_trials_per_s", self.work_per_op / serial_s)
        out["replay_matches_program"] = matches
        return out

    def peaks(self) -> dict[str, float]:
        return {k: max(v, default=0.0) for k, v in self._peaks.items()}


@dataclass(frozen=True)
class EstimateConfig:
    kind: str
    method: str
    dim: int
    n: int
    k: int | None = None


class EstimateCall:
    """One kind of in-process ``hpdiv estimate`` call on fixed CSV files."""

    def __init__(self, cfg: EstimateConfig):
        self.cfg = cfg
        self.kind = cfg.kind
        self._peaks: dict[str, list[float]] = {"neighbors": [], "mst": []}

    def prepare(self, seed: int, workdir: Path) -> None:
        """Write X ~ N(0, I) and Y ~ N(e1, 4 I), each n points, as CSV."""
        cfg = self.cfg
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, cfg.dim, cfg.n])
        self.x = rng.standard_normal((cfg.n, cfg.dim))
        shift = np.zeros(cfg.dim)
        shift[0] = 1.0
        self.y = shift + 2.0 * rng.standard_normal((cfg.n, cfg.dim))
        self.x_path = workdir / "x.csv"
        self.y_path = workdir / "y.csv"
        np.savetxt(self.x_path, self.x, fmt="%.17g", delimiter=",")
        np.savetxt(self.y_path, self.y, fmt="%.17g", delimiter=",")
        self.argv = ["estimate", "--method", cfg.method, "--x", str(self.x_path), "--y", str(self.y_path)]
        if cfg.k is not None:
            self.argv += ["--k", str(cfg.k)]

    def op(self, i: int) -> dict:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(self.argv)
        except Exception:
            return {"rc": None, "stdout": out.getvalue(), "error": traceback.format_exc()}
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def gate(self, outputs: list[dict]) -> dict:
        first = outputs[0]["stdout"]
        try:
            check = self._check(json.loads(first)) if outputs[0]["rc"] == 0 else {"ok": False}
        except (ValueError, KeyError, TypeError) as exc:
            check = {"ok": False, "error": repr(exc)}
        failed = sum(
            1 for o in outputs if not (check["ok"] and o["rc"] == 0 and o["stdout"] == first)
        )
        return {
            "attempted": len(outputs),
            "failed": failed,
            "checks": check,
            "output_sha256": _sha256(first.encode()),
            "errors": [o.get("error") or o.get("stderr") for o in outputs if o["rc"] != 0],
        }

    def _check(self, reported: dict) -> dict:
        """Recompute the dichotomous count without hpdiv and compare."""
        n = m = self.cfg.n
        z = np.vstack([self.x, self.y])
        labels = np.r_[np.zeros(n, np.int8), np.ones(m, np.int8)]
        distinct = len(np.unique(z, axis=0)) == len(z)
        method = self.cfg.method
        if method == "mst":
            # In 1-D with distinct points the unique EMST joins sorted neighbours.
            order = np.argsort(z[:, 0], kind="stable")
            count = int((labels[order][1:] != labels[order][:-1]).sum())
            ok = distinct and reported["dichotomous_edges"] == count
        elif method == "knn":
            _, nb = cKDTree(z).query(z, k=self.cfg.k + 1)
            self_first = bool((nb[:, 0] == np.arange(len(z))).all())
            count = int((labels[nb[:, self.cfg.k]] != labels).sum())
            ok = distinct and self_first and reported["dichotomous_count"] == count
        else:
            ls = np.asarray(reported["l_values"], dtype=np.float64)
            w = np.asarray(reported["weights"], dtype=np.float64)
            ks = [int(k) for k in reported["k_values"]]
            d = self.cfg.dim
            a = np.vstack([ls ** (i / d) for i in range(d + 1)])
            b = np.r_[1.0, np.zeros(d)]
            feasible = float(np.abs(a @ w - b).max()) <= 1e-8
            ranks_ok = ks == np.floor(ls * math.sqrt(n)).astype(np.int64).tolist()
            per_k = _scan_counts(z, labels, ks)
            count = float(sum(wi * per_k[k] for wi, k in zip(w, ks)))
            ok = feasible and ranks_ok
        value = 1.0 - count * (n + m) / (2.0 * n * m)
        ok = bool(ok and reported["value"] == value and reported["n"] == n and reported["m"] == m)
        return {"ok": ok, "count": count, "value": value, "reported": reported["value"]}

    def replay(self, i: int, tracer) -> dict:
        """One estimate call with spans: cli.main, then its layers one by one."""
        from hpdiv.core import validate_pair
        from hpdiv.estimators import dichotomous_counts, knn_estimate, wnn_estimate
        from hpdiv.io import load_points
        from hpdiv.mst import build_emst, dichotomous_edge_count, mst_estimate
        from hpdiv.neighbors import build_index, neighbor_table
        from hpdiv.weights import default_l_values, resolve_schedule

        cfg = self.cfg
        with tracer.span(f"estimate.{self.kind}", op=i):
            with tracer.span("cli.main"):
                out = self.op(i)
            with tracer.span("io.load_points"):
                x = load_points(self.x_path)
            with tracer.span("io.load_points"):
                y = load_points(self.y_path)
            tracer.count("io.bytes_read", self.x_path.stat().st_size + self.y_path.stat().st_size)
            if cfg.method == "knn":
                with tracer.span("estimators.knn_estimate"):
                    res = knn_estimate(x, y, cfg.k, P)
                ks = [cfg.k]
            elif cfg.method == "wnn":
                with tracer.span("weights.resolve_schedule"):
                    sched = resolve_schedule(default_l_values(x.dim), x.dim, len(x), m=len(y))
                with tracer.span("estimators.wnn_estimate"):
                    res = wnn_estimate(x, y, sched, P)
                ks = sorted(int(k) for k in sched.k_values)
            else:
                with tracer.span("mst.mst_estimate"):
                    res = mst_estimate(x, y, P)
            with tracer.span("core.validate_pair"):
                z = validate_pair(x, y, P)
            if cfg.method == "mst":
                with tracer.span("mst.build_emst"):
                    tree = build_emst(z)
                with tracer.span("mst.dichotomous_edge_count"):
                    dichotomous_edge_count(tree, z)
                tracer.count("mst.points", len(z))
                if i == 0:
                    with _peak_mb(self._peaks["mst"]):
                        build_emst(z)
            else:
                with tracer.span("neighbors.build_index"):
                    idx = build_index(z)
                with tracer.span("neighbors.neighbor_table"):
                    neighbor_table(idx, ks[-1])
                with tracer.span("neighbors.kdtree_query"):
                    idx.tree.query(z.points, k=ks[-1] + 1)
                with tracer.span("estimators.dichotomous_counts"):
                    dichotomous_counts(z, idx, ks)
                tracer.count("neighbors.k_max", ks[-1])
                tracer.count("neighbors.ranks_read", len(ks))
                if i == 0:
                    with _peak_mb(self._peaks["neighbors"]):
                        neighbor_table(idx, ks[-1])
        inner = ("io.load_points", "weights.resolve_schedule", "estimators.knn_estimate",
                 "estimators.wnn_estimate", "mst.mst_estimate")
        tracer.count("cli.overhead_ms", tracer.per_op_ms(i, ("cli.main",)) - tracer.per_op_ms(i, inner))
        try:
            out["replay_matches_program"] = json.loads(out["stdout"])["value"] == res.value
        except (ValueError, KeyError):
            out["replay_matches_program"] = False
        return out

    def peaks(self) -> dict[str, float]:
        return {k: max(v, default=0.0) for k, v in self._peaks.items()}


class EstimateFiles:
    """A closed loop with one caller, cycling through the call kinds."""

    work_per_op = 1

    def __init__(self, calls: list[EstimateCall]):
        self.calls = calls
        self.kinds = tuple(c.kind for c in calls)

    def one_off(self) -> None:
        """The estimate command does no work before its first call."""

    def prepare(self, seed: int, workdir: Path) -> None:
        for call in self.calls:
            call.prepare(seed, workdir / call.kind)

    def op(self, i: int) -> dict:
        return self.calls[i % len(self.calls)].op(i)

    def replay(self, i: int, tracer) -> dict:
        return self.calls[i % len(self.calls)].replay(i, tracer)

    def gate(self, outputs: list[dict]) -> dict:
        gates = {
            c.kind: c.gate(outputs[j :: len(self.calls)])
            for j, c in enumerate(self.calls)
            if outputs[j :: len(self.calls)]
        }
        return {
            "attempted": sum(g["attempted"] for g in gates.values()),
            "failed": sum(g["failed"] for g in gates.values()),
            "calls": gates,
        }

    def peaks(self) -> dict[str, float]:
        return {
            k: max(c.peaks()[k] for c in self.calls) for k in ("neighbors", "mst")
        }


def _scan_counts(z: np.ndarray, labels: np.ndarray, ks: list[int], block: int = 256) -> dict[int, int]:
    """Brute-force rank scan: rank r of row i is the r-th smallest
    (squared distance, index) pair over all other points."""
    cols = np.asarray(ks) - 1
    counts = np.zeros(len(ks), dtype=np.int64)
    for start in range(0, len(z), block):
        rows = np.arange(start, min(start + block, len(z)))
        diff = z[None, :, :] - z[rows, None, :]
        d2 = np.einsum("...i,...i->...", diff, diff)
        d2[np.arange(len(rows)), rows] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")[:, cols]
        counts += (labels[order] != labels[rows, None]).sum(axis=0)
    return {k: int(c) for k, c in zip(ks, counts)}


def make(name: str, smoke: bool):
    """The named workload at full size, or tiny with two trials for --smoke.

    BENCHMARK.json says why each workload is in the set.
    """
    if name == "mc-scale-d2":
        # Four trials per call keep both worker threads busy to the end of a
        # call; two-trial calls ran about 9% slower per trial and spread wider.
        grid = (256,) if smoke else (2048,)
        return MonteCarlo(McConfig("gauss-scale", 2, grid, "knn:5,wnn,mst", 2 if smoke else 4))
    if name == "mc-shift-knn":
        # knn:20 needs N well above 20 for its bias to fit the gate's allowance.
        grid = (256, 512) if smoke else (500, 2000)
        return MonteCarlo(McConfig("gauss-shift", 2, grid, "knn:5,knn:20", 2 if smoke else 50))
    if name == "estimate-files":
        return EstimateFiles([
            EstimateCall(EstimateConfig("mst_d1", "mst", 1, 200 if smoke else 4000)),
            EstimateCall(EstimateConfig("wnn_d3", "wnn", 3, 512 if smoke else 2048)),
            EstimateCall(EstimateConfig("knn_d2", "knn", 2, 500 if smoke else 50000, k=1)),
        ])
    raise KeyError(name)
