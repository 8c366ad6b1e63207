"""hpdiv benchmark: Monte Carlo throughput, single-estimate latency and, in a
separate traced run, per-layer metrics.

Run from the root of a source checkout (the benchmark imports ``src/hpdiv``
and nothing installed):

    python3 hpbench/run.py --workload mc-shift-knn --seed 1 --seconds 45 --trace 0
    python3 hpbench/run.py --workload estimate-files --seed 1 --seconds 1 --trace 1 --smoke

Workloads (see ``workloads.py``): ``mc-shift-knn`` times
``hpdiv.bench.run_plan`` calls; ``estimate-files`` times in-process
``hpdiv estimate`` calls of three kinds in turn. ``mc-scale-d2`` (run_plan on
the criterion-7 cell) runs the same way by hand but is not in BENCHMARK.json:
on a 2-vCPU host its run-to-run spread was 0.11-0.15. All run with
``HPDIV_THREADS=2``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

- ``latency_ms``: median wall time of one operation (a run_plan call, or
  an estimate call), summed over the call kinds of the workload;
- ``throughput_per_s``: trial draws (one sample pair at one N) per second
  of run_plan wall time, or estimate calls per second;
- ``peak_rss_mb``: peak resident set of this process after the timed loop;
- ``setup_s``: median over fresh interpreters of importing hpdiv,
  hpdiv.cli and hpdiv.bench plus the program's one-off work before the
  first operation (quadrature truth and wnn weights on the mc workloads).

With ``--trace 1`` the operations are replayed with spans and the last line
carries the per-layer metrics of ``layer_metrics``. A layer the workload
never calls reports 0. ``--smoke`` shrinks every workload to a tiny N and two
trials. The line before the last is a JSON record of the run: the machine,
sample counts and quartiles, gate details and output digests; it is also
written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREADS = "2"
SETUP_REPEATS = 5


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3}


def _setup_probe(workload: str, smoke: bool) -> None:
    """Print the seconds this fresh interpreter spends on program set-up."""
    t0 = time.perf_counter()
    import hpdiv  # noqa: F401
    import hpdiv.bench  # noqa: F401
    import hpdiv.cli  # noqa: F401

    sys.path.insert(0, str(HERE))
    import workloads

    workloads.make(workload, smoke).one_off()
    print(repr(time.perf_counter() - t0))


def _measure_setup(workload: str, smoke: bool) -> list[float]:
    """Set-up seconds from SETUP_REPEATS fresh interpreters, after one
    untimed interpreter has compiled the bytecode caches."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", "0"] + (["--smoke"] if smoke else [])
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _machine(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "HPDIV_THREADS": os.environ.get("HPDIV_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _max(values) -> float:
    return max(values, default=0.0)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, peaks: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans; times are mean ms per call.

    Derived entries: neighbors.rerank_ms = table - bare kd-tree query,
    estimators.count_ms = dichotomous_counts - neighbor_table, and
    cli.overhead_ms = cli.main - (load_points + weights + estimator).
    """
    c = tracer.counts
    table = tracer.mean_ms("neighbors.neighbor_table")
    query = tracer.mean_ms("neighbors.kdtree_query")
    counts = tracer.mean_ms("estimators.dichotomous_counts")
    # ranks read and k_max of the widest table the workload builds
    k_max, ranks = max(
        zip(c.get("neighbors.k_max", []), c.get("neighbors.ranks_read", [])), default=(0.0, 0.0)
    )
    return {
        "synth.sample_ms": (tracer.mean_ms("synth.sample"), "ms"),
        "core.validate_pair_ms": (tracer.mean_ms("core.validate_pair"), "ms"),
        "neighbors.build_index_ms": (tracer.mean_ms("neighbors.build_index"), "ms"),
        "neighbors.table_ms": (table, "ms"),
        "neighbors.kdtree_query_ms": (query, "ms"),
        "neighbors.rerank_ms": (table - query, "ms"),
        "neighbors.k_max": (k_max, "count"),
        "neighbors.ranks_read": (ranks, "count"),
        "neighbors.rank_use_ratio": (ranks / k_max if k_max else 0.0, "ratio"),
        "neighbors.peak_mb": (peaks["neighbors"], "MB"),
        "estimators.count_ms": (counts - table if counts else 0.0, "ms"),
        "mst.build_emst_ms": (tracer.mean_ms("mst.build_emst"), "ms"),
        "mst.points": (_max(c.get("mst.points", [])), "count"),
        "mst.peak_mb": (peaks["mst"], "MB"),
        "weights.resolve_schedule_ms": (tracer.mean_ms("weights.resolve_schedule"), "ms"),
        "oracle.true_divergence_ms": (tracer.mean_ms("oracle.true_divergence"), "ms"),
        "io.load_points_ms": (tracer.mean_ms("io.load_points"), "ms"),
        "io.bytes_read": (_mean(c.get("io.bytes_read", [])), "bytes"),
        "cli.overhead_ms": (_mean(c.get("cli.overhead_ms", [])), "ms"),
        "bench.workers": (_max(c.get("bench.workers", [])), "count"),
        "bench.parallel_efficiency": (_mean(c.get("bench.parallel_efficiency", [])), "ratio"),
    }


def _loop(wl, seconds: float, step) -> list:
    """Call step(i) for i = 0, 1, ... until ``seconds`` have passed and every
    call kind has run equally often."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step(len(results)))
        if time.perf_counter() - start >= seconds and len(results) % len(wl.kinds) == 0:
            return results


def _timed(wl, seconds: float) -> tuple[list[dict], dict, dict]:
    def step(i):
        t0 = time.perf_counter()
        out = wl.op(i)
        return time.perf_counter() - t0, out

    timed = _loop(wl, seconds, step)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    by_kind: dict[str, list[float]] = {}
    for i, (t, _) in enumerate(timed):
        by_kind.setdefault(wl.kinds[i % len(wl.kinds)], []).append(t * 1e3)
    total_s = sum(t for t, _ in timed)
    metrics = {
        "latency_ms": (sum(statistics.median(v) for v in by_kind.values()), "ms"),
        "throughput_per_s": (wl.work_per_op * len(timed) / total_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {"latency_ms_by_kind": {k: _quartiles(v) for k, v in by_kind.items()}}
    return [out for _, out in timed], metrics, detail


def _traced(wl, seconds: float) -> tuple[list[dict], dict, dict]:
    from tracing import Tracer

    tracer = Tracer()
    outputs = _loop(wl, seconds, lambda i: wl.replay(i, tracer))
    metrics = layer_metrics(tracer, wl.peaks())
    ops = {s["op"] for s in tracer.spans if s["parent"] is None and s["op"] >= 0}
    span_cost = tracer.empty_span_cost_ms()
    detail = {
        "spans_by_root": tracer.summary_by_root(),
        "span_count": len(tracer.spans),
        "empty_span_cost_ms": span_cost,
        "span_cost_ms_per_op": span_cost * len(tracer.spans) / max(len(ops), 1),
        "replay_matches_program": all(o.get("replay_matches_program") for o in outputs),
    }
    untraced = tracer.counts.get("trace.untraced_trials_per_s")
    if untraced:
        detail["untraced_trials_per_s"] = _mean(untraced)
        detail["traced_serial_trials_per_s"] = _mean(tracer.counts["trace.traced_trials_per_s"])
        detail["traced_minus_untraced_trials_per_s"] = (
            detail["traced_serial_trials_per_s"] - detail["untraced_trials_per_s"]
        )
    detail["_spans"] = tracer.spans
    return outputs, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny N, two trials")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hpdiv" / "__init__.py").is_file():
        sys.stderr.write(f"no hpdiv sources under {SRC}; run from a source checkout\n")
        return 2
    os.environ["HPDIV_THREADS"] = THREADS
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _setup_probe(args.workload, args.smoke)
        return 0

    sys.path.insert(0, str(HERE))
    import workloads

    try:
        wl = workloads.make(args.workload, args.smoke)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}")
    setup = [] if args.trace else _measure_setup(args.workload, args.smoke)

    wl.prepare(args.seed, WORK / args.workload)
    warm = workloads.make(args.workload, smoke=True)
    warm.prepare(args.seed, WORK / "warm-up" / args.workload)
    for i in range(len(warm.kinds)):
        warm.op(i)

    run = _traced if args.trace else _timed
    outputs, metrics, detail = run(wl, args.seconds)
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
        detail["setup_s"] = _quartiles(setup)
    gate = wl.gate(outputs)

    spans = detail.pop("_spans", None)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "machine": _machine(args.seed),
        "operations": len(outputs),
        "detail": detail,
        "gate": gate,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": gate["failed"] == 0 and gate["attempted"] > 0,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
