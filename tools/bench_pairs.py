"""Alternating parent/change benchmark pairs, summarised into a BENCH_*.json.

Each side is a source tree holding ``hpbench/`` and ``src/`` (for example a
``git archive`` of the parent commit and one of the change). Pair i runs
``hpbench/run.py --seed SEED+i`` in both trees, the parent first when i is
even and the change first when i is odd; with several workloads, every
workload runs its pair i before any runs pair i+1. Run from anywhere:

    python3 tools/bench_pairs.py --parent P --change C \\
        --workload estimate-files --workload mc-shift-knn \\
        --pairs 10 --seed 1101 --seconds 45 --out BENCH_<date>_<name>.json \\
        [--traced-seed S] [--tier1] [--fresh N] [--emst N] [--truth N]
        [--attach KEY=FILE.json]

The output holds the machine (hpbench's record at its thread count, taken
once), the seeds, every run's end-to-end metrics, each side's median and
quartiles, the pairs the change won and whether the gain rule holds (at
least 9 of 10 pairs won, medians apart by more than the parent's
interquartile range), failed operations and output digests. It is rewritten
after every pair, so an interrupted run keeps what it measured.
``--traced-seed`` adds a ``--trace 1`` run per side and workload with the
mean of every span; ``--tier1`` times the test suite in both trees.

``--fresh N``, ``--emst N`` and ``--truth N`` are probes: per side and case, N fresh
interpreters each run one call script on the case's JSON argument and print
one record, the side that goes first alternating. A case's summary has one
rule per record field: a number every run reports gives each side's median
and quartiles and the change/parent ratio of the medians (a None leaves it
out); a ``<stem>_sha256`` digest gives ``<stem>_equal``, whether every run
of both sides agreed; any other string gives each side's sorted values.
``--fresh`` runs each estimate-files call kind on the CSVs of ``--seed`` at
two threads: one ``hpdiv.cli.main(["estimate", ...])`` call's wall ms, minor
page faults (``ru_minflt``), the process's ``ru_maxrss`` and the digest of
its exit code and stdout, then a repeat for the tracemalloc peak of
``neighbor_ranks``. ``--emst`` runs each cloud of EMST_CLOUDS at one thread:
one timed ``build_emst``, a repeat for its tracemalloc peak, the construction
and an edge digest, then one timed ``neighbor_ranks(idx, [1, 5])`` and a
rank digest. ``--truth`` runs each case of TRUTH_CASES at one thread: one
timed ``true_divergence`` call and the repr of its value, or the type of the
error it raised. ``--pairs 0`` runs the probes alone. ``--attach`` copies a JSON
file in under KEY.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), exclusive method, as hpbench/run.py reports them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One end-to-end metric over paired runs: parent[i] and change[i] form pair i."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    relative = (cm - pm) / pm if pm else 0.0
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": pm,
        "change_median": cm,
        "parent_quartiles": [p1, p3],
        "change_quartiles": [c1, c3],
        "relative": relative,
        "change_better_pairs": wins,
        "parent_iqr": p3 - p1,
        "bound": bound,
        "within_bound": -sign * relative <= bound,
        "gain_rule_met": wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1,
    }


def summarise(pairs: list[dict], declared: dict[str, dict]) -> dict:
    """Summary of one workload's pairs.

    Each pair is ``{"seed", "parent_first", "parent": run, "change": run}``
    and each run ``{"metrics": {name: value}, "attempted", "failed",
    "latency_ms_by_kind": {kind: median}, "digests": {name: sha256}}``.
    ``declared`` maps each end-to-end metric to its ``better`` and ``bound``.
    """
    side = {s: [p[s] for p in pairs] for s in SIDES}
    kinds = sorted({k for runs in side.values() for r in runs for k in r["latency_ms_by_kind"]})
    return {
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "parent_first": [p["parent_first"] for p in pairs],
        "metrics": {
            name: summarise_metric(
                [r["metrics"][name] for r in side["parent"]],
                [r["metrics"][name] for r in side["change"]],
                spec["better"],
                spec["bound"],
            )
            for name, spec in declared.items()
        },
        "per_call_median_ms": {
            k: {s: statistics.median(r["latency_ms_by_kind"][k] for r in side[s]) for s in SIDES}
            for k in kinds
        },
        "operations": {s: sum(r["attempted"] for r in side[s]) for s in SIDES},
        "failed_operations": {s: sum(r["failed"] for r in side[s]) for s in SIDES},
        "output_sha256_equal_every_pair": all(
            p["parent"]["digests"] == p["change"]["digests"] for p in pairs
        ),
    }


def summarise_probe(runs: dict[str, dict[str, list[dict]]]) -> dict:
    """Per case, the run count of each side and one entry per record field,
    by the rule in the module notes. ``runs[side][case]`` lists one record
    per interpreter, each with the same fields."""
    out = {}
    for case in sorted(runs["change"]):
        side = {s: runs[s][case] for s in SIDES}
        entry: dict = {"runs": {s: len(side[s]) for s in SIDES}}
        for name in side["change"][0]:
            values = [r[name] for s in SIDES for r in side[s]]
            if name.endswith("_sha256"):
                entry[name.removesuffix("_sha256") + "_equal"] = len(set(values)) == 1
            elif isinstance(values[0], str):
                entry[name] = {s: sorted({r[name] for r in side[s]}) for s in SIDES}
            elif None not in values:
                q = {s: _quartiles([r[name] for r in side[s]]) for s in SIDES}
                entry[name] = {s: {"median": m, "quartiles": [q1, q3]} for s, (q1, m, q3) in q.items()}
                entry[name]["ratio"] = q["change"][1] / q["parent"][1]
        out[case] = entry
    return out


_FRESH_INPUTS = """
import json, sys
from pathlib import Path
sys.path.insert(0, "hpbench")
import workloads
wl = workloads.make("estimate-files", False)
wl.prepare(int(sys.argv[1]), Path(sys.argv[2]))
print(json.dumps({c.kind: c.argv for c in wl.calls}))
"""

_FRESH_CALL = """
import contextlib, hashlib, io, json, resource, sys, time, tracemalloc
from hpdiv import cli, estimators
argv = json.loads(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF)
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main(argv)
wall_ms = (time.perf_counter() - t0) * 1e3
after = resource.getrusage(resource.RUSAGE_SELF)
peaks = []
real = estimators.neighbor_ranks
def traced(*args):
    tracemalloc.start()
    try:
        return real(*args)
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        tracemalloc.stop()
estimators.neighbor_ranks = traced
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
print(json.dumps({
    "wall_ms": wall_ms, "minflt": after.ru_minflt - before.ru_minflt,
    "maxrss_mb": after.ru_maxrss / 1024, "neighbor_ranks_peak_mb": max(peaks, default=None),
    "stdout_sha256": hashlib.sha256(f"{rc}\\n{out.getvalue()}".encode()).hexdigest(),
}))
"""


# Fixed-seed clouds of the EMST probe: name -> (kind, d, n). "normal" draws
# N(0, I); "repeat" repeats row 0 once in place of the last row; "values"
# takes 8 integer values; "lattice" is a sqrt(n)-square grid plus 500 rows
# repeated; "flat" puts the last coordinate at twice the first (collinear
# at d = 2, coplanar at d = 3).
EMST_CLOUDS = {
    "d2_normal_4096": ("normal", 2, 4096),
    "d2_normal_10000": ("normal", 2, 10000),
    "d2_normal_50000": ("normal", 2, 50000),
    "d3_normal_4000": ("normal", 3, 4000),
    "d3_normal_20000": ("normal", 3, 20000),
    "d4_normal_3000": ("normal", 4, 3000),
    "d4_normal_12000": ("normal", 4, 12000),
    "d2_repeat_10000": ("repeat", 2, 10000),
    "d2_lattice_10000": ("lattice", 2, 10000),
    "d2_flat_4000": ("flat", 2, 4000),
    "d3_flat_3000": ("flat", 3, 3000),
    "d1_values_8000": ("values", 1, 8000),
}

_EMST_CALL = """
import hashlib, json, sys, time, tracemalloc
import numpy as np
from hpdiv import JointSet, PointCloud, build_emst
from hpdiv.neighbors import build_index, neighbor_ranks
kind, d, n = json.loads(sys.argv[1])
rng = np.random.default_rng(20261019)
if kind == "normal":
    pts = rng.normal(size=(n, d))
elif kind == "repeat":
    pts = rng.normal(size=(n, d))
    pts[-1] = pts[0]
elif kind == "values":
    pts = rng.integers(0, 8, size=(n, d)).astype(float)
elif kind == "lattice":
    axes = np.meshgrid(*[np.arange(float(round(n ** (1 / d))))] * d)
    grid = np.column_stack([a.ravel() for a in axes])
    pts = np.vstack([grid, grid[rng.integers(0, len(grid), size=500)]])
elif kind == "flat":
    free = rng.normal(size=(n, d - 1))
    pts = np.column_stack([free, 2.0 * free[:, 0]])
cloud = PointCloud(pts)
t0 = time.perf_counter()
tree = build_emst(cloud)
wall_ms = (time.perf_counter() - t0) * 1e3
tracemalloc.start()
build_emst(cloud)
peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
tracemalloc.stop()
idx = build_index(JointSet(cloud, len(pts)))
t0 = time.perf_counter()
ranks = neighbor_ranks(idx, [1, 5])
ranks_ms = (time.perf_counter() - t0) * 1e3
print(json.dumps({
    "wall_ms": wall_ms, "peak_mb": peak_mb, "points": len(pts), "algorithm": tree.algorithm,
    "edges_sha256": hashlib.sha256(tree.edges.tobytes()).hexdigest(),
    "ranks_ms": ranks_ms, "ranks_sha256": hashlib.sha256(ranks.tobytes()).hexdigest(),
}))
"""


# Truth probe cases: name -> JSON argument. A bench scenario at p = 1/2 is
# {"scenario", "d"}; a pair on the box [-5, 5]^d is {"x", "y", "d", "p"},
# each side [mu, var] for N(mu 1, var I) or null for the uniform.
TRUTH_CASES = {
    **{f"{s}_d{d}": {"scenario": s, "d": d}
       for s in ("gauss-shift", "gauss-scale", "gauss-vs-uniform") for d in (1, 2, 3, 4, 6, 10)},
    **{f"tight_{name}_d{d}": {"x": x, "y": y, "d": d, "p": p}
       for d in (2, 3)
       for name, x, y, p in [
           ("shift_0.01_1", [0.0, 0.01], [1.0, 0.01], 0.5),
           ("shift_0.05_1", [0.0, 0.05], [1.0, 0.05], 0.5),
           ("shift_0.1_1", [0.0, 0.1], [1.0, 0.1], 0.5),
           ("shift_0.05_0.3", [0.0, 0.05], [0.3, 0.05], 0.5),
           ("normal_uniform_0.05", [0.0, 0.05], None, 0.3),
           ("uniform_normal_0.05", None, [0.0, 0.05], 0.3),
           ("normal_uniform_0.1", [0.0, 0.1], None, 0.3),
           ("uniform_normal_0.1", None, [0.0, 0.1], 0.3),
       ]},
}

_TRUTH_CALL = """
import json, sys, time
import numpy as np
from hpdiv import bench, true_divergence, truncated_normal, uniform_box
case = json.loads(sys.argv[1])
d = case["d"]
if "scenario" in case:
    plan = bench.ExperimentPlan(case["scenario"], d, (100,), tuple(bench.parse_methods("knn:1")), 2)
    specs, p = bench.scenario_specs(plan), 0.5
else:
    specs = [uniform_box([(-5.0, 5.0)] * d) if side is None
             else truncated_normal(np.full(d, side[0]), side[1], (-5.0, 5.0))
             for side in (case["x"], case["y"])]
    p = case["p"]
t0 = time.perf_counter()
try:
    truth = repr(true_divergence(*specs, p))
except Exception as exc:
    truth = type(exc).__name__
print(json.dumps({"wall_ms": (time.perf_counter() - t0) * 1e3, "truth": truth}))
"""


_MACHINE = """
import json, sys
sys.path.insert(0, "hpbench")
import run
print(json.dumps(run._machine(0)))
"""


def _probe(trees: dict[str, Path], code: str, cases: dict[str, dict], repeats: int,
           threads: int) -> dict:
    """``repeats`` fresh interpreters per side and case, each running ``code``
    on ``cases[side][case]`` as its JSON argument, summarised."""
    runs: dict = {s: {c: [] for c in cases[s]} for s in SIDES}
    for i in range(repeats):
        for case in cases["change"]:
            for s in SIDES if i % 2 == 0 else SIDES[::-1]:
                record = _python(trees[s], code, json.dumps(cases[s][case]), threads=threads)
                runs[s][case].append(json.loads(record))
        print(f"probe repeat {i} done", flush=True)
    return {"repeats": repeats, "threads": threads, "runs": runs, "summary": summarise_probe(runs)}


def _python(tree: Path, code: str, *args: str, threads: int = 2) -> str:
    """Stdout of ``code`` run by a fresh interpreter on the tree's sources,
    with the thread cap hpbench/run.py sets unless ``threads`` says else."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), HPDIV_THREADS=str(threads))
    if threads == 1:
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: fresh interpreter exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _digests(gate: dict, prefix: str = "") -> dict[str, str]:
    """Every ``output_sha256`` in a gate record, keyed by where it sits."""
    out = {}
    for key, value in gate.items():
        if key == "output_sha256":
            out[prefix + key] = value
        elif isinstance(value, dict):
            out.update(_digests(value, f"{prefix}{key}."))
    return out


def _bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(record, result): the last two JSON lines of one hpbench run."""
    cmd = [sys.executable, "hpbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    record, result = _bench(tree, workload, seed, seconds, 0)
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "latency_ms_by_kind": {
            k: q["median"] for k, q in record["detail"]["latency_ms_by_kind"].items()
        },
        "digests": _digests(record["gate"]),
    }


def _traced(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Layer metrics and the mean ms of every span name of one traced run."""
    _, result = _bench(tree, workload, seed, seconds, 1)
    spans = json.loads(
        (tree / ".bench_work" / "results" / f"{workload}-seed{seed}-trace1-spans.json").read_text()
    )
    by_name: dict[str, list[float]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append((s["end"] - s["start"]) * 1e3)
    return {
        "seed": seed,
        "layer_metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "span_mean_ms": {k: statistics.fmean(v) for k, v in sorted(by_name.items())},
        "span_calls": {k: len(v) for k, v in sorted(by_name.items())},
    }


def _tier1(tree: Path) -> dict:
    """Wall time and summary line of the tree's tier-1 suite, ``tests/``: a tree
    without it reports pytest's error, not the tests it found elsewhere."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tree, env=env, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - t0, "summary": lines[-1] if lines else "",
            "returncode": proc.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--traced-seed", type=int, action="append", default=[])
    parser.add_argument("--trace-seconds", type=float, default=20.0)
    parser.add_argument("--tier1", action="store_true", help="time the test suite in both trees")
    parser.add_argument("--fresh", type=int, default=0, metavar="N",
                        help="N fresh interpreters per side for each estimate-files call kind")
    parser.add_argument("--emst", type=int, default=0, metavar="N",
                        help="N fresh interpreters per side for each EMST probe cloud")
    parser.add_argument("--truth", type=int, default=0, metavar="N",
                        help="N fresh interpreters per side for each truth probe case")
    parser.add_argument("--attach", action="append", default=[], metavar="KEY=FILE")
    parser.add_argument("--title", default="parent vs change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = {
        m["name"]: {"better": m["better"], "bound": m["bound"]}
        for m in json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    }
    out: dict = {
        "title": args.title,
        "date": datetime.date.today().isoformat(),
        "command": f"python3 hpbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "protocol": (
            f"tools/bench_pairs.py: {args.pairs} pairs per workload; pair i runs seed "
            f"{args.seed}+i on both sides, the parent first on even i and the change first "
            "on odd i; every workload runs pair i before any runs pair i+1. Medians and "
            "quartiles (exclusive method) are over each side's runs."
        ),
        "machine": {k: v for k, v in json.loads(_python(trees["change"], _MACHINE)).items()
                    if k not in ("git_commit", "seed")},
        "workloads": {},
    }
    for item in args.attach:
        key, _, path = item.partition("=")
        out[key] = json.loads(Path(path).read_text())
    pairs: dict[str, list[dict]] = {w: [] for w in args.workload}

    def write() -> None:
        for w, done in pairs.items():
            if done:
                out["workloads"][w] = summarise(done, declared)
        args.out.write_text(json.dumps(out, indent=1) + "\n")

    for i in range(args.pairs):
        for w in args.workload:
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair: dict = {"seed": seed, "parent_first": i % 2 == 0}
            for s in order:
                pair[s] = _run(trees[s], w, seed, args.seconds)
            pairs[w].append(pair)
            write()
            print(f"pair {i} {w}: latency_ms parent {pair['parent']['metrics']['latency_ms']:.1f} "
                  f"change {pair['change']['metrics']['latency_ms']:.1f}", flush=True)
    if args.traced_seed:
        out["traced"] = {
            w: {s: [_traced(trees[s], w, seed, args.trace_seconds) for seed in args.traced_seed]
                for s in SIDES}
            for w in args.workload
        }
    if args.tier1:
        out["tier1"] = {s: _tier1(trees[s]) for s in SIDES}
    if args.fresh:
        calls = {s: json.loads(_python(t, _FRESH_INPUTS, str(args.seed), str(t / ".bench_work" / "fresh")))
                 for s, t in trees.items()}
        out["fresh_process"] = {"seed": args.seed, **_probe(trees, _FRESH_CALL, calls, args.fresh, 2)}
    if args.emst:
        cases = {s: EMST_CLOUDS for s in SIDES}
        out["emst"] = {"clouds": EMST_CLOUDS, **_probe(trees, _EMST_CALL, cases, args.emst, 1)}
    if args.truth:
        cases = {s: TRUTH_CASES for s in SIDES}
        out["truth"] = {"cases": TRUTH_CASES, **_probe(trees, _TRUTH_CALL, cases, args.truth, 1)}
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
