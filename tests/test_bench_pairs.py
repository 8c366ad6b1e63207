"""The summaries of tools/bench_pairs.py on fixed records (no benchmark runs), its
probe runner on a stub interpreter, and one call of each probe script."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import scan_rank_table

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = {
    "latency_ms": {"better": "lower", "bound": 0.25},
    "throughput_per_s": {"better": "higher", "bound": 0.25},
}


def run(latency, throughput, failed=0, digest="a"):
    return {
        "metrics": {"latency_ms": latency, "throughput_per_s": throughput},
        "attempted": 12,
        "failed": failed,
        "latency_ms_by_kind": {"wnn_d3": latency - 10, "mst_d1": 10.0},
        "digests": {"calls.wnn_d3": digest},
    }


def pairs(parent, change, **change_kw):
    return [
        {"seed": 100 + i, "parent_first": i % 2 == 0,
         "parent": run(p, 1000 / p), "change": run(c, 1000 / c, **change_kw)}
        for i, (p, c) in enumerate(zip(parent, change))
    ]


PARENT = [700.0, 720.0, 740.0, 760.0, 780.0, 800.0, 710.0, 730.0, 750.0, 770.0]


class TestSummarise:
    def test_clear_gain(self):
        change = [p - 250 for p in PARENT]
        got = bench_pairs.summarise(pairs(PARENT, change), DECLARED)
        lat = got["metrics"]["latency_ms"]
        assert lat["parent_median"] == 745.0
        assert lat["change_median"] == 495.0
        # statistics.quantiles(exclusive) of PARENT: 717.5 and 772.5
        assert lat["parent_quartiles"] == [717.5, 772.5]
        assert lat["parent_iqr"] == pytest.approx(55.0)
        assert lat["change_better_pairs"] == 10
        assert lat["relative"] == pytest.approx(-250 / 745)
        assert lat["within_bound"] and lat["gain_rule_met"]
        thr = got["metrics"]["throughput_per_s"]
        assert thr["change_better_pairs"] == 10 and thr["gain_rule_met"]
        assert got["per_call_median_ms"] == {
            "mst_d1": {"parent": 10.0, "change": 10.0},
            "wnn_d3": {"parent": 735.0, "change": 485.0},
        }
        assert got["seeds"] == list(range(100, 110))
        assert got["parent_first"] == [True, False] * 5
        assert got["failed_operations"] == {"parent": 0, "change": 0}
        assert got["operations"] == {"parent": 120, "change": 120}
        assert got["output_sha256_equal_every_pair"]

    def test_eight_wins_is_no_gain(self):
        change = [p - 100 for p in PARENT[:8]] + [p + 5 for p in PARENT[8:]]
        lat = bench_pairs.summarise(pairs(PARENT, change), DECLARED)["metrics"]["latency_ms"]
        assert lat["change_better_pairs"] == 8
        assert not lat["gain_rule_met"]

    def test_shift_inside_the_parent_spread_is_no_gain(self):
        change = [p - 20 for p in PARENT]
        lat = bench_pairs.summarise(pairs(PARENT, change), DECLARED)["metrics"]["latency_ms"]
        assert lat["change_better_pairs"] == 10
        assert not lat["gain_rule_met"]

    def test_ties_count_for_neither_side(self):
        lat = bench_pairs.summarise(pairs(PARENT, PARENT), DECLARED)["metrics"]["latency_ms"]
        assert lat["change_better_pairs"] == 0
        assert lat["relative"] == 0.0 and lat["within_bound"]

    def test_regression_beyond_bound(self):
        change = [p * 1.4 for p in PARENT]
        got = bench_pairs.summarise(pairs(PARENT, change), DECLARED)["metrics"]
        assert not got["latency_ms"]["within_bound"]
        assert not got["throughput_per_s"]["within_bound"]

    def test_failures_and_digests(self):
        got = bench_pairs.summarise(pairs(PARENT, PARENT, failed=1, digest="b"), DECLARED)
        assert got["failed_operations"] == {"parent": 0, "change": 10}
        assert not got["output_sha256_equal_every_pair"]


def test_digests_found_at_any_depth():
    gate = {"attempted": 3, "output_sha256": "x",
            "calls": {"wnn_d3": {"output_sha256": "y", "checks": {"ok": True}}}}
    assert bench_pairs._digests(gate) == {"output_sha256": "x", "calls.wnn_d3.output_sha256": "y"}


def fresh(wall, minflt, peak, digest="d"):
    return {"wall_ms": wall, "minflt": minflt, "maxrss_mb": 80.0, "neighbor_ranks_peak_mb": peak,
            "stdout_sha256": digest}


def emst(wall, peak, digest="e", algorithm="boruvka", ranks_ms=5.0, ranks="r"):
    return {"wall_ms": wall, "peak_mb": peak, "points": 4096, "algorithm": algorithm,
            "edges_sha256": digest, "ranks_ms": ranks_ms, "ranks_sha256": ranks}


def copy(runs):
    return {s: {c: list(r) for c, r in cases.items()} for s, cases in runs.items()}


class TestSummariseFresh:
    """summarise_probe on the records of the estimate-call probe."""

    RUNS = {
        "parent": {
            "wnn_d3": [fresh(w, 63000 + w, 6.3) for w in (300.0, 350.0, 400.0, 450.0, 500.0)],
            "mst_d1": [fresh(15.0, 70, None)] * 5,
        },
        "change": {
            "wnn_d3": [fresh(w, 1500 + w, 4.2) for w in (170.0, 180.0, 190.0, 200.0, 300.0)],
            "mst_d1": [fresh(16.0, 75, None)] * 5,
        },
    }

    def test_medians_and_quartiles_per_side(self):
        got = bench_pairs.summarise_probe(self.RUNS)
        assert sorted(got) == ["mst_d1", "wnn_d3"]
        wnn = got["wnn_d3"]
        assert wnn["runs"] == {"parent": 5, "change": 5}
        # statistics.quantiles(exclusive) of 300..500 by 50: 325 and 475
        assert wnn["wall_ms"]["parent"] == {"median": 400.0, "quartiles": [325.0, 475.0]}
        assert wnn["wall_ms"]["change"]["median"] == 190.0
        assert wnn["wall_ms"]["ratio"] == pytest.approx(190 / 400)
        assert wnn["minflt"]["parent"]["median"] == 63400.0
        assert wnn["minflt"]["change"]["median"] == 1690.0
        assert wnn["neighbor_ranks_peak_mb"]["change"]["median"] == 4.2
        assert wnn["maxrss_mb"]["parent"]["median"] == 80.0
        assert wnn["stdout_equal"]

    def test_calls_without_neighbor_ranks_leave_the_peak_out(self):
        mst = bench_pairs.summarise_probe(self.RUNS)["mst_d1"]
        assert "neighbor_ranks_peak_mb" not in mst
        assert mst["minflt"] == {
            "parent": {"median": 70, "quartiles": [70, 70]},
            "change": {"median": 75, "quartiles": [75, 75]},
            "ratio": 75 / 70,
        }

    def test_one_differing_stdout_or_exit_code_shows(self):
        # The call script digests its exit code with its stdout (see
        # test_fresh_call_digests_the_exit_code_with_stdout), so one digest covers both.
        runs = copy(self.RUNS)
        runs["change"]["mst_d1"][4] = fresh(16.0, 75, None, "e")
        got = bench_pairs.summarise_probe(runs)
        assert not got["mst_d1"]["stdout_equal"] and got["wnn_d3"]["stdout_equal"]


class TestSummariseEmst:
    """summarise_probe on the records of the EMST probe."""

    RUNS = {
        "parent": {"d2_normal_4096": [emst(w, 1.1, algorithm="delaunay")
                                      for w in (30.0, 35.0, 40.0, 45.0, 50.0)]},
        "change": {"d2_normal_4096": [emst(w, 1.7, ranks_ms=w / 10)
                                      for w in (20.0, 22.0, 24.0, 26.0, 28.0)]},
    }

    def test_medians_ratio_and_constructions(self):
        got = bench_pairs.summarise_probe(self.RUNS)["d2_normal_4096"]
        assert got["runs"] == {"parent": 5, "change": 5}
        assert got["points"]["change"]["median"] == 4096 and got["points"]["ratio"] == 1.0
        # statistics.quantiles(exclusive) of 30..50 by 5: 32.5 and 47.5
        assert got["wall_ms"]["parent"] == {"median": 40.0, "quartiles": [32.5, 47.5]}
        assert got["wall_ms"]["change"]["median"] == 24.0
        assert got["wall_ms"]["ratio"] == pytest.approx(0.6)
        assert got["peak_mb"]["ratio"] == pytest.approx(1.7 / 1.1)
        assert got["algorithm"] == {"parent": ["delaunay"], "change": ["boruvka"]}
        assert got["ranks_ms"]["parent"] == {"median": 5.0, "quartiles": [5.0, 5.0]}
        assert got["ranks_ms"]["change"]["median"] == pytest.approx(2.4)
        assert got["ranks_ms"]["ratio"] == pytest.approx(0.48)
        assert got["edges_equal"] and got["ranks_equal"]

    def test_one_differing_edge_set_shows(self):
        runs = copy(self.RUNS)
        runs["change"]["d2_normal_4096"][3] = emst(26.0, 1.7, digest="f")
        got = bench_pairs.summarise_probe(runs)["d2_normal_4096"]
        assert not got["edges_equal"] and got["ranks_equal"]

    def test_one_differing_rank_table_shows(self):
        runs = copy(self.RUNS)
        runs["parent"]["d2_normal_4096"][0] = emst(30.0, 1.1, algorithm="delaunay", ranks="q")
        got = bench_pairs.summarise_probe(runs)["d2_normal_4096"]
        assert got["edges_equal"] and not got["ranks_equal"]


def test_probe_alternates_sides_and_passes_each_its_case(monkeypatch):
    trees = {"parent": Path("p"), "change": Path("c")}
    cases = {"parent": {"a": ["pa"], "b": ["pb"]}, "change": {"a": ["ca"], "b": ["cb"]}}
    calls = []

    def python(tree, code, arg, threads):
        calls.append((tree.name, json.loads(arg)[0], threads))
        return json.dumps({"wall_ms": 1.0, "out_sha256": "x"})

    monkeypatch.setattr(bench_pairs, "_python", python)
    got = bench_pairs._probe(trees, "code", cases, 2, 3)
    assert calls == [
        ("p", "pa", 3), ("c", "ca", 3), ("p", "pb", 3), ("c", "cb", 3),
        ("c", "ca", 3), ("p", "pa", 3), ("c", "cb", 3), ("p", "pb", 3),
    ]
    assert (got["repeats"], got["threads"]) == (2, 3)
    assert got["runs"]["parent"]["a"] == [{"wall_ms": 1.0, "out_sha256": "x"}] * 2
    assert got["summary"]["b"]["out_equal"] and got["summary"]["b"]["runs"] == {"parent": 2, "change": 2}


def test_fresh_call_digests_the_exit_code_with_stdout():
    """A call that fails prints nothing, yet its digest differs from that of an
    empty stdout: the exit code is part of it."""
    repo = Path(__file__).resolve().parents[1]
    argv = ["bounds", "--divergence", "0.25", "--p", "x"]
    record = json.loads(bench_pairs._python(repo, bench_pairs._FRESH_CALL, json.dumps(argv)))
    assert record["stdout_sha256"] == hashlib.sha256(b"2\n").hexdigest()
    assert record["neighbor_ranks_peak_mb"] is None and record["wall_ms"] > 0


def test_emst_clouds_are_built_and_timed(tmp_path):
    """The probe's fresh-interpreter call on this tree's sources, for one small
    cloud: its tree, then its ranks 1 and 5, which the digest pins."""
    repo = Path(__file__).resolve().parents[1]
    record = json.loads(bench_pairs._python(repo, bench_pairs._EMST_CALL,
                                            json.dumps(["lattice", 2, 100]), threads=1))
    assert record["points"] == 600 and record["algorithm"] == "boruvka"
    assert record["wall_ms"] > 0 and record["peak_mb"] > 0 and len(record["edges_sha256"]) == 64
    rng = np.random.default_rng(20261019)
    grid = np.column_stack([a.ravel() for a in np.meshgrid(*[np.arange(10.0)] * 2)])
    pts = np.vstack([grid, grid[rng.integers(0, len(grid), size=500)]])
    ranks = scan_rank_table(pts, [1, 5])
    assert record["ranks_ms"] > 0
    assert record["ranks_sha256"] == hashlib.sha256(ranks.tobytes()).hexdigest()


@pytest.mark.parametrize("case, truth", [
    ({"scenario": "gauss-shift", "d": 2}, "0.2040420024018691"),
    ({"x": [60.0, 1.0], "y": [0.0, 1.0], "d": 1, "p": 0.5}, "HPDivError"),
])
def test_truth_call_reports_the_value_or_the_error(case, truth):
    """The truth probe's fresh-interpreter call on this tree's sources: a bench
    scenario's truth repr, or the type of the error the oracle raised (N(60, 1)
    has no mass in [-5, 5])."""
    repo = Path(__file__).resolve().parents[1]
    record = json.loads(bench_pairs._python(repo, bench_pairs._TRUTH_CALL, json.dumps(case), threads=1))
    assert record["truth"] == truth and record["wall_ms"] > 0


def test_truth_cases_cover_every_scenario_and_tight_pair():
    cases = bench_pairs.TRUTH_CASES
    assert len(cases) == 3 * 6 + 8 * 2
    assert cases["tight_shift_0.01_1_d3"] == {"x": [0.0, 0.01], "y": [1.0, 0.01], "d": 3, "p": 0.5}
    assert cases["gauss-scale_d10"] == {"scenario": "gauss-scale", "d": 10}
    assert cases["tight_uniform_normal_0.1_d3"] == {"x": None, "y": [0.0, 0.1], "d": 3, "p": 0.3}
