"""The summary of tools/bench_pairs.py, on fixed records (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

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
            "rc": 0, "stdout_sha256": digest}


class TestSummariseFresh:
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
        got = bench_pairs.summarise_fresh(self.RUNS)
        assert sorted(got) == ["mst_d1", "wnn_d3"]
        wnn = got["wnn_d3"]
        assert wnn["runs"] == {"parent": 5, "change": 5}
        # statistics.quantiles(exclusive) of 300..500 by 50: 325 and 475
        assert wnn["wall_ms"]["parent"] == {"median": 400.0, "quartiles": [325.0, 475.0]}
        assert wnn["wall_ms"]["change"]["median"] == 190.0
        assert wnn["minflt"]["parent"]["median"] == 63400.0
        assert wnn["minflt"]["change"]["median"] == 1690.0
        assert wnn["neighbor_ranks_peak_mb"]["change"]["median"] == 4.2
        assert wnn["maxrss_mb"]["parent"]["median"] == 80.0
        assert wnn["stdout_equal"]

    def test_calls_without_neighbor_ranks_leave_the_peak_out(self):
        mst = bench_pairs.summarise_fresh(self.RUNS)["mst_d1"]
        assert "neighbor_ranks_peak_mb" not in mst
        assert mst["minflt"] == {
            "parent": {"median": 70, "quartiles": [70, 70]},
            "change": {"median": 75, "quartiles": [75, 75]},
        }

    def test_one_differing_stdout_or_exit_code_shows(self):
        runs = {s: dict(kinds) for s, kinds in self.RUNS.items()}
        runs["change"]["mst_d1"] = [fresh(16.0, 75, None)] * 4 + [fresh(16.0, 75, None, "e")]
        got = bench_pairs.summarise_fresh(runs)
        assert not got["mst_d1"]["stdout_equal"] and got["wnn_d3"]["stdout_equal"]
        runs["change"]["mst_d1"] = [dict(fresh(16.0, 75, None), rc=2)] + [fresh(16.0, 75, None)] * 4
        assert not bench_pairs.summarise_fresh(runs)["mst_d1"]["stdout_equal"]
