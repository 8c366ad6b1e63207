import csv
import warnings

import numpy as np
import pytest

from hpdiv import bench, estimators, knn_estimate, mst, mst_estimate, wnn_estimate
from hpdiv.bench import (
    CellErrorWarning,
    ExperimentPlan,
    MethodSpec,
    parse_methods,
    resolve_truth,
    run_plan,
    scenario_specs,
    summarize_csv,
)
from hpdiv.core import HPDivError, InvalidP
from hpdiv.io import load_points, save_points
from hpdiv.weights import default_l_values, resolve_schedule
from hpdiv import PointCloud


def small_plan(**kw):
    base = dict(
        scenario="gauss-shift",
        dims=1,
        n_grid=(32, 64),
        methods=tuple(parse_methods("knn:3")),
        trials=5,
        p=0.5,
        base_seed=9,
    )
    base.update(kw)
    return ExperimentPlan(**base)


class TestParseMethods:
    def test_mixed(self):
        specs = parse_methods("knn:5,knn:10,wnn,mst")
        assert [s.label for s in specs] == ["knn:5", "knn:10", "wnn", "mst"]

    def test_wnn_custom_l(self):
        (spec,) = parse_methods("wnn:1|2|3")
        assert spec.l_values == (1.0, 2.0, 3.0)

    def test_const(self):
        (spec,) = parse_methods("const:0.3")
        assert spec.value == 0.3 and spec.label == "const:0.3"

    def test_unknown(self):
        with pytest.raises(HPDivError):
            parse_methods("magic")

    @pytest.mark.parametrize("text", ["knn:abc", "wnn:1|x", "const:y", "wnn:", "mst:7", "mst:"])
    def test_malformed_number(self, text):
        with pytest.raises(HPDivError):
            parse_methods(text)

    @pytest.mark.parametrize("text", ["const:inf", "const:-inf", "const:nan"])
    def test_const_must_be_finite(self, text):
        with pytest.raises(HPDivError, match="finite"):
            parse_methods(text)

    @pytest.mark.parametrize("text, match", [("knn", "needs a rank"), (", ,,", "no methods")])
    def test_rankless_or_empty_list(self, text, match):
        with pytest.raises(HPDivError, match=match):
            parse_methods(text)

    @pytest.mark.parametrize("text", ["wnn,wnn:1|2", "knn:5,mst,knn:5"])
    def test_duplicate_labels_rejected(self, text):
        with pytest.raises(HPDivError, match="duplicate"):
            parse_methods(text)


class TestPlanValidation:
    def test_trials_floor(self):
        with pytest.raises(HPDivError):
            small_plan(trials=1)

    def test_unknown_scenario(self):
        with pytest.raises(HPDivError, match="unknown scenario 'nope'"):
            small_plan(scenario="nope")

    def test_grid_increasing(self):
        with pytest.raises(HPDivError):
            small_plan(n_grid=(64, 64))

    @pytest.mark.parametrize("grid", [(0, 64), (-3,)])
    def test_grid_floor(self, grid):
        with pytest.raises(HPDivError, match=">= 1"):
            small_plan(n_grid=grid)

    def test_csv_needs_paths(self):
        with pytest.raises(HPDivError):
            small_plan(scenario="csv")

    def test_duplicate_labels(self):
        with pytest.raises(HPDivError, match="duplicate"):
            small_plan(methods=(MethodSpec(kind="mst"), MethodSpec(kind="mst")))

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            small_plan(p=1.5)

    @pytest.mark.parametrize("truth", [1e308, 1.5, -0.1, float("inf"), float("nan")])
    def test_truth_is_a_divergence(self, truth):
        with pytest.raises(HPDivError, match="finite divergence in \\[0, 1\\]"):
            small_plan(truth=truth)

    @pytest.mark.parametrize("dims", [0, -1])
    def test_dims_floor(self, dims):
        with pytest.raises(HPDivError, match="dims"):
            small_plan(dims=dims)


class TestTruth:
    def test_user_truth_wins(self):
        for truth in (0.42, 0.0, 1.0):  # a divergence's bounds included
            assert resolve_truth(small_plan(truth=truth)) == truth

    def test_identical_specs_yield_zero(self):
        # shift 0: the two specs share every axis, so nothing is integrated
        for dims in (1, 10):
            assert resolve_truth(small_plan(shift=0.0, dims=dims)) == 0.0

    def test_high_dim_truth(self):
        # gauss-scale differs on all 10 axes: the law of S is 10 convolved laws
        (row,) = run_plan(small_plan(scenario="gauss-scale", dims=10, n_grid=(64,), trials=3))
        assert row.mean_est - row.bias == pytest.approx(0.455426, abs=1e-6)
        assert row.mse is not None and row.mse > 0

    @pytest.mark.parametrize("dims", [2, 4, 10])
    def test_gauss_shift_truth_at_any_dim(self, dims):
        # gauss-shift differs on axis 0 alone: the d = 1 truth, bytes and all
        assert resolve_truth(small_plan(dims=dims)) == resolve_truth(small_plan(dims=1))

    def test_csv_without_truth_is_none(self, tmp_path):
        rng = np.random.default_rng(0)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_points(xp, PointCloud(rng.normal(size=(30, 2))))
        save_points(yp, PointCloud(rng.normal(size=(30, 2))))
        plan = small_plan(scenario="csv", x_path=str(xp), y_path=str(yp), dims=2)
        assert resolve_truth(plan) is None


class TestRunPlan:
    def test_gauss_shift_d4_reports_bias_and_mse(self):
        (row,) = run_plan(small_plan(dims=4, n_grid=(64,), trials=3))
        truth = resolve_truth(small_plan(dims=1))
        assert row.bias == row.mean_est - truth
        assert row.mse is not None and row.mse > 0

    def test_constant_stub_moments(self):
        plan = small_plan(
            methods=tuple(parse_methods("const:0.3")), truth=0.5, trials=10
        )
        out = run_plan(plan)
        assert len(out) == 2
        for s in out:
            assert s.mean_est == pytest.approx(0.3, rel=1e-15)
            assert s.bias == pytest.approx(-0.2, rel=1e-14)
            assert s.variance == pytest.approx(0.0, abs=1e-30)
            assert s.mse == pytest.approx(0.04, rel=1e-14)

    def test_constant_stub_exact_on_dyadic_value(self):
        # 0.25 and 0.5 are exactly representable, so the moments are exact
        plan = small_plan(
            methods=tuple(parse_methods("const:0.25")), truth=0.5, trials=10
        )
        for s in run_plan(plan):
            assert s.mean_est == 0.25
            assert s.bias == -0.25
            assert s.variance == 0.0
            assert s.mse == 0.0625

    def test_reproducible(self):
        plan = small_plan(methods=tuple(parse_methods("knn:3,mst")))
        assert run_plan(plan) == run_plan(plan)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        plan = small_plan(methods=tuple(parse_methods("knn:3,mst")), trials=6)
        monkeypatch.setenv("HPDIV_THREADS", "1")
        serial = run_plan(plan)
        monkeypatch.setenv("HPDIV_THREADS", "4")
        threaded = run_plan(plan)
        assert serial == threaded

    def test_mse_identity(self):
        plan = small_plan(methods=tuple(parse_methods("knn:2")), trials=16)
        for s in run_plan(plan):
            assert s.mse == pytest.approx(s.bias**2 + s.variance, rel=1e-12, abs=1e-15)
            assert s.ci_low <= s.mean_est <= s.ci_high

    def test_bad_cell_aborts_only_itself(self):
        # K(l) for l = 1, 12 is (5, 67) at n=32, past |Z| - 1 = 63; (8, 96) at n=64
        plan = small_plan(methods=tuple(parse_methods("knn:500,knn:0,wnn:1|12,knn:3")))
        with pytest.warns(CellErrorWarning) as caught:
            out = run_plan(plan)
        labels = {(s.method, s.n) for s in out}
        assert labels == {("knn:3", 32), ("knn:3", 64), ("wnn", 64)}
        assert len([w for w in caught if w.category is CellErrorWarning]) == 5

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_programming_error_propagates(self, monkeypatch, threads):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("bug")

        monkeypatch.setenv("HPDIV_THREADS", threads)
        plan = small_plan(methods=tuple(parse_methods("knn:3,mst")))
        for module, name in ((bench, "build_emst"), (estimators, "neighbor_ranks")):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, broken)
                with pytest.raises(ZeroDivisionError):
                    run_plan(plan)

    @pytest.mark.parametrize("scenario", ["gauss-shift", "csv"])
    def test_trial_matches_library(self, tmp_path, scenario):
        """One (n, t) of the bench equals the public estimators bit for bit
        on the same draw; the csv pair is a duplicate-heavy integer grid."""
        rng = np.random.default_rng(8)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_points(xp, PointCloud(rng.integers(0, 5, size=(200, 2))))
        save_points(yp, PointCloud(rng.integers(1, 6, size=(180, 2))))
        plan = small_plan(
            scenario=scenario, dims=2, n_grid=(160,), p=0.4, x_path=str(xp), y_path=str(yp),
            methods=tuple(parse_methods("knn:5,wnn,mst")),
        )
        sources = scenario_specs(plan) or (load_points(xp), load_points(yp))
        sums, failed = bench._neighbor_cells(plan, 160, 2)
        assert failed == set()
        t = 3
        got = bench._run_trial(plan, sources, sums, 160, t)
        x, y = bench._draw_pair(plan, sources, 160, t)
        schedule = resolve_schedule(default_l_values(2), 2, 160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # both pairs follow the balanced design
            want = {
                "knn:5": knn_estimate(x, y, 5, plan.p).value,
                "wnn": wnn_estimate(x, y, schedule, plan.p).value,
                "mst": mst_estimate(x, y, plan.p).value,
            }
        assert got == want

    @pytest.mark.parametrize("p, m", [(0.4, 240), (0.5, 160)])
    def test_csv_pool_follows_the_balanced_design(self, monkeypatch, tmp_path, p, m):
        # The files' rows are resampled to n and floor(n q / p), as a
        # synthetic scenario draws, whatever the files' own sizes.
        rng = np.random.default_rng(9)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_points(xp, PointCloud(rng.normal(size=(50, 2))))
        save_points(yp, PointCloud(rng.normal(size=(70, 2))))
        pools = []
        real = bench.pool_pair

        def spy(x, y):
            z = real(x, y)
            pools.append((z.n_x, z.n_y))
            return z

        monkeypatch.setattr(bench, "pool_pair", spy)
        plan = small_plan(
            scenario="csv", n_grid=(160,), trials=3, p=p, x_path=str(xp), y_path=str(yp),
            methods=tuple(parse_methods("knn:3,mst")),
        )
        knn, mst = run_plan(plan)
        assert pools == [(160, m)] * 3
        assert (knn.method, mst.method) == ("knn:3", "mst")

    def test_1d_csv_trials_run_the_path(self, monkeypatch, tmp_path):
        # 160 rows resampled from 60 repeat values; the EMST stars the copies
        # and joins the distinct values as a path, with no Boruvka.
        rng = np.random.default_rng(10)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_points(xp, PointCloud(rng.normal(size=(60, 1))))
        save_points(yp, PointCloud(rng.normal(size=(60, 1)) + 1.0))
        trees, boruvka = [], []
        real_build, real_boruvka = bench.build_emst, mst._boruvka_edges

        def build(z):
            trees.append(real_build(z))
            return trees[-1]

        def spy(pts):
            boruvka.append(len(pts))
            return real_boruvka(pts)

        monkeypatch.setattr(bench, "build_emst", build)
        monkeypatch.setattr(mst, "_boruvka_edges", spy)
        plan = small_plan(
            scenario="csv", n_grid=(160,), trials=3, x_path=str(xp), y_path=str(yp),
            methods=tuple(parse_methods("knn:3,mst")),
        )
        run_plan(plan)
        assert [(len(t), t.algorithm) for t in trees] == [(319, "path")] * 3
        assert boruvka == []

    def test_neighbor_pass_sees_only_passing_cells(self, monkeypatch):
        # Ranks must fit |Z| - 1 = 63 at n=32 and 127 at n=64: knn:100 runs at
        # n=64 only, as does wnn:1|12 with K(l) = (5, 67), then (8, 96).
        seen = []
        real = bench.neighbor_statistics

        def spy(z, sums, *args):
            seen.append((len(z), sorted(sums)))
            return real(z, sums, *args)

        monkeypatch.setattr(bench, "neighbor_statistics", spy)
        plan = small_plan(methods=tuple(parse_methods("knn:3,knn:100,wnn:1|12,mst")), trials=3)
        with pytest.warns(CellErrorWarning):
            out = run_plan(plan)
        assert seen == [(64, ["knn:3"])] * 3 + [(128, ["knn:100", "knn:3", "wnn"])] * 3
        assert {(s.method, s.n) for s in out} == {
            ("knn:3", 32), ("mst", 32), ("knn:3", 64), ("knn:100", 64), ("wnn", 64), ("mst", 64)
        }

    def test_cells_fail_where_checked(self):
        # knn:100 needs |Z| - 1 >= 100: it aborts at n=32 and runs at n=64.
        plan = small_plan(methods=tuple(parse_methods("knn:3,knn:100,mst")))
        with pytest.warns(CellErrorWarning, match=r"^cell knn:100 @ n=32 aborted") as caught:
            cells, failed = bench._neighbor_cells(plan, 32, 1)
        assert (sorted(cells), failed, len(caught)) == (["knn:3"], {"knn:100"}, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cells, failed = bench._neighbor_cells(plan, 64, 1)
        assert (sorted(cells), failed, caught) == (["knn:100", "knn:3"], set(), [])
        with pytest.warns(CellErrorWarning) as caught:
            run_plan(plan)
        assert [w.filename for w in caught] == [__file__]  # blamed on run_plan's caller

    @pytest.mark.parametrize("methods, warned, drawn", [
        ("knn:500", [
            "cell knn:500 @ n=32 aborted: ranks must lie in [1, 63], got 500..500",
            "cell knn:500 @ n=64 aborted: ranks must lie in [1, 127], got 500..500",
        ], []),
        ("knn:100,wnn:1|12", [
            "cell knn:100 @ n=32 aborted: ranks must lie in [1, 63], got 100..100",
            "cell wnn @ n=32 aborted: K=67 exceeds the pooled bound N+M-1=63",
        ], [64] * 5),
    ])
    def test_n_with_no_method_left_draws_nothing(self, monkeypatch, methods, warned, drawn):
        # Every cell at n=32 aborts (and at n=64 too for knn:500): such an n
        # warns as before but draws no sample.
        draws = []
        real = bench._draw_pair

        def spy(plan, sources, n, t):
            draws.append(n)
            return real(plan, sources, n, t)

        monkeypatch.setattr(bench, "_draw_pair", spy)
        with pytest.warns(CellErrorWarning) as caught:
            out = run_plan(small_plan(methods=tuple(parse_methods(methods))))
        assert [str(w.message) for w in caught] == warned
        assert draws == drawn
        assert {s.n for s in out} == set(drawn)

    def test_malformed_thread_count(self, monkeypatch):
        monkeypatch.setenv("HPDIV_THREADS", "x")
        with pytest.raises(HPDivError, match="HPDIV_THREADS"):
            run_plan(small_plan())

    def test_identical_distributions_ci_brackets_zero(self):
        plan = small_plan(
            shift=0.0, n_grid=(256,), trials=30,
            methods=tuple(parse_methods("knn:5")),
        )
        (s,) = run_plan(plan)
        assert s.ci_low <= 0.15 and s.ci_high >= -0.15  # loose sanity band

    def test_base_seeds_draw_disjoint_trials(self):
        # every base seed keys its own trials, so no two summaries repeat
        plans = [
            small_plan(dims=2, n_grid=(256,), trials=8, base_seed=b,
                       methods=tuple(parse_methods("knn:5")))
            for b in range(8)
        ]
        rows = [run_plan(plan) for plan in plans]
        assert len({(s.mean_est, s.variance) for (s,) in rows}) == 8

    def test_dimension_sensitivity(self):
        """knn on identical pairs is centred on its exact null mean at d = 2
        and at d = 10 (statistical, rerunnable). Every label assignment is
        equally likely, so E[count] = |Z| k 2nm / (|Z| (|Z| - 1)) and the
        affine map gives E[value] = -1 / (|Z| - 1) at any d and k."""
        for d in (2, 10):
            plan = small_plan(
                dims=d, shift=0.0, n_grid=(256,), trials=60,
                methods=tuple(parse_methods("knn:5")), base_seed=11,
            )
            (s,) = run_plan(plan)
            assert s.bias is not None  # truth known without quadrature
            se = np.sqrt(s.variance / (s.trials - 1))
            assert abs(s.mean_est + 1 / (2 * 256 - 1)) <= 4 * se

    def test_csv_scenario_bootstrap(self, tmp_path):
        rng = np.random.default_rng(4)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_points(xp, PointCloud(rng.normal(size=(100, 2))))
        save_points(yp, PointCloud(rng.normal(size=(80, 2)) + 1.0))
        plan = small_plan(
            scenario="csv", dims=2, x_path=str(xp), y_path=str(yp),
            n_grid=(40,), trials=6, methods=tuple(parse_methods("knn:3")),
        )
        (s,) = run_plan(plan)
        assert s.bias is None and s.mse is None
        assert np.isfinite(s.mean_est) and np.isfinite(s.variance)


def csv_cells(path):
    """The cells of a summary file below its header, numbers read by float()
    and empty cells as None."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert ",".join(header) == bench.CSV_HEADER
    return [[row[0], *(float(c) if c else None for c in row[1:])] for row in rows]


def summary_cells(summaries):
    return [[s.method, s.n, s.mean_est, s.bias, s.variance, s.mse, s.ci_low, s.ci_high, s.trials]
            for s in summaries]


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        plan = small_plan(methods=tuple(parse_methods("knn:3")), trials=4)
        out = run_plan(plan)
        path = tmp_path / "r.csv"
        summarize_csv(out, path)
        assert csv_cells(path) == summary_cells(out)

    def test_round_trip_with_missing_truth(self, tmp_path):
        # the csv scenario without --truth: the one case left with no truth
        rng = np.random.default_rng(5)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        save_points(xp, PointCloud(rng.normal(size=(40, 2))))
        save_points(yp, PointCloud(rng.normal(size=(40, 2)) + 0.5))
        plan = small_plan(scenario="csv", x_path=str(xp), y_path=str(yp), dims=2, trials=4)
        out = run_plan(plan)
        assert out[0].bias is None
        path = tmp_path / "r.csv"
        summarize_csv(out, path)
        assert csv_cells(path) == summary_cells(out)

    def test_bytes_of_empty_and_extreme_cells(self, tmp_path):
        # a None bias or MSE is an empty cell, every other float its repr
        label = MethodSpec(kind="const", value=1e300).label
        rows = [
            bench.TrialSummary(label, 64, 1e300, None, 0.0, None, 1e300, 1e300, 2),
            bench.TrialSummary("knn:5", 128, 0.1 + 0.2, -0.0, 5e-324, 1e-300, -1.5,
                               1.7976931348623157e308, 3),
        ]
        path = tmp_path / "edge.csv"
        summarize_csv(rows, path)
        want = "".join(
            ",".join([s.method, str(s.n),
                      *("" if v is None else repr(float(v))
                        for v in (s.mean_est, s.bias, s.variance, s.mse, s.ci_low, s.ci_high)),
                      str(s.trials)]) + "\n"
            for s in rows
        )
        assert path.read_bytes() == (bench.CSV_HEADER + "\n" + want).encode()
        assert want.splitlines() == [
            "const:1e+300,64,1e+300,,0.0,,1e+300,1e+300,2",
            "knn:5,128,0.30000000000000004,-0.0,5e-324,1e-300,-1.5,1.7976931348623157e+308,3",
        ]

    def test_single_summary_two_lines(self, tmp_path):
        plan = small_plan(n_grid=(32,), trials=4)
        out = run_plan(plan)
        path = tmp_path / "one.csv"
        summarize_csv(out, path)
        assert len(path.read_text().strip().splitlines()) == 2

    def test_empty_input_no_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(HPDivError):
            summarize_csv([], path)
        assert not path.exists()
