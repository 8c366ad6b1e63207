import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hpdiv
from hpdiv import neighbors
from hpdiv.cli import main
from hpdiv.weights import constraint_matrix


@pytest.fixture
def hand_files(tmp_path):
    x = tmp_path / "a.csv"
    y = tmp_path / "b.csv"
    x.write_text("0\n2\n")
    y.write_text("1\n3\n")
    return str(x), str(y)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(capsys, argv, match, exit_code=2):
    """Exit 2 (or ``exit_code``), nothing on stdout, one JSON line on
    stderr, no warnings."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    assert (code, out, seen) == (exit_code, "", [])
    (line,) = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] and match in payload["message"]


class TestUsageErrors:
    """argparse's errors leave by the same path as the library's."""

    @pytest.mark.parametrize("argv,match", [
        (["estimate", "--method", "knn", "--k", "abc", "--x", "a", "--y", "b"],
         "invalid int value: 'abc'"),
        (["bounds", "--divergence", "0.25", "--p", "x"], "invalid float value: 'x'"),
        (["bench", "--scenario", "nope", "--out", "r.csv"], "invalid choice: 'nope'"),
        (["estimate", "--method", "foo"], "invalid choice: 'foo'"),
        (["bench", "--scenario", "gauss-shift"], "required: --out"),
        (["bounds", "--divergence", "0.25", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "required: command"),
        (["estimate", "--method", "mst", "--x", "a", "--y", "b", "--data", "d"],
         "point files (--x/--y) and labeled file (--data) are exclusive"),
        (["estimate", "--method", "mst", "--y", "b"], "point mode needs both --x and --y"),
        (["estimate", "--method", "mst", "--data", "d", "--class-b", "b"],
         "labeled mode needs --data, --class-a and --class-b"),
    ], ids=["int", "float", "scenario", "method", "no-out", "unknown-flag", "no-command",
            "mixed-modes", "no-x", "no-class-a"])
    def test_one_json_line(self, capsys, argv, match):
        # The file names do not exist: modes are checked before any read, and
        # test_missing_inputs_rejected covers the fourth mode message.
        assert_usage_error(capsys, argv, match)

    def test_console_entry(self):
        # the module's own exit path: sys.exit(main())
        src = os.path.dirname(os.path.dirname(hpdiv.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "hpdiv.cli", "estimate", "--method", "knn",
             "--k", "abc", "--x", "a", "--y", "b"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["message"] == "argument --k: invalid int value: 'abc'"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--help"])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: hpdiv estimate")


class TestEstimate:
    def test_knn_hand(self, capsys, hand_files):
        x, y = hand_files
        code, out, _ = run_cli(
            capsys,
            ["estimate", "--method", "knn", "--k", "1", "--p", "0.5", "--x", x, "--y", y],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == -1.0
        assert payload["method"] == "knn" and payload["k"] == 1
        assert payload["n"] == 2 and payload["m"] == 2
        assert type(payload["dichotomous_count"]) is int and payload["dichotomous_count"] == 4

    def test_overflowing_design_exit_2(self, capsys, hand_files):
        # floor(N q / p) is not a finite float at p = 1e-320
        x, y = hand_files
        argv = ["estimate", "--method", "knn", "--k", "1", "--p", "1e-320", "--x", x, "--y", y]
        assert_usage_error(capsys, argv, "overflows at N=2, p=1e-320")

    def test_mst_hand(self, capsys, hand_files):
        x, y = hand_files
        code, out, _ = run_cli(
            capsys, ["estimate", "--method", "mst", "--x", x, "--y", y]
        )
        assert code == 0
        assert json.loads(out)["value"] == -0.5

    def test_wnn_hand(self, capsys, hand_files):
        x, y = hand_files
        code, out, _ = run_cli(
            capsys,
            ["estimate", "--method", "wnn", "--l-values", "1,2", "--x", x, "--y", y],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == -2.0
        assert payload["weights"] == [2.0, -1.0]
        assert payload["k_values"] == [1, 2]

    def test_clamp_flag(self, capsys, hand_files):
        x, y = hand_files
        code, out, _ = run_cli(
            capsys,
            ["estimate", "--method", "knn", "--k", "1", "--clamp", "--x", x, "--y", y],
        )
        assert json.loads(out)["value"] == 0.0
        assert json.loads(out)["clamped"] is True

    def test_k_too_large_exit_2(self, capsys, hand_files):
        x, y = hand_files
        code, out, err = run_cli(
            capsys,
            ["estimate", "--method", "knn", "--k", "99", "--x", x, "--y", y],
        )
        assert code == 2
        assert json.loads(err)["error"] == "KTooLarge"

    @pytest.mark.parametrize("mode", ["points", "data"])
    def test_invalid_utf8_exit_2(self, capsys, hand_files, tmp_path, mode):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0,a\n\xff,b\n" if mode == "data" else b"0\n\xff\n")
        files = (
            ["--data", str(bad), "--class-a", "a", "--class-b", "b"]
            if mode == "data" else ["--x", str(bad), "--y", hand_files[1]]
        )
        code, out, err = run_cli(capsys, ["estimate", "--method", "knn", "--k", "1", *files])
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "ParseError"

    def test_labeled_mode(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("0,a\n2,a\n1,b\n3,b\n")
        code, out, _ = run_cli(
            capsys,
            ["estimate", "--method", "knn", "--k", "1",
             "--data", str(data), "--class-a", "a", "--class-b", "b"],
        )
        assert code == 0
        assert json.loads(out)["value"] == -1.0

    def test_mixed_modes_rejected(self, capsys, hand_files, tmp_path):
        x, y = hand_files
        data = tmp_path / "d.csv"
        data.write_text("0,a\n1,b\n")
        assert_usage_error(
            capsys, ["estimate", "--method", "mst", "--x", x, "--y", y, "--data", str(data)],
            "point files (--x/--y) and labeled file (--data) are exclusive",
        )

    @pytest.mark.parametrize("mode", ["x-only", "no-class-b"])
    def test_incomplete_mode_rejected(self, capsys, hand_files, mode):
        x, _ = hand_files
        flags, match = (
            (["--x", x], "point mode needs both --x and --y") if mode == "x-only"
            else (["--data", x, "--class-a", "a"], "labeled mode needs --data, --class-a and --class-b")
        )
        assert_usage_error(capsys, ["estimate", "--method", "mst", *flags], match)

    def test_knn_without_k_exit_2(self, capsys, hand_files):
        x, y = hand_files
        assert_usage_error(capsys, ["estimate", "--method", "knn", "--x", x, "--y", y], "--k")

    def test_rank_past_int64_exit_2(self, capsys, hand_files):
        x, y = hand_files
        k = 10**23 - 1
        assert_usage_error(
            capsys, ["estimate", "--method", "knn", "--k", str(k), "--x", x, "--y", y],
            f"got {k}..{k}",
        )

    def test_empty_l_values_exit_2(self, capsys, tmp_path):
        # 16 points a side: enough for the default d = 1 grid, so an empty
        # --l-values= that fell back to it would print an estimate.
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        x.write_text("".join(f"{i}\n" for i in range(16)))
        y.write_text("".join(f"{i + 0.5}\n" for i in range(16)))
        assert_usage_error(
            capsys, ["estimate", "--method", "wnn", "--l-values=", "--x", str(x), "--y", str(y)],
            "l_values must be a nonempty",
        )

    def test_missing_inputs_rejected(self, capsys):
        assert_usage_error(
            capsys, ["estimate", "--method", "mst"], "supply --x/--y or --data/--class-a/--class-b"
        )


class TestEstimateThreads:
    """stdout of knn and wnn estimates does not depend on HPDIV_THREADS."""

    @pytest.fixture(params=["grid", "random"])
    def pair_files(self, request, tmp_path):
        rng = np.random.default_rng(17)
        if request.param == "grid":  # integer points, many exact duplicates
            x, y = (rng.integers(0, 8, size=(300, 2)).astype(float) for _ in range(2))
        else:
            x, y = rng.normal(size=(600, 3)), 1.0 + rng.normal(size=(600, 3))
        for name, pts in (("x.csv", x), ("y.csv", y)):
            np.savetxt(tmp_path / name, pts, fmt="%.17g", delimiter=",")
        return request.param, str(tmp_path / "x.csv"), str(tmp_path / "y.csv")

    @pytest.mark.parametrize("method", [["knn", "--k", "4"], ["wnn"]])
    def test_stdout_same_at_1_and_2_threads(self, capsys, monkeypatch, pair_files, method):
        kind, x, y = pair_files
        sorted_rows = []
        real = neighbors._sorted_rows

        def spy(idx, rows, *args):
            sorted_rows.append(len(rows))
            return real(idx, rows, *args)

        monkeypatch.setattr(neighbors, "_sorted_rows", spy)
        argv = ["estimate", "--method", *method, "--x", x, "--y", y]
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HPDIV_THREADS", threads)
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        if kind == "grid":
            assert sum(sorted_rows) > 0  # the tied rows took the sorted tier

    def test_negative_thread_count_exit_2(self, capsys, monkeypatch, hand_files):
        x, y = hand_files
        monkeypatch.setenv("HPDIV_THREADS", "-2")
        code, out, err = run_cli(capsys, ["estimate", "--method", "knn", "--k", "1", "--x", x, "--y", y])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "HPDIV_THREADS" in json.loads(err)["message"]


def fsum_residual(payload):
    """max_i |sum_j a_ij w_j - b_i| of a ``weights`` payload, each row an exact
    sum (math.fsum) of Python float products."""
    a, b = constraint_matrix(np.asarray(payload["l_values"]), payload["d"])
    w = payload["weights"]
    return max(
        abs(math.fsum([float(a[i, j]) * w[j] for j in range(len(w))] + [-float(b[i])]))
        for i in range(len(b))
    )


class TestWeights:
    def test_forced_solution(self, capsys):
        code, out, _ = run_cli(capsys, ["weights", "--d", "1", "--l-values", "1,2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"] == [2.0, -1.0]
        assert payload["residual"] <= 1e-9
        assert payload["residual"] == fsum_residual(payload)
        assert payload["k_values"] is None

    @pytest.mark.parametrize(
        "args",
        [["--d", "1"], ["--d", "2"], ["--d", "3"], ["--d", "4"], ["--d", "2", "--n", "500"],
         ["--d", "2", "--l-values", "0.3,0.9,1.7,2.2,3.1"]],
    )
    def test_residual_is_the_fsum_of_each_row(self, capsys, args):
        # The printed residual sums each constraint row in one fixed order,
        # never through BLAS, so it is the same bits on every kernel.
        code, out, _ = run_cli(capsys, ["weights", *args])
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] == fsum_residual(payload)
        assert payload["residual"] <= 1e-9

    def test_with_n(self, capsys):
        code, out, _ = run_cli(
            capsys, ["weights", "--d", "1", "--l-values", "1,2", "--n", "100"]
        )
        assert json.loads(out)["k_values"] == [10, 20]

    def test_with_n_solves_once(self, capsys, monkeypatch):
        # --n reads the weights off the schedule: one solve, the same bytes.
        from hpdiv import cli, weights

        code, plain, _ = run_cli(capsys, ["weights", "--d", "2"])
        calls = []
        real = weights.solve_weights

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(weights, "solve_weights", counting)
        monkeypatch.setattr(cli, "solve_weights", counting)
        code, out, _ = run_cli(capsys, ["weights", "--d", "2", "--n", "4000"])
        assert code == 0 and len(calls) == 1
        with_n, plain = json.loads(out), json.loads(plain)
        assert len(with_n.pop("k_values")) == 28 and plain.pop("k_values") is None
        assert with_n == plain

    def test_malformed_l_values_exit_2(self, capsys):
        code, out, err = run_cli(capsys, ["weights", "--d", "1", "--l-values", "1,x"])
        assert code == 2 and out == ""
        assert "--l-values" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv,exit_code,match", [
        (["--l-values", "1e-300,2e-300"], 3, "rcond=0.00e+00"),
        (["--l-values", "1,2", "--n", "1" + "0" * 38], 2, "K=20000000000000000000 at N="),
        (["--l-values="], 2, "l_values must be a nonempty"),
        (["--l-values", "1,2", "--n", "1" + "0" * 400], 2, "sample size N=10000"),
    ], ids=["cond-overflow", "k-past-int64", "empty", "n-past-float"])
    def test_one_json_line(self, capsys, argv, exit_code, match):
        # No numpy RuntimeWarning reaches stderr ahead of the JSON line.
        assert_usage_error(capsys, ["weights", "--d", "1", *argv], match, exit_code)

    def test_singular_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["weights", "--d", "2", "--l-values",
             "1.0,1.000000001,1.000000002,1.000000003"],
        )
        assert code == 3
        assert json.loads(err)["error"] == "SingularConstraints"


class TestBounds:
    def test_zero_divergence(self, capsys):
        code, out, _ = run_cli(capsys, ["bounds", "--divergence", "0", "--p", "0.5"])
        assert code == 0
        assert json.loads(out) == {"lower": 0.5, "upper": 0.5}

    def test_other_p(self, capsys):
        code, out, _ = run_cli(capsys, ["bounds", "--divergence", "0", "--p", "0.2"])
        assert code == 0
        got = json.loads(out)
        assert got["upper"] == 0.2
        assert got["lower"] == pytest.approx(0.2, abs=1e-15)

    def test_nan_divergence_exit_2(self, capsys):
        assert_usage_error(capsys, ["bounds", "--divergence", "nan"], "nan")

    def test_bad_p_exit_2(self, capsys):
        for p in ("0", "1.5"):
            code, _, err = run_cli(capsys, ["bounds", "--divergence", "0.2", "--p", p])
            assert code == 2
            assert json.loads(err)["error"] == "InvalidP"


class TestGen:
    def test_deterministic_output(self, capsys, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        argv = ["gen", "--dist", "tnorm", "--dim", "2", "--mean", "0,0",
                "--sigma", "1", "--box=-5,5", "--n", "50", "--seed", "3"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().strip().splitlines()) == 50

    def test_uniform(self, capsys, tmp_path):
        out = tmp_path / "u.csv"
        code = main(["gen", "--dist", "uniform", "--dim", "1", "--box", "0,1",
                     "--n", "10", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        vals = [float(v) for v in out.read_text().split()]
        assert all(0 <= v <= 1 for v in vals)

    def test_rejection_stall_exit_3(self, capsys, tmp_path):
        out = tmp_path / "never.csv"
        code, _, err = run_cli(
            capsys,
            ["gen", "--dist", "tnorm", "--dim", "1", "--mean", "0",
             "--sigma", "1", "--box", "50,51", "--n", "5", "--seed", "1",
             "--out", str(out)],
        )
        assert code == 3
        assert json.loads(err)["error"] == "RejectionStall"


    @pytest.mark.parametrize("flags,match", [
        (["--dist", "uniform", "--dim", "0"], "--dim"),
        (["--dist", "tnorm", "--dim", "0"], "--dim"),
        (["--dist", "uniform", "--dim", "-1"], "--dim"),
        (["--dist", "tnorm", "--dim", "2", "--mean", "nan,0"], "finite"),
        (["--dist", "tnorm", "--dim", "2", "--mean", "0,inf"], "finite"),
        (["--dist", "tnorm", "--dim", "2", "--sigma", "inf"], "finite"),
        (["--dist", "tnorm", "--dim", "1", "--sigma", "nan"], "finite"),
        (["--dist", "tnorm", "--dim", "1", "--seed", str(2**128)], "2**128"),
        (["--dist", "uniform", "--dim", "1", "--seed", "-1"], "2**128"),
        (["--dist", "tnorm", "--dim", "1", "--sigma", "-1"], "positive"),
        (["--dist", "tnorm", "--dim", "2", "--sigma", "1,-2"], "positive"),
        (["--dist", "tnorm", "--dim", "1", "--box=1,2,3"], "LO,HI"),
        (["--dist", "tnorm", "--dim", "2", "--mean", "0"], "--mean needs 2"),
        (["--dist", "tnorm", "--dim", "3", "--sigma", "1,2"], "--sigma needs 1 or 3"),
        # hi - lo overflows the float range, and sigma**2 does
        (["--dist", "uniform", "--dim", "1", "--box=-1e308,1e308"], "finite width"),
        (["--dist", "tnorm", "--dim", "1", "--sigma", "1e200"], "finite"),
    ])
    def test_degenerate_spec_exit_2(self, capsys, tmp_path, flags, match):
        out = tmp_path / "never.csv"
        assert_usage_error(capsys, ["gen", *flags, "--n", "5", "--out", str(out)], match)
        assert not out.exists()

    def test_wide_box_integrates_no_mass(self, capsys, tmp_path):
        # a draw never reads the truncation mass, so its quadrature cannot warn
        out = tmp_path / "wide.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, ["gen", "--dist", "tnorm", "--dim", "1", "--n", "5",
                                            "--box=-1e300,1e300", "--out", str(out)])
        assert (code, err) == (0, "")
        assert len(out.read_text().splitlines()) == 5


class TestBench:
    def test_deterministic_csv(self, capsys, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        argv = ["bench", "--scenario", "gauss-shift", "--dims", "1",
                "--n-grid", "32,64", "--trials", "5", "--methods", "knn:5",
                "--p", "0.5", "--seed", "1"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "method,n,mean,bias,variance,mse,ci_low,ci_high,trials"

    @pytest.fixture
    def bench_argv(self, tmp_path):
        return ["bench", "--scenario", "gauss-shift", "--dims", "1",
                "--n-grid", "32,64", "--trials", "3", "--methods", "knn:5",
                "--out", str(tmp_path / "r.csv")]

    def test_malformed_n_grid_exit_2(self, capsys, bench_argv):
        argv = bench_argv[:]
        argv[argv.index("--n-grid") + 1] = "200,abc"
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "--n-grid" in json.loads(err)["message"]

    def test_malformed_method_exit_2(self, capsys, bench_argv):
        argv = bench_argv[:]
        argv[argv.index("--methods") + 1] = "knn:abc"
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "knn:abc" in json.loads(err)["message"]

    @pytest.mark.parametrize("methods,match", [
        ("wnn:", "method 'wnn:': malformed number ''"),
        ("mst:7", "mst takes no argument"),
    ])
    def test_malformed_method_token_exit_2(self, capsys, bench_argv, methods, match):
        argv = bench_argv[:]
        argv[argv.index("--methods") + 1] = methods
        assert_usage_error(capsys, argv, match)

    def test_malformed_thread_count_exit_2(self, capsys, monkeypatch, bench_argv, tmp_path):
        monkeypatch.setenv("HPDIV_THREADS", "x")
        code, out, err = run_cli(capsys, bench_argv)
        assert code == 2 and out == ""
        assert "HPDIV_THREADS" in json.loads(err)["message"]
        assert not (tmp_path / "r.csv").exists()

    def test_rank_past_int64_aborts_its_cells(self, capsys, tmp_path, bench_argv):
        # Like any rank past the pooled bound: each cell aborts with the
        # KTooLarge text, and with no cell left nothing is written.
        argv = bench_argv[:]
        k = 10**23 - 1
        argv[argv.index("--methods") + 1] = f"knn:{k}"
        with pytest.warns(hpdiv.bench.CellErrorWarning) as seen:
            code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert [str(w.message).endswith(f"got {k}..{k}") for w in seen] == [True, True]
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": "HPDivError", "message": "no summaries to write"}
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag,value,match", [
        ("--dims", "0", "dims"),
        ("--dims", "-1", "dims"),
        ("--shift", "nan", "finite"),
        ("--shift", "inf", "finite"),
        ("--shift", "-inf", "finite"),
        ("--truth", "nan", "finite"),
        ("--truth", "inf", "finite"),
        ("--truth", "1e308", "finite divergence in [0, 1]"),
        ("--truth", "-0.5", "finite divergence in [0, 1]"),
        ("--methods", "const:inf", "const needs a finite value"),
        ("--p", "1e-320", "overflows at N=32, p=1e-320"),
        ("--seed", str(2**127), "2**127"),
        ("--seed", "-1", "2**127"),
    ])
    def test_degenerate_plan_exit_2(self, capsys, tmp_path, bench_argv, flag, value, match):
        argv = bench_argv[:]
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [f"{flag}={value}"]
        assert_usage_error(capsys, argv, match)
        assert not (tmp_path / "r.csv").exists()

    def test_zero_truncation_mass_exit_2(self, capsys, tmp_path, bench_argv):
        # the truth, before any draw, finds N(60, 1) with no mass in the box
        argv = bench_argv + ["--shift", "60"]
        assert_usage_error(capsys, argv, "truncation mass of axis 0 is 0")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("methods", ["knn:5", "mst"])
    def test_zero_sample_size_exit_2(self, capsys, tmp_path, bench_argv, methods):
        # Every method fails the same way, before any draw.
        argv = bench_argv[:]
        argv[argv.index("--n-grid") + 1] = "0,64"
        argv[argv.index("--methods") + 1] = methods
        assert_usage_error(capsys, argv, "n_grid entries must be >= 1, got 0")
        assert not (tmp_path / "r.csv").exists()

    @pytest.fixture
    def csv_files(self, tmp_path):
        rng = np.random.default_rng(6)
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(x, rng.normal(size=(300, 2)), delimiter=",")
        np.savetxt(y, rng.normal(0.5, 1.0, size=(300, 2)), delimiter=",")
        return ["--scenario", "csv", "--x", str(x), "--y", str(y)]

    def test_csv_negative_seed_exit_2(self, capsys, tmp_path, csv_files):
        out = tmp_path / "r.csv"
        argv = ["bench", *csv_files, "--seed", "-1", "--n-grid", "50", "--trials", "2",
                "--methods", "knn:1", "--out", str(out)]
        assert_usage_error(capsys, argv, "2**127")
        assert not out.exists()

    def test_csv_wnn_ignores_dims(self, capsys, tmp_path, csv_files):
        # --dims sets the synthetic scenarios only: a csv plan solves its wnn
        # weights at the dimension of its files.
        outs = [tmp_path / f"r{d}.csv" for d in (1, 2)]
        for d, out in zip((1, 2), outs):
            assert main(["bench", *csv_files, "--dims", str(d), "--n-grid", "200",
                         "--trials", "3", "--methods", "wnn,knn:4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_duplicate_labels_exit_2(self, capsys, bench_argv):
        argv = bench_argv[:]
        argv[argv.index("--methods") + 1] = "wnn,wnn:1|2"
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "duplicate" in json.loads(err)["message"]
