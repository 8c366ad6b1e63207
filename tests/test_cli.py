import json
import warnings

import numpy as np
import pytest

from hpdiv import neighbors
from hpdiv.cli import main


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


def assert_usage_error(capsys, argv, match):
    """Exit 2, nothing on stdout, one JSON line on stderr, no warnings."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv)
    assert (code, out, seen) == (2, "", [])
    assert len(err.splitlines()) == 1
    assert match in json.loads(err)["message"]


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
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--method", "mst", "--x", x, "--y", y, "--data", str(data)])
        assert exc.value.code == 2

    def test_missing_inputs_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--method", "mst"])
        assert exc.value.code == 2


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


class TestWeights:
    def test_forced_solution(self, capsys):
        code, out, _ = run_cli(capsys, ["weights", "--d", "1", "--l-values", "1,2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"] == [2.0, -1.0]
        assert payload["residual"] <= 1e-9
        assert payload["k_values"] is None

    def test_with_n(self, capsys):
        code, out, _ = run_cli(
            capsys, ["weights", "--d", "1", "--l-values", "1,2", "--n", "100"]
        )
        assert json.loads(out)["k_values"] == [10, 20]

    def test_malformed_l_values_exit_2(self, capsys):
        code, out, err = run_cli(capsys, ["weights", "--d", "1", "--l-values", "1,x"])
        assert code == 2 and out == ""
        assert "--l-values" in json.loads(err)["message"]

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
    ])
    def test_degenerate_spec_exit_2(self, capsys, tmp_path, flags, match):
        out = tmp_path / "never.csv"
        assert_usage_error(capsys, ["gen", *flags, "--n", "5", "--out", str(out)], match)
        assert not out.exists()


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

    def test_malformed_thread_count_exit_2(self, capsys, monkeypatch, bench_argv, tmp_path):
        monkeypatch.setenv("HPDIV_THREADS", "x")
        code, out, err = run_cli(capsys, bench_argv)
        assert code == 2 and out == ""
        assert "HPDIV_THREADS" in json.loads(err)["message"]
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag,value,match", [
        ("--dims", "0", "dims"),
        ("--dims", "-1", "dims"),
        ("--shift", "nan", "finite"),
        ("--shift", "inf", "finite"),
        ("--shift", "-inf", "finite"),
    ])
    def test_degenerate_plan_exit_2(self, capsys, tmp_path, bench_argv, flag, value, match):
        argv = bench_argv[:]
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [f"{flag}={value}"]
        assert_usage_error(capsys, argv, match)
        assert not (tmp_path / "r.csv").exists()

    def test_duplicate_labels_exit_2(self, capsys, bench_argv):
        argv = bench_argv[:]
        argv[argv.index("--methods") + 1] = "wnn,wnn:1|2"
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "duplicate" in json.loads(err)["message"]
