"""Pinned output bytes: bench CSVs, estimate stdout, gen files and truths.

Every kept output must stay byte-identical across refactors and speedups.
A change that alters outputs on purpose updates these pins and says so in
CHANGES.md.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import warnings

import pytest

import hpdiv
from hpdiv import bench, default_l_values, solve_weights, true_divergence
from hpdiv.cli import main


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli(capsys, argv) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    return capsys.readouterr().out


def gen_pair(tmp_path, capsys, dim):
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    zeros = ",0" * (dim - 1)
    sigma = "1,1.5" + ",1" * (dim - 2) if dim > 1 else "1.5"
    cli(capsys, ["gen", "--dist", "tnorm", "--dim", str(dim), "--n", "300", "--seed", "3",
                 "--out", str(x)])
    cli(capsys, ["gen", "--dist", "tnorm", "--dim", str(dim), "--n", "300", "--seed", "4",
                 "--mean", "0.5" + zeros, "--sigma", sigma, "--out", str(y)])
    return str(x), str(y)


@pytest.fixture
def gen_files(tmp_path, capsys):
    return gen_pair(tmp_path, capsys, 2)


GEN_X = "dc2e66f304d971da2458f6c86d08a707711957a86ca17de8e473a5444e510dc8"
BENCH_ABORTS = [
    "cell wnn @ n=64 aborted: K(l)=floor(l*sqrt(N)) must be >= 1; l=0.1 gives 0 at N=64",
    "cell knn:300 @ n=64 aborted: ranks must lie in [1, 127], got 300..300",
    "cell knn:300 @ n=128 aborted: ranks must lie in [1, 255], got 300..300",
]
BENCH_CSV = "8ca25f403887981624751f811722711b1a526348b2a6b77b5a25db75a96398b2"
# the csv scenario on the gen files at p = 1/2, where floor(n q / p) = n
BENCH_CSV_FILES = "e332fe09fd76c9cfe251f31046877800cb3ad5ebd1aa7c0977e38bef4ea9b8eb"
# the csv scenario on the 1-D gen files: resampled rows repeat values
BENCH_CSV_FILES_1D = "7e2b04407e101096896a6d0ed7b4f4a78621bd6c300d68565239077cdf2e76d7"
ESTIMATE = {
    "knn": "9b616ec38e15ee3f88e7855457eeeab610a7806ac2cdeb7b5d2a31e09147cc03",
    "wnn": "69bc826d06cd593fe73e33ce23f63265c0d908b1224486d69ecb034ad6c794e3",
    "mst": "eda006f65270953251c204ae5770120ddc1ea556206eda9689faa1cba6c41e0b",
}
# mst on the 3-D files, taken while d = 3 still ran Prim.
ESTIMATE_MST_3D = "35954bad85fb09937bf33862c84d06c27e9e0e93fd09e3039f20ce3ebd69a157"
# wnn on the 3-D files, on the default d = 3 grid less l = 0.05 (K = 0 at N = 300)
ESTIMATE_WNN_3D = "3204a588a537c815532878b64d2a8a9834e71613de54eb1f8ea46d7992302d30"
# repr of the truths of each synthetic bench scenario at p = 1/2 and d in
# TRUTH_DIMS; gauss-shift differs on axis 0 alone, so its truth is the d = 1
# value at every d
TRUTH_DIMS = (1, 2, 3, 4, 6)
TRUTH = {
    bench.SCENARIO_GAUSS_SHIFT: ("0.2040420024018691",) * 5,
    bench.SCENARIO_GAUSS_SCALE: ("0.17104674355342397", "0.21147629490340725", "0.2491935174799056",
                                 "0.28444818381975767", "0.3484599957584099"),
    bench.SCENARIO_GAUSS_VS_UNIFORM: ("0.3994379200255388", "0.6445959598776083", "0.7843914863516231",
                                      "0.8661185738133585", "0.9459223213491736"),
}
# gauss-scale at d = 4 and p = 0.2: with numpy's exp in place of math.exp
# per node, numpy's AVX-512 exp moved it by 4 ulps against its X86_V2 and
# X86_V3 paths
TRUTH_SCALE_4D_P02 = "0.18463888928907468"


def test_gen_file(gen_files):
    with open(gen_files[0], "rb") as fh:
        assert sha256(fh.read()) == GEN_X


@pytest.mark.parametrize("method", ["knn", "wnn", "mst"])
def test_estimate_stdout(capsys, monkeypatch, gen_files, method):
    x, y = gen_files
    extra = ["--k", "4"] if method == "knn" else []
    for threads in ("1", "2"):
        monkeypatch.setenv("HPDIV_THREADS", threads)
        out = cli(capsys, ["estimate", "--method", method, *extra, "--x", x, "--y", y])
        assert sha256(out.encode()) == ESTIMATE[method], f"HPDIV_THREADS={threads}"


def test_estimate_mst_3d_stdout(tmp_path, capsys):
    x, y = gen_pair(tmp_path, capsys, 3)
    out = cli(capsys, ["estimate", "--method", "mst", "--x", x, "--y", y])
    assert sha256(out.encode()) == ESTIMATE_MST_3D


def test_estimate_wnn_3d_stdout(tmp_path, capsys):
    x, y = gen_pair(tmp_path, capsys, 3)
    l_values = ",".join(map(repr, default_l_values(3)[1:].tolist()))
    out = cli(capsys, ["estimate", "--method", "wnn", "--l-values", l_values, "--x", x, "--y", y])
    assert sha256(out.encode()) == ESTIMATE_WNN_3D


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bench_csv(tmp_path, capsys, monkeypatch, threads):
    # The default d=2 wnn grid floors K(0.1) to 0 at n=64, and knn:300 runs
    # only where |Z| - 1 >= 300, so three cells abort.
    monkeypatch.setenv("HPDIV_THREADS", threads)
    out = tmp_path / "bench.csv"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["bench", "--scenario", "gauss-shift", "--dims", "2",
                     "--n-grid", "64,128,256", "--trials", "4", "--seed", "5",
                     "--methods", "knn:5,wnn,mst,const:0.5,knn:300",
                     "--out", str(out)]) == 0
    assert [str(w.message) for w in seen] == BENCH_ABORTS
    assert all(w.category is bench.CellErrorWarning for w in seen)
    assert sha256(out.read_bytes()) == BENCH_CSV


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bench_csv_files(tmp_path, capsys, monkeypatch, gen_files, threads):
    monkeypatch.setenv("HPDIV_THREADS", threads)
    x, y = gen_files
    out = tmp_path / "bench.csv"
    cli(capsys, ["bench", "--scenario", "csv", "--x", x, "--y", y, "--n-grid", "50,100",
                 "--trials", "4", "--seed", "5", "--methods", "knn:3,wnn:1|2|3,mst",
                 "--out", str(out)])
    assert sha256(out.read_bytes()) == BENCH_CSV_FILES


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bench_csv_files_1d(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("HPDIV_THREADS", threads)
    x, y = gen_pair(tmp_path, capsys, 1)
    out = tmp_path / "bench.csv"
    cli(capsys, ["bench", "--scenario", "csv", "--x", x, "--y", y, "--n-grid", "50,200",
                 "--trials", "4", "--seed", "5", "--methods", "knn:3,mst", "--out", str(out)])
    assert sha256(out.read_bytes()) == BENCH_CSV_FILES_1D


def truth_repr(scenario, d, p=0.5):
    plan = bench.ExperimentPlan(scenario, d, (100,), tuple(bench.parse_methods("knn:1")), 2)
    return repr(true_divergence(*bench.scenario_specs(plan), p))


def truth_reprs() -> dict:
    reprs = {scenario: [truth_repr(scenario, d) for d in TRUTH_DIMS] for scenario in TRUTH}
    return {**reprs, "gauss-scale d=4 p=0.2": truth_repr(bench.SCENARIO_GAUSS_SCALE, 4, 0.2)}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_gauss_shift_truth(d):
    assert truth_repr(bench.SCENARIO_GAUSS_SHIFT, d) == TRUTH[bench.SCENARIO_GAUSS_SHIFT][0]


@pytest.mark.parametrize("d", TRUTH_DIMS)
@pytest.mark.parametrize("scenario", [bench.SCENARIO_GAUSS_SCALE, bench.SCENARIO_GAUSS_VS_UNIFORM])
def test_scale_and_uniform_truths(scenario, d):
    assert truth_repr(scenario, d) == TRUTH[scenario][TRUTH_DIMS.index(d)]


def test_scale_truth_at_other_p():
    assert truth_repr(bench.SCENARIO_GAUSS_SCALE, 4, 0.2) == TRUTH_SCALE_4D_P02


def weight_hexes() -> list:
    """The default weights for d = 1..5, as float.hex strings."""
    return [[w.hex() for w in solve_weights(default_l_values(d), d).tolist()] for d in range(1, 6)]


def on_baseline_kernel(call: str):
    """``call`` (a function of this module) decoded from JSON, run in a fresh
    process on OpenBLAS's oldest x86-64 kernel with numpy's SIMD held to its
    baseline; both settings are read once, at import."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(hpdiv.__file__))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, here]),
        "OPENBLAS_CORETYPE": "Prescott",
        "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    }
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, test_golden; print(json.dumps(test_golden.{call}()))"],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


x86_64 = pytest.mark.skipif(
    platform.machine().lower() not in {"x86_64", "amd64"},
    reason="names x86-64 OpenBLAS kernels and numpy CPU features",
)


@x86_64
def test_truths_do_not_depend_on_the_blas_kernel():
    expected = {scenario: list(r) for scenario, r in TRUTH.items()}
    assert on_baseline_kernel("truth_reprs") == {**expected, "gauss-scale d=4 p=0.2": TRUTH_SCALE_4D_P02}


@x86_64
def test_weights_do_not_depend_on_the_blas_kernel():
    """The default weights take no LAPACK path and no SIMD power."""
    assert on_baseline_kernel("weight_hexes") == weight_hexes()
