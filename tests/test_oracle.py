import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from hpdiv import (
    DimTooHigh,
    HPDivError,
    InvalidP,
    RefinementCapWarning,
    bayes_bounds,
    bench,
    true_divergence,
    truncated_normal,
    oracle,
    uniform_box,
)

from oracles import (
    points_density,
    points_divergence,
    points_mass,
    quad_bayes_error_1d,
    quad_divergence_1d,
)

# frozen by adaptive Gauss-Kronrod quadrature over the analytic truncated
# densities: TruncNormal(0,1,[-5,5]) vs TruncNormal(1,1,[-5,5]) at p = 1/2
D_SHIFT_1D = 0.2040420025082429


def tnorm_pdf(mu, s2, lo, hi):
    z = norm.cdf((hi - mu) / math.sqrt(s2)) - norm.cdf((lo - mu) / math.sqrt(s2))
    return lambda t: (
        norm.pdf(t, mu, math.sqrt(s2)) / z if lo <= t <= hi else 0.0
    )


class TestDensity:
    """The integrand's per-spec density, on nodes inside the box."""

    def test_uniform_volume(self):
        u = uniform_box([(-5, 5), (-5, 5)])
        assert u._on_grid(np.ix_([0.0, 1.0], [0.0, 2.0, 3.0])).tolist() == [[1 / 100] * 3] * 2

    def test_gaussian_ratio_cancels_normalizer(self):
        f = truncated_normal([0.0], 1.0, (-5, 5))
        at_0, at_1 = f._on_grid((np.array([0.0, 1.0]),))
        assert at_0 / at_1 == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_integrates_to_one(self):
        f = truncated_normal([0.0, 0.5], [1.0, 2.0], (-4, 4))
        grid = np.linspace(-4, 4, 501)
        vals = f._on_grid(np.ix_(grid, grid))
        h = grid[1] - grid[0]
        w = np.full(501, h)
        w[0] = w[-1] = h / 2
        assert w @ vals @ w == pytest.approx(1.0, abs=1e-6)


class TestTrueDivergence:
    def test_rejects_specs_of_two_dimensions(self):
        with pytest.raises(HPDivError, match="ambient dimension"):
            true_divergence(uniform_box((0.0, 1.0)), uniform_box([[0.0, 1.0]] * 2), 0.5)

    def test_identical_specs_zero(self):
        f = truncated_normal([0.0], 1.0, (-5, 5))
        assert true_divergence(f, f, 0.5) == pytest.approx(0.0, abs=2e-6)

    @pytest.mark.parametrize("fx, fy", [
        (uniform_box((0.0, 1.0)), uniform_box((2.0, 3.0))),
        (
            truncated_normal(np.zeros(3), 1.0, (-5, 5)),
            uniform_box([(-5.0, 5.0), (-5.0, 5.0), (-5.0, 4.0)]),
        ),
    ], ids=["1d-disjoint", "3d"])
    def test_rejects_specs_on_two_boxes(self, fx, fy):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HPDivError, match="specs must share one box"):
                true_divergence(fx, fy, 0.5)

    def test_identical_uniforms_zero(self):
        u = uniform_box([(-1.0, 2.0), (0.5, 4.0)])
        assert true_divergence(u, u, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_shift_value(self):
        fx = truncated_normal([0.0], 1.0, (-5, 5))
        fy = truncated_normal([1.0], 1.0, (-5, 5))
        assert true_divergence(fx, fy, 0.5) == pytest.approx(D_SHIFT_1D, abs=1e-6)

    def test_matches_adaptive_quadrature_other_p(self):
        fx = truncated_normal([0.0], 1.0, (-5, 5))
        fy = truncated_normal([1.0], 2.0, (-5, 5))
        for p in (0.3, 0.5, 0.7):
            oracle = quad_divergence_1d(
                tnorm_pdf(0.0, 1.0, -5, 5), tnorm_pdf(1.0, 2.0, -5, 5), p, -5, 5
            )
            assert true_divergence(fx, fy, p) == pytest.approx(oracle, abs=1e-6)

    def test_symmetric_at_half(self):
        fx = truncated_normal([0.0, 0.0], 1.0, (-5, 5))
        fy = truncated_normal([1.0, 0.0], 2.0, (-5, 5))
        a = true_divergence(fx, fy, 0.5)
        b = true_divergence(fy, fx, 0.5)
        assert a == pytest.approx(b, abs=1e-9)
        assert 0.0 <= a <= 1.0

    def test_dim_cap(self):
        f = truncated_normal(np.zeros(4), 1.0, (-5, 5))
        with pytest.raises(DimTooHigh):
            true_divergence(f, f, 0.5)

    def test_3d_identical_and_disjoint(self, coarse_grids):
        f = truncated_normal(np.zeros(3), 1.0, (-3, 3))
        # Doubling from 11 nodes stops at the coarse 3-D cap of 81, short of
        # _REFINE_TOL.
        with pytest.warns(RefinementCapWarning, match="cap of 81 nodes"):
            assert true_divergence(f, f, 0.5) == pytest.approx(0.0, abs=5e-4)
        a = uniform_box([(0.0, 1.0)] * 3)
        b = uniform_box([(2.0, 3.0), (0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(HPDivError, match="one box"):
            true_divergence(a, b, 0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_p_outside_unit_interval(self, p):
        f = truncated_normal([0.0], 1.0, (-5, 5))
        with pytest.raises(InvalidP):
            true_divergence(f, f, p)


class TestSpecValidation:
    @pytest.mark.parametrize("make", [
        lambda: uniform_box(np.empty((0, 2))),
        lambda: truncated_normal(np.empty(0), 1.0, np.empty((0, 2))),
    ])
    def test_rejects_zero_dimensional_box(self, make):
        with pytest.raises(HPDivError, match="d >= 1"):
            make()

    @pytest.mark.parametrize("mean,cov", [
        ([np.nan, 0.0], 1.0),
        ([np.inf, 0.0], 1.0),
        ([0.0, 0.0], np.inf),
        ([0.0, 0.0], [1.0, np.nan]),
        ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
    ])
    def test_rejects_non_finite_mean_or_covariance(self, mean, cov):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HPDivError, match="finite"):
                truncated_normal(mean, cov, (-5, 5))

    @pytest.mark.parametrize("make, match", [
        (lambda: uniform_box([[0.0, 1.0], [2.0, 2.0]]), "lower < upper"),
        (lambda: uniform_box([[1.0, 0.0]]), "lower < upper"),
        (lambda: truncated_normal([0.0, 0.0, 0.0], 1.0, [[-5.0, 5.0]] * 2), "mean length"),
        (lambda: truncated_normal([0.0, 0.0], [1.0, 0.0], (-5, 5)), "covariance must be positive"),
        (lambda: oracle.DistributionSpec("cauchy", [[0.0, 1.0]]), "unknown distribution kind"),
        (lambda: uniform_box([0.0, 1.0, 2.0]), "box must have shape"),
        (lambda: truncated_normal([0.0, 0.0], [1.0, 2.0, 3.0], (-5, 5)),
         "covariance length must match mean length"),
    ])
    def test_rejects_malformed_spec(self, make, match):
        with pytest.raises(HPDivError, match=match):
            make()

    def test_equality(self):
        box = uniform_box([[0.0, 1.0], [0.0, 2.0]])
        assert box == uniform_box([[0.0, 1.0], [0.0, 2.0]])
        assert box != uniform_box([[0.0, 1.0], [0.0, 3.0]])
        assert box.__eq__("box") is NotImplemented and box != "box"

    def test_rejects_full_covariance(self):
        with pytest.raises(HPDivError, match="per-axis variances"):
            truncated_normal([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]], (-5, 5))


def _specs(d: int) -> dict:
    """Truncated normal and uniform specs; "odd" and "odd_unif" share an
    asymmetric box, every other spec the box (-5, 5) per axis."""
    odd_box = np.column_stack([np.linspace(-3, -2, d), np.linspace(2.5, 4, d)])
    return {
        "diag": truncated_normal(np.zeros(d), 1.0, (-5, 5)),
        "diag2": truncated_normal(np.arange(d) * 0.3 + 0.5, np.linspace(0.7, 2.0, d), (-5, 5)),
        "own": truncated_normal(np.full(d, 0.1), np.linspace(1.2, 0.9, d), (-5, 5)),
        "unif": uniform_box(np.tile([-5.0, 5.0], (d, 1))),
        "odd": truncated_normal(np.full(d, 0.2), np.linspace(1.3, 0.6, d), odd_box),
        "odd_unif": uniform_box(odd_box),
    }


# normal x normal, normal x uniform, normal x uniform on the odd box, uniform x uniform
_PAIRS = [("diag", "diag2"), ("diag", "unif"), ("odd", "odd_unif"), ("unif", "unif")]


# The coarse caps stop many refinements short of _REFINE_TOL; the tests
# that use them compare bytes with the reference at the same caps, and
# TestRefinementCap checks the warning itself.
coarse_cap_warnings = pytest.mark.filterwarnings("ignore::hpdiv.RefinementCapWarning")


@pytest.fixture
def coarse_grids(monkeypatch):
    """Start grids and caps small enough for the point-array reference at
    d = 2, 3; d = 1 keeps its own. Specs built under it take their masses
    on these grids too."""
    monkeypatch.setattr(oracle, "_GRID_START", {1: 2001, 2: 41, 3: 11})
    monkeypatch.setattr(oracle, "_GRID_CAP", {1: 32001, 2: 321, 3: 81})


class TestMatchesPointArrays:
    """The per-axis grid evaluation gives the point-array quadrature's bytes."""

    @coarse_cap_warnings
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_masses_and_densities(self, coarse_grids, d):
        rng = np.random.default_rng(d)
        for spec in _specs(d).values():
            assert spec._mass == points_mass(spec)
            pts = rng.uniform(spec.box[:, 0], spec.box[:, 1], size=(500, d))
            np.testing.assert_array_equal(
                spec._on_grid(tuple(pts.T)), points_density(spec, pts, spec._mass)
            )

    @coarse_cap_warnings
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.73])
    @pytest.mark.parametrize("pair", _PAIRS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_true_divergence(self, coarse_grids, d, pair, p):
        specs = _specs(d)
        fx, fy = specs[pair[0]], specs[pair[1]]
        assert true_divergence(fx, fy, p) == points_divergence(fx, fy, p)

    def test_default_grids_on_the_bench_pair(self):
        fx = truncated_normal(np.zeros(2), 1.0, (-5, 5))
        fy = truncated_normal([1.0, 0.0], 1.0, (-5, 5))
        assert true_divergence(fx, fy, 0.5) == points_divergence(fx, fy, 0.5)

    @coarse_cap_warnings
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_many_slabs(self, coarse_grids, monkeypatch, d):
        whole = true_divergence(_specs(d)["diag"], _specs(d)["own"], 0.4)
        monkeypatch.setattr(oracle, "_SLAB", 1000)  # 2 to 41 slabs per grid
        specs = _specs(d)  # masses on the same slabs as the reference's
        fx, fy = specs["diag"], specs["own"]
        got = true_divergence(fx, fy, 0.4)
        assert got == points_divergence(fx, fy, 0.4)
        assert got == pytest.approx(whole, abs=1e-12)

    @coarse_cap_warnings
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("slab", [None, 1000])
    @pytest.mark.parametrize("piece", [1, 7, 5000])
    def test_many_pieces(self, coarse_grids, monkeypatch, piece, slab, d):
        """Pieces of whole planes, runs of lines and runs of points fill the
        slabs with the point-array values, so every sum sees the same bytes."""
        if piece < 100:
            # one integrand call per point or per 7 points: smaller grids,
            # which still cross slabs at _SLAB = 1000 for d < 3
            monkeypatch.setattr(oracle, "_GRID_START", {1: 513, 2: 17, 3: 5})
            monkeypatch.setattr(oracle, "_GRID_CAP", {1: 1025, 2: 33, 3: 9})
        monkeypatch.setattr(oracle, "_PIECE", piece)
        if slab is not None:
            monkeypatch.setattr(oracle, "_SLAB", slab)
        specs = _specs(d)
        for a, b in [("diag", "own"), *_PAIRS]:
            fx, fy = specs[a], specs[b]
            assert true_divergence(fx, fy, 0.4) == points_divergence(fx, fy, 0.4), (a, b)


class TestWorkingSet:
    """One value buffer per grid, filled in pieces, bounds a truth's memory."""

    @pytest.mark.parametrize("d,limit_mb", [(2, 8), (3, 40)])
    def test_default_grid_truth_peak(self, d, limit_mb):
        plan = bench.ExperimentPlan(
            bench.SCENARIO_GAUSS_SHIFT, d, (100,), tuple(bench.parse_methods("knn:1")), 2
        )
        fx, fy = bench.scenario_specs(plan)
        tracemalloc.start()
        try:
            true_divergence(fx, fy, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 2**20

class TestRefinementCap:
    """Refinement that reaches its grid cap unconverged says so."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "scenario", [bench.SCENARIO_GAUSS_SHIFT, bench.SCENARIO_GAUSS_SCALE, bench.SCENARIO_GAUSS_VS_UNIFORM]
    )
    def test_bench_scenarios_converge(self, scenario, d):
        plan = bench.ExperimentPlan(scenario, d, (100,), tuple(bench.parse_methods("knn:1")), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RefinementCapWarning)
            assert 0.0 < bench.resolve_truth(plan) < 1.0


class TestBayesBounds:
    def test_indistinguishable(self):
        b = bayes_bounds(0.0, 0.5)
        assert (b.lower, b.upper) == (0.5, 0.5)

    def test_separable(self):
        b = bayes_bounds(1.0, 0.5)
        assert (b.lower, b.upper) == (0.0, 0.0)

    def test_quarter(self):
        b = bayes_bounds(0.25, 0.5)
        assert b.lower == pytest.approx(0.25)
        assert b.upper == pytest.approx(0.375)

    def test_clamps_raw_estimates(self):
        assert bayes_bounds(-0.7, 0.5).lower == 0.5
        assert bayes_bounds(1.4, 0.5).upper == 0.0

    def test_other_p(self):
        # u = 4 (0.4)(0.6)(0.3) + 0.2^2 = 0.328
        b = bayes_bounds(0.3, 0.4)
        assert b.lower == pytest.approx((1 - math.sqrt(0.328)) / 2, rel=1e-12)
        assert b.upper == pytest.approx((1 - 0.328) / 2, rel=1e-12)
        assert b.p == 0.4

    @pytest.mark.parametrize("p", [0.2, 0.8])
    def test_upper_capped_by_smaller_prior(self, p):
        # At D = 0 the raw upper bound (1 - u)/2 = 0.32 exceeds the error 0.2.
        b = bayes_bounds(0.0, p)
        assert b.upper == min(p, 1 - p)
        assert b.lower == pytest.approx(0.2, abs=1e-15)
        assert (bayes_bounds(1.0, p).lower, bayes_bounds(1.0, p).upper) == (0.0, 0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(InvalidP):
            bayes_bounds(0.3, p)

    def test_rejects_nan_divergence(self):
        with pytest.raises(HPDivError, match="nan"):
            bayes_bounds(float("nan"), 0.5)

    @pytest.mark.parametrize("lower, upper", [(0.3, 0.2), (0.0, 0.6)])
    def test_direct_construction_checked(self, lower, upper):
        # Upper below lower, or above min(p, 1 - p).
        with pytest.raises(HPDivError, match="invalid bounds"):
            oracle.BayesBounds(lower=lower, upper=upper, p=0.5)

    def test_infinite_divergence_clamps(self):
        assert bayes_bounds(float("inf"), 0.5) == bayes_bounds(1.0, 0.5)
        assert bayes_bounds(float("-inf"), 0.5) == bayes_bounds(0.0, 0.5)

    @pytest.mark.parametrize("d", np.linspace(0, 1, 11).tolist())
    def test_ordering(self, d):
        b = bayes_bounds(d, 0.5)
        assert 0.0 <= b.lower <= b.upper <= 0.5
        assert (b.lower, b.upper) == ((1.0 - math.sqrt(d)) / 2.0, (1.0 - d) / 2.0)
        for p in (0.05, 0.2, 0.4, 0.73):
            b = bayes_bounds(d, p)
            assert 0.0 <= b.lower <= b.upper <= min(p, 1 - p)

    @pytest.mark.parametrize("mu,s2", [(1.0, 1.0), (0.5, 1.0), (1.5, 2.0)])
    def test_sandwich_on_gaussian_pairs(self, mu, s2):
        """True Bayes error must land inside the divergence-derived bracket."""
        fx_pdf = tnorm_pdf(0.0, 1.0, -5, 5)
        fy_pdf = tnorm_pdf(mu, s2, -5, 5)
        err = quad_bayes_error_1d(fx_pdf, fy_pdf, -5, 5)
        fx = truncated_normal([0.0], 1.0, (-5, 5))
        fy = truncated_normal([mu], s2, (-5, 5))
        b = bayes_bounds(true_divergence(fx, fy, 0.5), 0.5)
        assert b.lower - 1e-9 <= err <= b.upper + 1e-9

    @pytest.mark.parametrize("p", [0.2, 0.4])
    @pytest.mark.parametrize("mu,s2", [(0.0, 1.0), (1.0, 1.0), (0.5, 1.0), (1.5, 2.0)])
    def test_sandwich_at_other_p(self, mu, s2, p):
        fx_pdf = tnorm_pdf(0.0, 1.0, -5, 5)
        fy_pdf = tnorm_pdf(mu, s2, -5, 5)
        err = quad_bayes_error_1d(fx_pdf, fy_pdf, -5, 5, p)
        fx = truncated_normal([0.0], 1.0, (-5, 5))
        fy = truncated_normal([mu], s2, (-5, 5))
        b = bayes_bounds(true_divergence(fx, fy, p), p)
        assert b.lower - 1e-9 <= err <= b.upper + 1e-9
