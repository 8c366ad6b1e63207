import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy.stats import norm

from hpdiv import (
    HPDivError,
    InvalidP,
    RefinementCapWarning,
    bayes_bounds,
    bench,
    synth,
    true_divergence,
    truncated_normal,
    oracle,
    uniform_box,
)

import oracles
from oracles import (
    GRID_TOL,
    grid_density,
    grid_divergences,
    grid_mass,
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


@pytest.fixture
def law_calls(monkeypatch):
    """The (j, n) of every per-axis law a truth builds, in order."""
    calls = []
    real = oracle._axis_law
    monkeypatch.setattr(oracle, "_axis_law", lambda fx, fy, j, n: calls.append((j, n)) or real(fx, fy, j, n))
    return calls


class TestDensity:
    """An axis's law: X-masses from the trapezoid weights and the X factor
    normalized on the nodes, at the closed-form log density ratio."""

    def test_uniform_volume(self):
        # a uniform X: masses are the trapezoid weights over the width; against
        # it phi is the Y exponent plus a constant
        u = uniform_box([(-5, 5), (-2, 2)])
        f = truncated_normal([0.0, 0.5], [1.0, 2.0], u.box)
        phi, mass = oracle._axis_law(u, f, 1, 401)
        assert mass[1:-1] == pytest.approx(np.full(399, 1 / 400), rel=1e-13)
        assert mass[0] == mass[-1] == pytest.approx(1 / 800, rel=1e-13)
        x = np.linspace(-2, 2, 401)
        shifted = phi + 0.25 * (x - 0.5) ** 2
        assert shifted == pytest.approx(np.full(401, shifted[0]), abs=1e-13)

    def test_gaussian_ratio_cancels_normalizer(self):
        # phi(x) - phi(0) of N(0, 1) against N(1, 2) is the difference of the
        # two exponents: the normalizers cancel
        f = truncated_normal([0.0], 1.0, (-5, 5))
        g = truncated_normal([1.0], 2.0, (-5, 5))
        phi, _ = oracle._axis_law(f, g, 0, 2001)
        x = np.linspace(-5, 5, 2001)
        quad = -0.25 * (x - 1.0) ** 2 + 0.5 * x * x
        assert phi - phi[1000] == pytest.approx(quad - quad[1000], abs=1e-12)

    def test_integrates_to_one(self):
        # each axis's masses sum to 1, for either spec as X
        specs = _specs(3)
        for a, b in [("diag", "diag2"), ("odd", "odd_unif"), ("unif", "own")]:
            for fx, fy in [(specs[a], specs[b]), (specs[b], specs[a])]:
                for j in range(3):
                    _, mass = oracle._axis_law(fx, fy, j, 4001)
                    assert math.fsum(mass) == pytest.approx(1.0, abs=1e-14)
                    assert (mass >= 0).all()

    def test_underflowed_nodes_leave(self):
        # N(0, 0.01) on [-5, 5]: exp underflows to 0 past |x| ~ 3.86, and those
        # nodes, which add nothing to E[g(S)], leave the law
        fx = truncated_normal([0.0, 0.0], 0.01, (-5, 5))
        fy = truncated_normal([1.0, 1.0], 0.01, (-5, 5))
        phi, mass = oracle._axis_law(fx, fy, 0, oracle._NODES)
        assert len(phi) == len(mass) < oracle._NODES
        assert (mass > 0).all()
        assert math.fsum(mass) == pytest.approx(1.0, abs=1e-14)


class TestLaw:
    """Binning, clipping and convolution of the laws keep their mass."""

    def test_binned_keeps_mass_and_mean(self):
        rng = np.random.default_rng(3)
        phi, mass = rng.normal(size=500), rng.random(500)
        mass /= mass.sum()
        mean = math.fsum(phi * mass)
        base, bins = oracle._binned(phi.copy(), mass.copy(), 0.03)
        assert base == phi.min()
        assert math.fsum(bins) == pytest.approx(1.0, abs=1e-15)
        at = base + np.arange(len(bins)) * 0.03
        assert math.fsum(bins * at) == pytest.approx(mean, abs=1e-14)

    def test_clipped_keeps_mass(self):
        bins = np.arange(1.0, 11.0)
        base, kept = oracle._clipped(-1.0, bins, 0.2, 1.6, 0.5)  # bins at -1, -0.5, ..., 3.5
        assert base == 0.5 and kept.tolist() == [1 + 2 + 3 + 4, 5, 6 + 7 + 8 + 9 + 10]
        assert oracle._clipped(-1.0, bins, -9.0, 9.0, 0.5)[1].tolist() == bins.tolist()
        # a window past either end keeps one bin with all the mass
        assert oracle._clipped(-1.0, bins, 7.0, 90.0, 0.5) == (3.5, pytest.approx([55.0]))
        assert oracle._clipped(-1.0, bins, -90.0, -7.0, 0.5) == (-1.0, pytest.approx([55.0]))

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 9), (7, 3), (300, 1000)])
    def test_convolve_is_the_full_convolution(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        a, b = rng.random(sizes[0]), rng.random(sizes[1])
        np.testing.assert_allclose(oracle._convolve(a, b), np.convolve(a, b), rtol=1e-13)
        assert oracle._convolve(a, b).tobytes() == oracle._convolve(b, a).tobytes()


class TestTrueDivergence:
    def test_rejects_specs_of_two_dimensions(self):
        with pytest.raises(HPDivError, match="ambient dimension"):
            true_divergence(uniform_box((0.0, 1.0)), uniform_box([[0.0, 1.0]] * 2), 0.5)

    def test_identical_specs_zero(self, law_calls):
        # No axis differs, so nothing is integrated, at any dimension.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (1, 3, 10):
                f = truncated_normal(np.zeros(d), 1.0, (-5, 5))
                assert true_divergence(f, truncated_normal(np.zeros(d), 1.0, (-5, 5)), 0.3) == 0.0
                assert true_divergence(f, f, 0.5) == 0.0
        assert law_calls == []

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_shared_axes_integrate_to_one(self, d):
        # Specs that differ on axis 0 alone have the 1-D pair's truth, bytes and all.
        one = true_divergence(
            truncated_normal([0.0], 1.0, (-5, 5)), truncated_normal([1.0], 1.5, (-5, 5)), 0.4
        )
        mean, cov = np.linspace(-1, 1, d), np.linspace(0.5, 2.0, d)
        fx = truncated_normal(np.r_[0.0, mean[1:]], np.r_[1.0, cov[1:]], (-5, 5))
        fy = truncated_normal(np.r_[1.0, mean[1:]], np.r_[1.5, cov[1:]], (-5, 5))
        assert true_divergence(fx, fy, 0.4) == one

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

    def test_identical_uniforms_zero(self, law_calls):
        for d in (2, 10):
            u = uniform_box([(-1.0, 2.0), *[(0.5, 4.0)] * (d - 1)])
            assert true_divergence(u, uniform_box(u.box), 0.5) == 0.0
        assert law_calls == []

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
        # each from its own X-law, binned on both axes: equal to the tolerance
        assert a == pytest.approx(b, abs=1e-6)
        assert 0.0 <= a <= 1.0

    def test_any_number_of_differing_axes(self):
        # 4 and 5 differing axes: no cap on their count, and the axis order
        # moves the value by rounding only
        f = truncated_normal(np.zeros(5), 1.0, (-5, 5))
        g = truncated_normal([0.5, 0.5, 0.0, 0.5, 0.5], 1.0, (-5, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            four = true_divergence(f, g, 0.5)
            five = true_divergence(f, uniform_box([(-5.0, 5.0)] * 5), 0.5)
            swapped = true_divergence(f, truncated_normal([0.5, 0.0, 0.5, 0.5, 0.5], 1.0, (-5, 5)), 0.5)
        # four shifts of 0.5 are one shift of 1 along the diagonal, up to the
        # box, which cuts the two pairs differently (about 8e-6 here)
        assert four == pytest.approx(D_SHIFT_1D, abs=2e-5)
        assert swapped == pytest.approx(four, abs=1e-12)
        assert 0.9 < five < 1.0

    def test_3d_identical_and_disjoint(self, monkeypatch):
        f = truncated_normal(np.zeros(3), 1.0, (-3, 3))
        g = truncated_normal(np.full(3, 0.5), 1.0, (-3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert true_divergence(f, truncated_normal(np.zeros(3), 1.0, (-3, 3)), 0.5) == 0.0
        # g differs on all three axes: one doubling, to the lowered cap of
        # 4001 nodes, short of a tolerance nothing meets
        monkeypatch.setattr(oracle, "_NODES_CAP", 4001)
        monkeypatch.setattr(oracle, "_REFINE_TOL", 0.0)
        with pytest.warns(RefinementCapWarning, match="cap of 4001 nodes"):
            assert true_divergence(f, g, 0.5) == pytest.approx(0.1557, abs=5e-4)
        a = uniform_box([(0.0, 1.0)] * 3)
        b = uniform_box([(2.0, 3.0), (0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(HPDivError, match="one box"):
            true_divergence(a, b, 0.5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_p_outside_unit_interval(self, p):
        f = truncated_normal([0.0], 1.0, (-5, 5))
        with pytest.raises(InvalidP):
            true_divergence(f, f, p)

    @pytest.mark.parametrize("d", [1, 3])
    def test_zero_truncation_mass_raises(self, d):
        # N(60, 1) has no mass in [-5, 5] on the last axis: a typed error, not 0/0
        fx = truncated_normal(np.zeros(d), 1.0, (-5, 5))
        fy = truncated_normal(np.r_[np.zeros(d - 1), 60.0], 1.0, (-5, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HPDivError, match=f"truncation mass of axis {d - 1} is 0"):
                true_divergence(fx, fy, 0.5)


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

    def test_rejects_full_covariance(self):
        with pytest.raises(HPDivError, match="per-axis variances"):
            truncated_normal([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]], (-5, 5))


def _specs(d: int) -> dict:
    """Truncated normal and uniform specs; "odd" and "odd_unif" share an
    asymmetric box, every other spec the box (-5, 5) per axis. "shift",
    "ends" and "last" keep the factors of "diag" except on axis 0, on
    axes 0 and d - 1, and on axis d - 1."""
    odd_box = np.column_stack([np.linspace(-3, -2, d), np.linspace(2.5, 4, d)])
    return {
        "diag": truncated_normal(np.zeros(d), 1.0, (-5, 5)),
        "diag2": truncated_normal(np.arange(d) * 0.3 + 0.5, np.linspace(0.7, 2.0, d), (-5, 5)),
        "own": truncated_normal(np.full(d, 0.1), np.linspace(1.2, 0.9, d), (-5, 5)),
        "unif": uniform_box(np.tile([-5.0, 5.0], (d, 1))),
        "odd": truncated_normal(np.full(d, 0.2), np.linspace(1.3, 0.6, d), odd_box),
        "odd_unif": uniform_box(odd_box),
        "shift": truncated_normal(np.r_[1.0, np.zeros(d - 1)], 1.0, (-5, 5)),
        "ends": truncated_normal(np.r_[0.5, np.zeros(d - 1)], np.r_[np.ones(d - 1), 1.5], (-5, 5)),
        "last": truncated_normal(np.zeros(d), np.r_[np.ones(d - 1), 0.6], (-5, 5)),
    }


# normal x normal, normal x uniform, normal x uniform on the odd box, uniform x
# uniform, and normal pairs that share every axis but the ones _differing names
_PAIRS = [
    ("diag", "diag2"), ("diag", "unif"), ("odd", "odd_unif"), ("unif", "unif"),
    ("diag", "shift"), ("diag", "ends"), ("diag", "last"),
]
_PS = (0.2, 0.5, 0.73)


def _differing(pair, d: int) -> list:
    """The axes where the factors of a pair of _specs(d) differ, as built."""
    shared = {("unif", "unif"): [], ("diag", "shift"): [0], ("diag", "last"): [d - 1],
              ("diag", "ends"): sorted({0, d - 1})}
    return shared.get(pair, list(range(d)))


def _marginal(spec, axes):
    """The spec's factors on ``axes`` alone, as a spec of its own."""
    if spec.kind == "uniform":
        return uniform_box(spec.box[axes])
    return truncated_normal(spec.mean[axes], spec.cov[axes], spec.box[axes])


@lru_cache(maxsize=None)
def reference(d: int, pair: tuple) -> dict:
    """p -> (D_p, last change) of the tensor grid over the marginals of a pair
    of _specs(d) on their differing axes, for every p of _PS; (0, 0) with none."""
    axes = _differing(pair, d)
    if not axes:
        return {p: (0.0, 0.0) for p in _PS}
    fx, fy = (_marginal(_specs(d)[name], axes) for name in pair)
    values, changes = grid_divergences(fx, fy, _PS)
    return dict(zip(_PS, zip(values.tolist(), changes.tolist())))


class TestMatchesPointArrays:
    """The law of S against the tensor-grid reference of tests/oracles.py,
    which integrates every axis it is given at once."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_masses_and_densities(self, d):
        # at the first level's nodes: each axis's X-masses sum to 1, and phi
        # is the log of the reference densities' ratio
        specs = _specs(d)
        for pair in _PAIRS:
            fx, fy = specs[pair[0]], specs[pair[1]]
            for j in _differing(pair, d):
                phi, mass = oracle._axis_law(fx, fy, j, oracle._NODES)
                assert math.fsum(mass) == pytest.approx(1.0, abs=1e-14)
                mx, my = (_marginal(s, [j]) for s in (fx, fy))
                mesh = [np.linspace(*fx.box[j], oracle._NODES)]
                log_ratio = np.log(grid_density(my, mesh, grid_mass(my)) / grid_density(mx, mesh, grid_mass(mx)))
                # the same function of x, up to the masses, which the law takes
                # on these nodes and the reference refines to 1e-6
                np.testing.assert_allclose(np.diff(phi), np.diff(log_ratio), rtol=0, atol=1e-12)
                np.testing.assert_allclose(phi, log_ratio, rtol=0, atol=GRID_TOL, err_msg=str(pair))

    @pytest.mark.parametrize("p", _PS)
    @pytest.mark.parametrize("pair", _PAIRS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_true_divergence(self, d, pair, p):
        # within 1e-6 of the reference, or of its last move where it stops at
        # its cap short of 1e-6 (d = 3 on the odd box: moves up to 1.2e-5, and
        # the law is within 4.3e-6 of its last value)
        specs = _specs(d)
        value = true_divergence(specs[pair[0]], specs[pair[1]], p)
        expected, change = reference(d, pair)[p]
        assert value == pytest.approx(expected, abs=max(GRID_TOL, change))
        if not _differing(pair, d):
            assert value == 0.0

    def test_default_grids_on_the_bench_pair(self):
        # gauss-shift differs on axis 0 alone: the 1-D law is summed at its
        # nodes, and the 2-D reference over both axes agrees
        fx = truncated_normal(np.zeros(2), 1.0, (-5, 5))
        fy = truncated_normal([1.0, 0.0], 1.0, (-5, 5))
        value = true_divergence(fx, fy, 0.5)
        assert value == pytest.approx(grid_divergences(fx, fy, [0.5])[0][0], abs=1e-6)
        assert value == pytest.approx(D_SHIFT_1D, abs=1e-9)


    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("piece", [1, 7, 5000])
    def test_many_pieces(self, monkeypatch, piece, d):
        """The reference sums each grid line along the last axis and adds the
        lines with math.fsum: one line per call, a few lines per call or many
        give the same bytes."""
        monkeypatch.setattr(oracles, "GRID_START", {1: 513, 2: 17, 3: 5})
        monkeypatch.setattr(oracles, "GRID_CAP", {1: 1025, 2: 33, 3: 9})
        specs = _specs(d)
        pairs = [(specs[a], specs[b]) for a, b in [("diag", "own"), ("diag", "unif"), ("odd", "odd_unif")]]
        whole = [grid_divergences(fx, fy, _PS) for fx, fy in pairs]
        monkeypatch.setattr(oracles, "_LINE_POINTS", piece)
        for (fx, fy), (values, changes) in zip(pairs, whole):
            got_values, got_changes = grid_divergences(fx, fy, _PS)
            assert got_values.tobytes() == values.tobytes()
            assert got_changes.tobytes() == changes.tobytes()


class TestLazyMass:
    """Building and sampling a spec run no quadrature; a truth builds the law
    of each differing axis once per level, and none of a shared axis."""

    def test_only_the_oracle_integrates(self, law_calls):
        plan = bench.ExperimentPlan(
            bench.SCENARIO_GAUSS_SHIFT, 2, (100,), tuple(bench.parse_methods("knn:1")), 2
        )
        fx, fy = bench.scenario_specs(plan)
        wide = truncated_normal([0.0], 1.0, (-1e300, 1e300))
        for spec in (fx, fy, wide):
            synth.sample(synth.make_state(spec, 0), 50)
        assert law_calls == []
        assert true_divergence(fx, fy, 0.5) == pytest.approx(D_SHIFT_1D, abs=1e-9)
        # axis 0 alone, at 2001 nodes and again at 4001, where it converged
        assert law_calls == [(0, 2001), (0, 4001)]

    def test_axes_with_one_law_share_it(self, law_calls):
        # gauss-scale at d = 4: axis 0 has its own law, axes 1-3 share one
        plan = bench.ExperimentPlan(
            bench.SCENARIO_GAUSS_SCALE, 4, (100,), tuple(bench.parse_methods("knn:1")), 2
        )
        true_divergence(*bench.scenario_specs(plan), 0.5)
        assert {j for j, _ in law_calls} == {0, 1}
        assert [j for j, _ in law_calls] == [0, 1] * (len(law_calls) // 2)


class TestWorkingSet:
    """A truth holds per-node arrays of one axis at a time, and small binned
    laws for the rest; no grid-sized buffer is held."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_default_grid_truth_peak(self, d):
        # gauss-scale differs on every axis, so its truth convolves d laws
        plan = bench.ExperimentPlan(
            bench.SCENARIO_GAUSS_SCALE, d, (100,), tuple(bench.parse_methods("knn:1")), 2
        )
        fx, fy = bench.scenario_specs(plan)
        tracemalloc.start()
        try:
            true_divergence(fx, fy, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestRefinementCap:
    """Refinement that reaches its node cap unconverged says so."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize(
        "scenario", [bench.SCENARIO_GAUSS_SHIFT, bench.SCENARIO_GAUSS_SCALE, bench.SCENARIO_GAUSS_VS_UNIFORM]
    )
    def test_bench_scenarios_converge(self, scenario, d):
        plan = bench.ExperimentPlan(scenario, d, (100,), tuple(bench.parse_methods("knn:1")), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RefinementCapWarning)
            assert 0.0 < bench.resolve_truth(plan) < 1.0

    def test_stalled_refinement_warns(self, monkeypatch):
        # a tolerance of 0 is never met: the nodes double to the cap
        monkeypatch.setattr(oracle, "_REFINE_TOL", 0.0)
        fx = truncated_normal([0.0], 1.0, (-5, 5))
        fy = truncated_normal([1.0], 1.0, (-5, 5))
        with pytest.warns(RefinementCapWarning, match="cap of 64001 nodes per axis"):
            assert true_divergence(fx, fy, 0.5) == pytest.approx(D_SHIFT_1D, abs=1e-9)


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
