import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdiv import KCollision, KTooLarge, SingularConstraints, default_l_values, resolve_schedule, solve_weights
from hpdiv.core import HPDivError
from hpdiv.weights import WeightSchedule, constraint_matrix

from oracles import minnorm_fractions, minnorm_pinv


class TestSolveWeights:
    def test_forced_2x2(self):
        w = solve_weights([1.0, 2.0], 1)
        assert w.tolist() == [2.0, -1.0]

    def test_d1_three_values(self):
        w = solve_weights([1.0, 2.0, 3.0], 1)
        np.testing.assert_allclose(w, [4 / 3, 1 / 3, -2 / 3], atol=1e-12)

    def test_d2_example_vs_pinv(self):
        ls = [1.0, 2.0, 3.0, 4.0]
        w = solve_weights(ls, 2)
        a, b = constraint_matrix(np.asarray(ls), 2)
        assert np.abs(a @ w - b).max() <= 1e-9
        w_oracle = minnorm_pinv(ls, 2)
        assert np.linalg.norm(w) <= np.linalg.norm(w_oracle) + 1e-9
        np.testing.assert_allclose(w, w_oracle, atol=1e-8)

    @given(
        st.integers(1, 5),
        st.integers(0, 100_000),
        st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_sets_feasible_and_minimal(self, d, seed, extra):
        rng = np.random.default_rng(seed)
        size = d + 1 + extra
        ls = np.sort(rng.uniform(0.3, 6.0, size=size))
        if np.diff(ls).min() < 0.05:
            ls = ls + np.arange(size) * 0.05  # enforce separation
        try:
            w = solve_weights(ls, d)
        except SingularConstraints:
            return  # inadmissible draw: conditioning threshold applies
        a, b = constraint_matrix(ls, d)
        norm = np.linalg.norm(w)
        assert np.abs(a @ w - b).max() <= 1e-9 * max(1.0, norm)
        w_oracle = minnorm_pinv(ls, d)
        assert norm <= np.linalg.norm(w_oracle) * (1 + 1e-9) + 1e-9
        # feasible perturbations along the null space never shrink the norm
        _, _, vt = np.linalg.svd(a)
        null = vt[d + 1 :]
        for j in range(len(null)):
            z = null[j]
            assert np.linalg.norm(w + 0.1 * z) >= norm - 1e-9 * max(1.0, norm)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_closed_form_rounded_once(self, d):
        # square and wide systems alike: each weight is the exact
        # A'(AA')^{-1} b rounded once, for the default grid and random sets
        rng = np.random.default_rng(d)
        sets = [default_l_values(d), np.linspace(0.5, 6.0, d + 1) ** 2]
        for size in rng.integers(d + 1, d + 9, size=40):
            sets.append(np.sort(rng.uniform(0.05, 20.0, size)) + np.arange(size) * 0.05)
        solved = 0
        for ls in sets:
            try:
                w = solve_weights(ls, d)
            except SingularConstraints:
                continue
            solved += 1
            assert w.tolist() == minnorm_fractions(constraint_matrix(ls, d)[0])
        assert solved >= 5

    def test_too_few_values(self):
        with pytest.raises(SingularConstraints):
            solve_weights([1.0, 2.0], 2)

    def test_near_collinear_rows(self):
        # crammed l values make the constraint rows indistinguishable
        with pytest.raises(SingularConstraints):
            solve_weights([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 3e-9], 2)

    def test_bad_inputs(self):
        with pytest.raises(HPDivError):
            solve_weights([1.0, 1.0, 2.0], 1)  # duplicates
        with pytest.raises(HPDivError):
            solve_weights([-1.0, 2.0, 3.0], 1)  # nonpositive
        with pytest.raises(HPDivError):
            solve_weights([1.0, 2.0], 0)
        with pytest.raises(HPDivError, match="1-D"):
            solve_weights([[1.0, 2.0], [3.0, 4.0]], 1)


class TestDefaultLValues:
    def test_d1_grid(self):
        ls = default_l_values(1)
        assert len(ls) == 4
        np.testing.assert_allclose(ls, np.linspace(1.0, 3.0, 4))

    def test_d2_grid_spans_wide(self):
        ls = default_l_values(2)
        assert len(ls) == 28
        assert ls[0] == pytest.approx(0.1) and ls[-1] == pytest.approx(14.0)
        assert (np.diff(ls) > 0).all()

    def test_high_d_has_enough_points(self):
        # defaults stay inside the conditioning threshold through d = 5
        for d in (3, 4, 5):
            ls = default_l_values(d)
            assert len(ls) >= d + 1
            w = solve_weights(ls, d)
            a, b = constraint_matrix(ls, d)
            assert np.abs(a @ w - b).max() <= 1e-9

    def test_zero_dimension_rejected(self):
        with pytest.raises(HPDivError, match="d must be >= 1"):
            default_l_values(0)

    def test_beyond_d5_defaults_rejected(self):
        with pytest.raises(SingularConstraints):
            solve_weights(default_l_values(7), 7)


class TestResolveSchedule:
    def test_simple(self):
        s = resolve_schedule([1.0, 2.0], 1, 100)
        assert s.k_values.tolist() == [10, 20]

    def test_collision(self):
        with pytest.raises(KCollision):
            resolve_schedule([1.0, 1.05], 1, 100)

    def test_bounds_check_with_m(self):
        s = resolve_schedule([1.0, 2.0, 3.0], 1, 2)
        assert s.k_values.tolist() == [1, 2, 4]
        with pytest.raises(KTooLarge):
            resolve_schedule([1.0, 2.0, 3.0], 1, 2, m=1)  # pooled bound 2

    def test_empty_sample_rejected(self):
        with pytest.raises(HPDivError, match="n must be >= 1, got 0"):
            resolve_schedule([1.0, 2.0], 1, 0)

    def test_sample_size_past_the_float_range_rejected(self):
        with pytest.raises(KTooLarge, match="N=10000"):
            resolve_schedule([1.0, 2.0], 1, 10**400)

    def test_rank_zero_rejected(self):
        with pytest.raises(KTooLarge):
            resolve_schedule([0.05, 1.0], 1, 100)  # floor(0.5) = 0

    def test_weights_independent_of_n(self):
        a = resolve_schedule([1.0, 2.0, 3.0], 1, 100)
        b = resolve_schedule([1.0, 2.0, 3.0], 1, 10_000)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.k_values.tolist() != b.k_values.tolist()


class TestWeightSchedule:
    @pytest.mark.parametrize(
        "w, k_values", [([1.0], [1, 2]), ([2.0, -1.0], [1]), ([2.0, -1.0, 0.0], None)]
    )
    def test_lengths_must_match_l_values(self, w, k_values):
        # A short w would let the weighted sum drop rank 2 through zip.
        with pytest.raises(HPDivError, match="one nonempty length"):
            WeightSchedule(l_values=[1.0, 2.0], w=w, k_values=k_values)

    def test_empty_schedule_rejected(self):
        with pytest.raises(HPDivError, match="one nonempty length"):
            WeightSchedule(l_values=[], w=[], k_values=[])
