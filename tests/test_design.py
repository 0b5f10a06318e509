import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etafit.design import (BasisSpec, build_design, monomial_exponents,
                           n_basis)
from etafit.errors import InputError, ModelError


def grid_points(s):
    g = np.linspace(0.0, 1.0, s)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


class TestBasisCounts:
    @pytest.mark.parametrize("q", range(7))
    def test_polynomial_count_closed_form(self, q):
        assert n_basis(BasisSpec("polynomial", q), 2) == (q + 1) * (q + 2) // 2

    def test_second_order_has_six_columns(self):
        X = build_design(grid_points(6), BasisSpec("polynomial", 2))
        assert X.m == 6

    def test_trigonometric_has_four_columns(self):
        X = build_design(grid_points(6), BasisSpec("trigonometric"))
        assert X.m == 4


class TestBuildDesign:
    def test_order_zero_is_all_ones(self):
        X = build_design(grid_points(4), BasisSpec("polynomial", 0))
        assert X.m == 1
        np.testing.assert_array_equal(X.entries, np.ones((16, 1)))

    def test_monomial_ordering_is_graded_leading_first(self):
        assert monomial_exponents(2, 2) == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        pts = np.array([[0.3, 0.7], [0.1, 0.2], [0.9, 0.4],
                        [0.5, 0.5], [0.2, 0.9], [0.8, 0.1], [0.6, 0.3]])
        X = build_design(pts, BasisSpec("polynomial", 2)).entries
        x1, x2 = pts[:, 0], pts[:, 1]
        np.testing.assert_allclose(X[:, 0], 1.0)
        np.testing.assert_allclose(X[:, 1], x1)
        np.testing.assert_allclose(X[:, 2], x2)
        np.testing.assert_allclose(X[:, 3], x1 ** 2)
        np.testing.assert_allclose(X[:, 4], x1 * x2)
        np.testing.assert_allclose(X[:, 5], x2 ** 2)

    def test_trigonometric_column_layout(self):
        pts = grid_points(4)
        X = build_design(pts, BasisSpec("trigonometric")).entries
        np.testing.assert_allclose(X[:, 0], np.sin(np.pi * pts[:, 0]))
        np.testing.assert_allclose(X[:, 1], np.cos(np.pi * pts[:, 0]))
        np.testing.assert_allclose(X[:, 2], np.sin(np.pi * pts[:, 1]))
        np.testing.assert_allclose(X[:, 3], np.cos(np.pi * pts[:, 1]))

    def test_collinear_points_raise_model_error(self):
        t = np.linspace(0.0, 1.0, 30)
        pts = np.column_stack([t, 2.0 * t])  # all on one line
        with pytest.raises(ModelError, match="polynomial"):
            build_design(pts, BasisSpec("polynomial", 4))

    def test_too_few_points_rejected(self):
        with pytest.raises(InputError):
            build_design(grid_points(2), BasisSpec("polynomial", 3))

    def test_grid_design_is_well_conditioned_up_to_order_five(self):
        pts = grid_points(20)
        for q in range(6):
            X = build_design(pts, BasisSpec("polynomial", q)).entries
            svals = np.linalg.svd(X, compute_uv=False)
            assert svals[-1] > pts.shape[0] * svals[0] * 1e-12

    @settings(max_examples=20, deadline=None)
    @given(q=st.integers(0, 4), seed=st.integers(0, 1000))
    def test_random_points_give_full_rank(self, q, seed):
        rng = np.random.default_rng(seed)
        m = n_basis(BasisSpec("polynomial", q), 2)
        pts = rng.uniform(size=(m + 10, 2))
        X = build_design(pts, BasisSpec("polynomial", q))
        assert np.linalg.matrix_rank(X.entries) == X.m
