import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform
from scipy.special import gammaln, kv

import etafit.kernels
from etafit.errors import InputError
from etafit.kernels import (CorrelationKernel, _matern_general,
                            correlation_matrix, kernel_profile, kernel_value,
                            taper_radius)


def grid_points(s):
    g = np.linspace(0.0, 1.0, s)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


class TestKernelValue:
    def test_zero_distance_is_one_for_every_family(self):
        for kernel in [CorrelationKernel("exponential", 0.1),
                       CorrelationKernel("matern", 0.1, nu=1.7),
                       CorrelationKernel("gaussian", 0.1),
                       CorrelationKernel("exponential", 0.1,
                                         taper_threshold=0.5)]:
            assert kernel_value(kernel, 0.0) == 1.0

    def test_exponential_closed_form(self):
        kernel = CorrelationKernel("exponential", 0.1)
        assert kernel_value(kernel, 0.1) == pytest.approx(math.exp(-1.0),
                                                          abs=1e-12)

    def test_matern_half_reduces_to_exponential(self):
        matern = CorrelationKernel("matern", 0.1, nu=0.5)
        expo = CorrelationKernel("exponential", 0.1)
        for d in np.linspace(0.0, 1.5, 40):
            assert kernel_value(matern, d) == pytest.approx(
                kernel_value(expo, d), abs=1e-10)

    def test_matern_three_halves_closed_form(self):
        # direct formula: (1 + sqrt(3) r/a) exp(-sqrt(3) r/a)
        kernel = CorrelationKernel("matern", 0.2, nu=1.5)
        for d in np.linspace(0.0, 1.0, 25):
            r = math.sqrt(3.0) * d / 0.2
            expected = (1.0 + r) * math.exp(-r)
            assert kernel_value(kernel, d) == pytest.approx(expected,
                                                            abs=1e-8)

    def test_matern_five_halves_closed_form(self):
        # direct formula: (1 + sqrt(5) r/a + 5 r^2/(3 a^2)) exp(-sqrt(5) r/a)
        kernel = CorrelationKernel("matern", 0.2, nu=2.5)
        for d in np.linspace(0.0, 1.0, 25):
            r = d / 0.2
            expected = (1.0 + math.sqrt(5.0) * r + 5.0 * r * r / 3.0) \
                * math.exp(-math.sqrt(5.0) * r)
            assert kernel_value(kernel, d) == pytest.approx(expected,
                                                            abs=1e-8)

    def test_general_matern_matches_half_integer_closed_form(self):
        # the Bessel branch and the closed form must agree away from the
        # half-integer detection window
        closed = CorrelationKernel("matern", 0.3, nu=1.5)
        general = CorrelationKernel("matern", 0.3, nu=1.5 + 1e-9)
        for d in np.linspace(0.01, 1.0, 17):
            assert kernel_value(general, d) == pytest.approx(
                kernel_value(closed, d), rel=1e-6)

    def test_large_nu_is_within_one_percent_of_gaussian(self):
        # evaluated through the true Bessel route just below the
        # substitution threshold
        matern = CorrelationKernel("matern", 0.1, nu=24.9)
        gauss = CorrelationKernel("gaussian", 0.1)
        d = np.linspace(0.0, 0.6, 200)
        diff = np.abs(kernel_profile(matern, d) - kernel_profile(gauss, d))
        assert np.max(diff) < 0.01

    def test_nu_at_substitution_threshold_is_gaussian(self):
        matern = CorrelationKernel("matern", 0.1, nu=40.0)
        gauss = CorrelationKernel("gaussian", 0.1)
        for d in (0.0, 0.05, 0.2):
            assert kernel_value(matern, d) == kernel_value(gauss, d)

    def test_nonfinite_distance_rejected(self):
        kernel = CorrelationKernel("exponential", 0.1)
        with pytest.raises(InputError):
            kernel_value(kernel, math.nan)
        with pytest.raises(InputError):
            kernel_value(kernel, math.inf)
        with pytest.raises(InputError):
            kernel_value(kernel, -0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InputError):
            CorrelationKernel("exponential", -0.1)
        with pytest.raises(InputError):
            CorrelationKernel("matern", 0.1, nu=0.0)
        with pytest.raises(InputError):
            CorrelationKernel("exponential", 0.1, taper_threshold=1.0)
        with pytest.raises(InputError):
            CorrelationKernel("spherical", 0.1)

    @settings(max_examples=60, deadline=None)
    @given(d=st.floats(0.0, 10.0),
           alpha=st.floats(0.01, 5.0),
           nu=st.floats(0.1, 20.0),
           family=st.sampled_from(["exponential", "matern", "gaussian"]))
    def test_values_stay_in_unit_interval(self, d, alpha, nu, family):
        kernel = CorrelationKernel(family, alpha, nu=nu)
        v = kernel_value(kernel, d)
        assert 0.0 <= v <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(d=st.floats(0.0, 3.0), kappa=st.floats(0.01, 0.9))
    def test_taper_zeroes_small_values_only(self, d, kappa):
        plain = CorrelationKernel("exponential", 0.2)
        tapered = CorrelationKernel("exponential", 0.2,
                                    taper_threshold=kappa)
        v = kernel_value(plain, d)
        vt = kernel_value(tapered, d)
        if v <= kappa:
            assert vt == 0.0
        else:
            assert vt == v


class TestCorrelationMatrix:
    def test_single_point(self):
        K = correlation_matrix(np.array([[0.3, 0.4]]),
                               CorrelationKernel("exponential", 0.1))
        assert K.n == 1
        assert K.toarray() == pytest.approx(np.array([[1.0]]))

    def test_matches_brute_force_pairwise(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(size=(5, 2))
        kernel = CorrelationKernel("exponential", 0.3)
        K = correlation_matrix(pts, kernel)
        expected = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                expected[i, j] = kernel_value(
                    kernel, float(np.linalg.norm(pts[i] - pts[j])))
        np.testing.assert_allclose(K.toarray(), expected, atol=1e-12)

    def test_exact_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(40, 2))
        for kernel in [CorrelationKernel("exponential", 0.2),
                       CorrelationKernel("matern", 0.2, nu=1.7),
                       CorrelationKernel("exponential", 0.05,
                                         taper_threshold=0.2)]:
            K = correlation_matrix(pts, kernel).toarray()
            assert np.max(np.abs(K - K.T)) == 0.0
            assert np.all(np.diag(K) == 1.0)
            assert K.min() >= 0.0 and K.max() <= 1.0

    def test_taper_produces_sparse_storage_with_expected_density(self):
        # kappa=0.03, alpha=0.005: support radius -alpha*log(kappa) ~ 0.0175,
        # so the non-zero density is about pi * r^2 ~ 1e-3 on the unit square
        kernel = CorrelationKernel("exponential", 0.005, taper_threshold=0.03)
        K = correlation_matrix(grid_points(100), kernel)
        assert K.storage == "sparse"
        density = K.entries.nnz / K.n ** 2
        assert 3e-4 < density < 1.5e-3

    def test_sparse_matches_dense_assembly(self):
        pts = grid_points(12)
        # nu = 1.3 takes the KD-tree path through the Bessel branch
        for family, nu in [("exponential", 0.5), ("matern", 1.3)]:
            kernel = CorrelationKernel(family, 0.05, nu=nu,
                                       taper_threshold=0.1)
            K_sparse = correlation_matrix(pts, kernel)
            plain = CorrelationKernel(family, 0.05, nu=nu)
            K_dense = correlation_matrix(pts, plain).toarray()
            K_dense[K_dense <= 0.1] = 0.0
            np.testing.assert_allclose(K_sparse.toarray(), K_dense,
                                       atol=1e-12)

    def test_duplicate_points_flagged(self):
        pts = np.array([[0.1, 0.1], [0.1, 0.1], [0.5, 0.5]])
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.1))
        assert K.has_duplicates
        K2 = correlation_matrix(pts, CorrelationKernel("exponential", 0.1,
                                                       taper_threshold=0.01))
        assert K2.has_duplicates

    def test_dense_grid_eigenvalues_positive(self):
        K = correlation_matrix(grid_points(8),
                               CorrelationKernel("exponential", 0.1))
        eigvals = np.linalg.eigvalsh(K.toarray())
        assert eigvals.min() > 0.0

    def test_taper_radius_matches_kernel_threshold(self):
        for kernel in [CorrelationKernel("exponential", 0.05,
                                         taper_threshold=0.03),
                       CorrelationKernel("gaussian", 0.05,
                                         taper_threshold=0.03),
                       CorrelationKernel("matern", 0.05, nu=1.3,
                                         taper_threshold=0.03)]:
            r = taper_radius(kernel)
            inside = CorrelationKernel(kernel.family, kernel.alpha, kernel.nu)
            assert kernel_value(inside, 0.999 * r) > 0.03
            assert kernel_value(inside, 1.001 * r) <= 0.0301

    def test_nonfinite_points_rejected(self):
        with pytest.raises(InputError):
            correlation_matrix(np.array([[0.0, np.nan]]),
                               CorrelationKernel("exponential", 0.1))


def _full_matrix_assembly(pts, kernel):
    """Reference dense assembly: the profile over the full n x n distances."""
    n = len(pts)
    dist = squareform(pdist(pts)) if n > 1 else np.zeros((1, 1))
    K = kernel_profile(kernel, dist)
    np.fill_diagonal(K, 1.0)
    return K, bool((dist == 0.0).sum() > n)


_RNG = np.random.default_rng(11)
POINT_SETS = {
    "grid": grid_points(9),
    "uniform": _RNG.uniform(size=(60, 2)),
    "3d": _RNG.uniform(size=(40, 3)),
    "duplicates": np.vstack([grid_points(4), grid_points(4)[:5]]),
    "n1": np.array([[0.3, 0.4]]),
    "n2": np.array([[0.3, 0.4], [0.6, 0.0]]),
}

BITWISE_KERNELS = [
    CorrelationKernel("exponential", 0.2),
    CorrelationKernel("gaussian", 0.2),
    CorrelationKernel("matern", 0.2, nu=0.5),
    CorrelationKernel("matern", 0.2, nu=1.5),
    CorrelationKernel("matern", 0.2, nu=2.5),
    CorrelationKernel("matern", 0.2, nu=0.7),
    CorrelationKernel("matern", 0.2, nu=1.3),
    CorrelationKernel("matern", 0.2, nu=1.5363),
    CorrelationKernel("matern", 0.2, nu=30.0),
]


class TestOneTriangleAssembly:
    @pytest.mark.parametrize("name", sorted(POINT_SETS))
    @pytest.mark.parametrize("kernel", BITWISE_KERNELS,
                             ids=lambda k: f"{k.family}-{k.nu}")
    def test_bitwise_equal_to_full_matrix_assembly(self, kernel, name):
        pts = POINT_SETS[name]
        expected, duplicates = _full_matrix_assembly(pts, kernel)
        K = correlation_matrix(pts, kernel)
        assert K.storage == "dense" and K.n == len(pts)
        assert np.array_equal(K.toarray(), expected)
        assert K.has_duplicates == duplicates
        assert K.has_duplicates == (name == "duplicates")

    @pytest.mark.parametrize("kernel", BITWISE_KERNELS,
                             ids=lambda k: f"{k.family}-{k.nu}")
    def test_scalar_distance_gives_0d_result(self, kernel):
        # the in-place branches must not trip over a 0-d input
        value = kernel_profile(kernel, 0.05)
        assert np.shape(value) == ()
        assert float(value) == kernel_value(kernel, 0.05)

    @pytest.mark.parametrize("nu", [0.7, 1.3, 1.5363, 24.9])
    def test_deduplicated_bessel_branch_is_bitwise_elementwise(self, nu):
        # the per-element formula, evaluated on every entry with repeats
        x = math.sqrt(2.0 * nu) * squareform(pdist(grid_points(9))) / 0.2
        expected = np.ones_like(x)
        live = x > 1e-10
        val = (np.exp((1.0 - nu) * math.log(2.0) - gammaln(nu)
                      + nu * np.log(x[live])) * kv(nu, x[live]))
        expected[live] = np.where(np.isfinite(val), val, 0.0)
        assert np.array_equal(_matern_general(nu, x), expected)

    def test_bessel_called_once_per_distinct_distance(self, monkeypatch):
        pts = grid_points(20)
        arguments = []

        def counting_kv(nu, x):
            arguments.append(np.size(x))
            return kv(nu, x)

        monkeypatch.setattr(etafit.kernels, "kv", counting_kv)
        correlation_matrix(pts, CorrelationKernel("matern", 0.1, nu=1.3))
        assert 0 < sum(arguments) <= np.unique(pdist(pts)).size


def _pair_distances(pts, kernel):
    """The KD-tree pairs within the taper radius and their distances."""
    pairs = cKDTree(pts).query_pairs(taper_radius(kernel),
                                     output_type="ndarray")
    return pairs, np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)


def _pairwise_sparse_assembly(pts, kernel):
    """Reference tapered assembly: the profile evaluated on every pair."""
    n = len(pts)
    pairs, dists = _pair_distances(pts, kernel)
    vals = kernel_profile(kernel, dists)
    keep = vals > 0.0
    pairs, dists, vals = pairs[keep], dists[keep], vals[keep]
    rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n)])
    data = np.concatenate([vals, vals, np.ones(n)])
    K = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    return K, bool(np.any(dists == 0.0))


TAPERED_KERNELS = [
    CorrelationKernel("exponential", 0.1, taper_threshold=0.05),
    CorrelationKernel("gaussian", 0.1, taper_threshold=0.05),
    CorrelationKernel("matern", 0.1, nu=1.5, taper_threshold=0.05),
    CorrelationKernel("matern", 0.1, nu=1.37, taper_threshold=0.05),
    CorrelationKernel("matern", 0.1, nu=0.7, taper_threshold=0.2),
    CorrelationKernel("matern", 0.1, nu=30.0, taper_threshold=0.05),
    # a radius below every pair distance: no pairs, K = I
    CorrelationKernel("exponential", 1e-4, taper_threshold=0.5),
    CorrelationKernel("matern", 1e-4, nu=1.37, taper_threshold=0.5),
]


class TestTaperedAssembly:
    @pytest.mark.parametrize("name", ["grid", "uniform", "3d", "duplicates",
                                      "n1"])
    @pytest.mark.parametrize("kernel", TAPERED_KERNELS,
                             ids=lambda k: f"{k.family}-{k.nu}-{k.alpha}")
    def test_bitwise_equal_to_pairwise_assembly(self, kernel, name):
        pts = POINT_SETS[name]
        expected, duplicates = _pairwise_sparse_assembly(pts, kernel)
        K = correlation_matrix(pts, kernel)
        assert K.storage == "sparse" and K.n == len(pts)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(K.entries, part),
                                  getattr(expected, part))
        assert K.has_duplicates == duplicates == (name == "duplicates")

    def test_no_pairs_give_the_identity(self):
        kernel = TAPERED_KERNELS[-1]
        assert len(_pair_distances(grid_points(9), kernel)[0]) == 0
        K = correlation_matrix(grid_points(9), kernel)
        assert np.array_equal(K.toarray(), np.eye(81))
        assert not K.has_duplicates

    def test_bessel_called_once_per_distinct_distance(self, monkeypatch):
        pts = grid_points(40)
        kernel = CorrelationKernel("matern", 0.05, nu=1.3,
                                   taper_threshold=0.05)
        distinct = np.unique(_pair_distances(pts, kernel)[1])
        # the radius is bisected on kernel values, which calls kv too
        radius = taper_radius(kernel)
        monkeypatch.setattr(etafit.kernels, "taper_radius", lambda k: radius)
        arguments = []

        def counting_kv(nu, x):
            arguments.append(np.size(x))
            return kv(nu, x)

        monkeypatch.setattr(etafit.kernels, "kv", counting_kv)
        K = correlation_matrix(pts, kernel)
        assert K.entries.nnz > 10 * len(pts)
        assert 0 < sum(arguments) <= distinct.size


MEMO_KERNELS = [
    CorrelationKernel("exponential", 0.2),
    CorrelationKernel("gaussian", 0.2),
    CorrelationKernel("matern", 0.2, nu=1.5),
    CorrelationKernel("matern", 0.2, nu=1.37),
    CorrelationKernel("matern", 0.2, nu=etafit.kernels.MATERN_GAUSSIAN_NU),
]


def _condensed_assembly(pts, kernel):
    """Reference dense assembly: the profile over ``pdist``, mirrored."""
    K = squareform(kernel_profile(kernel, pdist(pts)), checks=False)
    np.fill_diagonal(K, 1.0)
    return K


class TestDistanceMemo:
    """The general Matern branch reads its distinct distances from a
    one-entry memo; K never depends on what the memo held before."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(etafit.kernels, "_distance_memo", None)

    def count_pdist(self, monkeypatch):
        calls = []

        def counting(pts):
            calls.append(len(pts))
            return pdist(pts)

        monkeypatch.setattr(etafit.kernels, "pdist", counting)
        return calls

    @pytest.mark.parametrize("name", ["grid", "uniform", "duplicates"])
    @pytest.mark.parametrize("kernel", MEMO_KERNELS,
                             ids=lambda k: f"{k.family}-{k.nu}")
    def test_miss_and_hit_are_bitwise_equal_to_the_condensed_assembly(
            self, kernel, name):
        pts = POINT_SETS[name]
        expected = _condensed_assembly(pts, kernel)
        for _ in ("miss", "hit"):
            K = correlation_matrix(pts, kernel)
            assert np.array_equal(K.toarray(), expected)
            assert K.has_duplicates == (name == "duplicates")

    def test_a_hit_sorts_nothing(self, monkeypatch):
        sorted_sizes = []
        unique = np.unique

        def counting(values, *args, **kwargs):
            sorted_sizes.append(np.size(values))
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(etafit.kernels.np, "unique", counting)
        kernel = CorrelationKernel("matern", 0.2, nu=1.37)
        pts = POINT_SETS["uniform"]
        correlation_matrix(pts, kernel)
        # a miss sorts the 1770 pair distances once, a hit nothing
        assert sorted_sizes == [1770]
        correlation_matrix(pts, CorrelationKernel("matern", 0.3, nu=0.7))
        assert sorted_sizes == [1770]

    def test_second_assembly_on_equal_points_skips_pdist(self, monkeypatch):
        calls = self.count_pdist(monkeypatch)
        kernel = CorrelationKernel("matern", 0.1, nu=1.37)
        correlation_matrix(grid_points(9), kernel)
        assert calls == [81]
        # equal points in another array, and another Bessel-branch kernel
        correlation_matrix(grid_points(9).copy(),
                           CorrelationKernel("matern", 0.3, nu=0.7))
        assert calls == [81]

    def test_other_branches_leave_the_memo_alone(self, monkeypatch):
        calls = self.count_pdist(monkeypatch)
        pts = grid_points(9)
        correlation_matrix(pts, CorrelationKernel("matern", 0.1, nu=1.37))
        entry = etafit.kernels._distance_memo
        for kernel in MEMO_KERNELS:
            if not etafit.kernels._bessel_matern(kernel):
                correlation_matrix(pts, kernel)
        # the closed forms read pdist every time and keep nothing
        assert len(calls) == len(MEMO_KERNELS)
        assert etafit.kernels._distance_memo is entry

    def test_points_mutated_in_place_give_the_new_matrix(self):
        kernel = CorrelationKernel("matern", 0.2, nu=1.37)
        pts = grid_points(6)
        correlation_matrix(pts, kernel)
        pts[0] += 0.05
        K = correlation_matrix(pts, kernel)
        assert np.array_equal(K.toarray(), _condensed_assembly(pts, kernel))

    def test_equal_bytes_of_another_shape_give_their_own_matrix(self):
        kernel = CorrelationKernel("matern", 0.2, nu=1.37)
        pts = grid_points(4)
        assert correlation_matrix(pts, kernel).n == 16
        # the same 32 doubles read as 32 points on a line
        line = pts.reshape(-1, 1)
        K = correlation_matrix(line, kernel)
        assert K.n == 32 and K.has_duplicates
        assert np.array_equal(K.toarray(), _condensed_assembly(line, kernel))

    def test_one_point_and_coincident_points_after_other_sets(self):
        kernel = CorrelationKernel("matern", 0.2, nu=1.37)
        duplicates = POINT_SETS["duplicates"]
        for pts, flagged in [(grid_points(4), False), (duplicates, True),
                             (duplicates, True), (POINT_SETS["n1"], False),
                             (duplicates, True), (grid_points(4), False)]:
            K = correlation_matrix(pts, kernel)
            assert K.has_duplicates == flagged
            assert np.array_equal(K.toarray(),
                                  _condensed_assembly(pts, kernel))

    def test_tapered_assembly_is_untouched(self, monkeypatch):
        calls = self.count_pdist(monkeypatch)
        pts = grid_points(12)
        correlation_matrix(pts, CorrelationKernel("matern", 0.1, nu=1.37))
        entry = etafit.kernels._distance_memo
        K = correlation_matrix(pts, CorrelationKernel(
            "matern", 0.1, nu=1.37, taper_threshold=0.05))
        assert K.storage == "sparse"
        assert calls == [144] and etafit.kernels._distance_memo is entry


class TestDenseMemoryGuard:
    """The available-memory probe is patched, so nothing large is
    allocated whether or not the guard fires."""

    n = 300

    def points(self):
        return np.random.default_rng(2).uniform(size=(self.n, 2))

    def limit(self, monkeypatch, copies):
        monkeypatch.setattr(etafit.kernels, "available_memory",
                            lambda: int(8 * copies * self.n ** 2))

    def test_assembly_refused_beyond_available_memory(self, monkeypatch):
        self.limit(monkeypatch, 2.0)
        with pytest.raises(InputError) as exc:
            correlation_matrix(self.points(),
                               CorrelationKernel("exponential", 0.1))
        message = str(exc.value)
        need = 8 * etafit.kernels.DENSE_ASSEMBLY_COPIES * self.n ** 2
        assert f"{need / 2**20:.0f} MiB" in message
        assert f"{8 * 2.0 * self.n ** 2 / 2**20:.0f} MiB" in message
        assert "taper" in message

    def test_bessel_assembly_needs_more(self, monkeypatch):
        self.limit(monkeypatch, 4.0)
        correlation_matrix(self.points(), CorrelationKernel("matern", 0.1,
                                                            nu=2.5))
        with pytest.raises(InputError):
            correlation_matrix(self.points(),
                               CorrelationKernel("matern", 0.1, nu=1.7))

    def test_sparse_storage_and_unknown_memory_pass(self, monkeypatch):
        # sparse K here stores 556 entries, about 0.05 n x n doubles to
        # assemble
        self.limit(monkeypatch, 0.1)
        K = correlation_matrix(self.points(), CorrelationKernel(
            "exponential", 0.01, taper_threshold=0.05))
        assert K.storage == "sparse"
        monkeypatch.setattr(etafit.kernels, "available_memory", lambda: None)
        correlation_matrix(self.points(), CorrelationKernel("exponential",
                                                            0.1))

    def test_bessel_assembly_peaks_within_its_constant(self, monkeypatch):
        # scattered points: every pair distance is distinct, so the memo
        # holds a whole n x n array; n = 400 as in a kernel search
        monkeypatch.setattr(etafit.kernels, "_distance_memo", None)
        n = 400
        pts = np.random.default_rng(4).uniform(size=(n, 2))
        kernel = CorrelationKernel("matern", 0.1, nu=1.37)
        for _ in ("miss", "hit"):
            tracemalloc.start()
            try:
                correlation_matrix(pts, kernel)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * etafit.kernels.BESSEL_ASSEMBLY_COPIES * n ** 2

    @pytest.mark.parametrize("nu", [0.5, 1.37])
    def test_sparse_assembly_peaks_within_its_constant(self, nu):
        # scattered points: every general Matern pair distance is distinct
        pts = np.random.default_rng(4).uniform(size=(2500, 2))
        kernel = CorrelationKernel("matern", 0.02, nu=nu,
                                   taper_threshold=0.05)
        tracemalloc.start()
        try:
            K = correlation_matrix(pts, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_entry = etafit.kernels.SPARSE_ASSEMBLY_BYTES_PER_ENTRY
        assert peak <= per_entry * K.entries.nnz

    def count_pair_listings(self, monkeypatch):
        listed = []

        class CountingTree(cKDTree):
            def query_pairs(self, *args, **kwargs):
                listed.append(args)
                return super().query_pairs(*args, **kwargs)

        monkeypatch.setattr(etafit.kernels, "cKDTree", CountingTree)
        return listed

    def test_sparse_assembly_refused_before_listing_pairs(self, monkeypatch):
        listed = self.count_pair_listings(monkeypatch)
        pts = self.points()
        kernel = CorrelationKernel("exponential", 0.01, taper_threshold=0.05)
        tree = cKDTree(pts)
        entries = tree.count_neighbors(tree, taper_radius(kernel))
        need = etafit.kernels.SPARSE_ASSEMBLY_BYTES_PER_ENTRY * entries
        monkeypatch.setattr(etafit.kernels, "available_memory",
                            lambda: int(need) - 1)
        with pytest.raises(InputError) as exc:
            correlation_matrix(pts, kernel)
        assert listed == []
        message = str(exc.value)
        assert f"n={self.n} with {entries} stored entries" in message
        assert f"{need / 2**20:.2g} MiB" in message
        assert "larger taper threshold" in message
        # just above the need: assembled, and the count was K's nnz
        monkeypatch.setattr(etafit.kernels, "available_memory",
                            lambda: int(need) + 1)
        K = correlation_matrix(pts, kernel)
        assert len(listed) == 1 and K.entries.nnz == entries

    @pytest.mark.parametrize("fits", [True, False])
    def test_entries_counted_only_when_n_squared_may_not_fit(self,
                                                             monkeypatch,
                                                             fits):
        counted = []

        class CountingTree(cKDTree):
            def count_neighbors(self, *args, **kwargs):
                counted.append(args)
                return super().count_neighbors(*args, **kwargs)

        monkeypatch.setattr(etafit.kernels, "cKDTree", CountingTree)
        full = etafit.kernels.SPARSE_ASSEMBLY_BYTES_PER_ENTRY * self.n ** 2
        monkeypatch.setattr(etafit.kernels, "available_memory",
                            lambda: int(full) - (0 if fits else 1))
        K = correlation_matrix(self.points(), CorrelationKernel(
            "exponential", 0.01, taper_threshold=0.05))
        assert K.storage == "sparse"
        assert len(counted) == (0 if fits else 1)

    def test_weak_taper_refused_where_dense_assembly_fits(self, monkeypatch):
        # every pair lies within the radius, so sparse K stores n^2
        # entries and needs 8 times dense assembly's 3 copies
        listed = self.count_pair_listings(monkeypatch)
        self.limit(monkeypatch, 4.0)
        tapered = CorrelationKernel("exponential", 0.5, taper_threshold=0.01)
        with pytest.raises(InputError, match=f"{self.n ** 2} stored entries"):
            correlation_matrix(self.points(), tapered)
        assert listed == []
        K = correlation_matrix(self.points(), CorrelationKernel(
            "exponential", 0.5))
        assert K.storage == "dense"

    def test_tridiagonal_reduction_needs_one_copy(self, monkeypatch):
        from etafit.model import Solver
        K = correlation_matrix(self.points(),
                               CorrelationKernel("exponential", 0.1))
        self.limit(monkeypatch, 1.0)
        Solver(K)
        self.limit(monkeypatch, 0.9)
        with pytest.raises(InputError, match="tridiagonal reduction") as exc:
            Solver(K)
        assert "taper" in str(exc.value)

    def test_dense_oracle_refused_beyond_available_memory(self, monkeypatch):
        from etafit.kernels import CorrelationMatrix
        from conftest import oracle_traces
        K = correlation_matrix(self.points(), CorrelationKernel(
            "exponential", 0.01, taper_threshold=0.05))
        assert K.storage == "sparse"
        # the dense copy of sparse K and the eigensolver's own copy
        self.limit(monkeypatch, 1.9)
        with pytest.raises(InputError, match="dense eigensolve") as exc:
            oracle_traces(K)
        # K is already sparse, so tapering cannot help
        assert "taper" not in str(exc.value)
        self.limit(monkeypatch, 2.0)
        oracle_traces(K)
        # dense K is already stored: only the eigensolver's copy
        dense = CorrelationMatrix(K.toarray())
        self.limit(monkeypatch, 0.9)
        with pytest.raises(InputError, match="dense eigensolve"):
            oracle_traces(dense)
        self.limit(monkeypatch, 1.0)
        oracle_traces(dense)

    def test_probe_reads_a_positive_byte_count(self):
        assert etafit.kernels.available_memory() > 0


class TestAvailableMemoryProbe:
    """The probe reads files laid out under tmp_path like /proc/meminfo,
    /proc/self/cgroup and a cgroup v2 or v1 hierarchy."""

    MIB = 2 ** 20

    def layout(self, tmp_path, monkeypatch, cgroup_line, available_mib):
        (tmp_path / "meminfo").write_text(
            f"MemTotal: 99999999 kB\nMemAvailable: {available_mib * 1024} kB\n")
        (tmp_path / "cgroup").write_text(cgroup_line + "\n")
        root = tmp_path / "fs"
        monkeypatch.setattr(etafit.kernels, "_MEMINFO",
                            str(tmp_path / "meminfo"))
        monkeypatch.setattr(etafit.kernels, "_PROC_CGROUP",
                            str(tmp_path / "cgroup"))
        monkeypatch.setattr(etafit.kernels, "_CGROUP_ROOT", str(root))
        return root

    def v2_level(self, directory, limit, current_mib, inactive_mib):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "memory.max").write_text(f"{limit}\n")
        (directory / "memory.current").write_text(
            f"{current_mib * self.MIB}\n")
        (directory / "memory.stat").write_text(
            f"anon 1\ninactive_file {inactive_mib * self.MIB}\nactive_file 2\n")

    def test_v2_limit_below_host_memory_caps_the_probe(self, tmp_path,
                                                      monkeypatch):
        root = self.layout(tmp_path, monkeypatch, "0::/job", 4096)
        self.v2_level(root / "job", 1024 * self.MIB, 600, 100)
        # 1024 MiB limit, 600 MiB charged of which 100 MiB reclaimable
        assert etafit.kernels.available_memory() == 524 * self.MIB

    def test_v2_ancestor_limit_counts(self, tmp_path, monkeypatch):
        root = self.layout(tmp_path, monkeypatch, "0::/pod/job", 4096)
        self.v2_level(root / "pod", 800 * self.MIB, 700, 0)
        self.v2_level(root / "pod" / "job", "max", 300, 0)
        assert etafit.kernels.available_memory() == 100 * self.MIB

    def test_v2_without_limit_reads_host_memory(self, tmp_path, monkeypatch):
        root = self.layout(tmp_path, monkeypatch, "0::/", 4096)
        root.mkdir()
        assert etafit.kernels.available_memory() == 4096 * self.MIB
        self.layout(tmp_path, monkeypatch, "0::/job", 4096)
        self.v2_level(root / "job", "max", 600, 0)
        assert etafit.kernels.available_memory() == 4096 * self.MIB

    def test_v1_hierarchical_limit_caps_the_probe(self, tmp_path,
                                                 monkeypatch):
        root = self.layout(
            tmp_path, monkeypatch,
            "5:devices:/\n4:memory:/jobs/job\n0::/", 4096)
        level = root / "memory" / "jobs" / "job"
        level.mkdir(parents=True)
        (level / "memory.usage_in_bytes").write_text(f"{500 * self.MIB}\n")
        (level / "memory.stat").write_text(
            f"inactive_file 0\nhierarchical_memory_limit {2048 * self.MIB}\n"
            f"total_inactive_file {200 * self.MIB}\n")
        assert etafit.kernels.available_memory() == 1748 * self.MIB

    def test_limit_exceeded_reads_zero(self, tmp_path, monkeypatch):
        root = self.layout(tmp_path, monkeypatch, "0::/job", 4096)
        self.v2_level(root / "job", 100 * self.MIB, 300, 0)
        assert etafit.kernels.available_memory() == 0

    def test_guard_refuses_under_a_cgroup_limit(self, tmp_path, monkeypatch):
        root = self.layout(tmp_path, monkeypatch, "0::/job", 4096)
        n = 300
        self.v2_level(root / "job", 8 * n * n, 0, 0)
        points = np.random.default_rng(2).uniform(size=(n, 2))
        with pytest.raises(InputError, match="MiB of memory is available"):
            correlation_matrix(points, CorrelationKernel("exponential", 0.1))
