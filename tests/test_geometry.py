"""Distance matrix and KNN indexing, including exact tie behavior."""

import math

import numpy as np
import pytest

from la2.geometry import (KnnIndex, PointSet, _squared_distance_matrix,
                          knn_indices, knn_indices_accelerated, relabel_knn)
from la2.tensor import Tensor, TensorError


def points(arr):
    return PointSet(Tensor(np.asarray(arr, dtype=float)))


def pairwise_distances(x):
    """Full Euclidean distance matrix [M, M], from the squared distances both
    KNN paths rank by."""
    return np.sqrt(_squared_distance_matrix(x.coords.data))


def random_points(rng, m, dim=2):
    return points(rng.uniform(0.0, 1.0, size=(m, dim)))


def grid_points(g):
    xs = np.linspace(0.0, 1.0, g)
    yy, xx = np.meshgrid(xs, xs, indexing="ij")
    return points(np.stack([xx.ravel(), yy.ravel()], axis=1))


class TestPointSet:
    def test_validation(self):
        with pytest.raises(TensorError):
            points(np.zeros((0, 2)))
        with pytest.raises(TensorError):
            points(np.zeros((3, 4)))
        assert points([[0.1], [0.2]]).m == 2


class TestPairwiseDistances:
    def test_345_triangle(self):
        d = pairwise_distances(points([[0, 0], [3, 4]]))
        assert np.array_equal(d, [[0.0, 5.0], [5.0, 0.0]])

    def test_exact_symmetry_and_diagonal(self, rng):
        x = random_points(rng, 40)
        d = pairwise_distances(x)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(40))

    def test_matches_per_pair_oracle(self, rng):
        x = random_points(rng, 10, dim=3)
        d = pairwise_distances(x)
        c = x.coords.data
        for i in range(10):
            for j in range(10):
                expect = math.dist(c[i], c[j])
                assert abs(d[i, j] - expect) < 1e-12


class TestKnnIndices:
    def test_three_point_line(self):
        x = points([[0, 0], [1, 0], [5, 0]])
        knn = knn_indices(x, 2)
        assert np.array_equal(knn.idx, [[0, 1], [1, 0], [2, 1]])

    def test_k1_is_self(self, rng):
        x = random_points(rng, 17)
        knn = knn_indices(x, 1)
        assert np.array_equal(knn.idx[:, 0], np.arange(17))

    def test_k_equals_m_is_permutation(self, rng):
        x = random_points(rng, 12)
        knn = knn_indices(x, 12)
        for row in knn.idx:
            assert np.array_equal(np.sort(row), np.arange(12))

    def test_monotone_distances(self, rng):
        x = random_points(rng, 30)
        knn = knn_indices(x, 7)
        d = pairwise_distances(x)
        rows = d[np.arange(30)[:, None], knn.idx]
        assert (np.diff(rows, axis=1) >= 0).all()

    def test_grid_tie_break_ascending(self):
        # Interior grid point: 4 axis neighbors tie; ascending index wins.
        x = grid_points(4)
        knn = knn_indices(x, 5)
        center = 1 * 4 + 1
        assert knn.idx[center, 0] == center
        assert np.array_equal(np.sort(knn.idx[center, 1:]),
                              np.sort([center - 4, center - 1, center + 1, center + 4]))
        assert np.array_equal(knn.idx[center, 1:],
                              np.sort([center - 4, center - 1, center + 1, center + 4]))

    def test_k_bounds(self, rng):
        x = random_points(rng, 5)
        with pytest.raises(TensorError):
            knn_indices(x, 6)
        with pytest.raises(TensorError):
            knn_indices(x, 0)


class TestAcceleratedEquivalence:
    @pytest.mark.parametrize("m,k", [(1, 1), (2, 2), (33, 8), (200, 32),
                                     (128, 128), (257, 1)])
    def test_random_sets(self, rng, m, k):
        x = random_points(rng, m)
        assert np.array_equal(knn_indices(x, k).idx,
                              knn_indices_accelerated(x, k).idx)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dimensions(self, rng, dim):
        x = random_points(rng, 60, dim=dim)
        assert np.array_equal(knn_indices(x, 9).idx,
                              knn_indices_accelerated(x, 9).idx)

    def test_grid_with_ties(self):
        x = grid_points(16)
        for k in (1, 5, 9, 32, 256):
            assert np.array_equal(knn_indices(x, k).idx,
                                  knn_indices_accelerated(x, k).idx)

    def test_grid_interior_patch_is_stencil(self):
        x = grid_points(16)
        knn = knn_indices_accelerated(x, 5)
        a = 7 * 16 + 7
        assert set(knn.idx[a]) == {a, a - 16, a - 1, a + 1, a + 16}

    def test_duplicate_points(self):
        x = points([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.9, 0.9]])
        b = knn_indices(x, 3)
        a = knn_indices_accelerated(x, 3)
        assert np.array_equal(a.idx, b.idx)
        assert np.array_equal(a.idx[:, 0], np.arange(4))


class TestKnnCache:
    def test_second_call_returns_same_index(self, rng):
        x = random_points(rng, 40)
        assert knn_indices_accelerated(x, 6) is knn_indices_accelerated(x, 6)

    def test_each_k_matches_brute_force(self, rng):
        x = random_points(rng, 50)
        for k in (4, 8, 4, 8):
            assert np.array_equal(knn_indices_accelerated(x, k).idx,
                                  knn_indices(x, k).idx)

    def test_new_point_set_gets_its_own_index(self, rng):
        x = random_points(rng, 30)
        first = knn_indices_accelerated(x, 5)
        y = points(x.coords.data)
        again = knn_indices_accelerated(y, 5)
        assert again is not first
        assert np.array_equal(again.idx, knn_indices(y, 5).idx)

    def test_coords_and_index_are_read_only(self, rng):
        x = random_points(rng, 20)
        knn = knn_indices_accelerated(x, 4)
        with pytest.raises(ValueError):
            x.coords.data[0, 0] = 2.0
        with pytest.raises(ValueError):
            knn.idx[0, 1] = 0


class TestInvariances:
    def test_translation(self, rng):
        x = random_points(rng, 50)
        shifted = points(x.coords.data + np.array([0.75, -1.5]))
        assert np.array_equal(knn_indices(x, 6).idx, knn_indices(shifted, 6).idx)

    def test_positive_scaling(self, rng):
        x = random_points(rng, 50)
        scaled = points(x.coords.data * 2.0)
        assert np.array_equal(knn_indices(x, 6).idx, knn_indices(scaled, 6).idx)
        scaled = points(x.coords.data * 0.037)
        assert np.array_equal(knn_indices(x, 6).idx, knn_indices(scaled, 6).idx)


class TestKnnIndexType:
    def test_rejects_bad_first_column(self):
        with pytest.raises(TensorError):
            KnnIndex(np.array([[1, 0], [0, 1]]))

    def test_rejects_duplicates(self):
        with pytest.raises(TensorError):
            KnnIndex(np.array([[0, 0], [1, 0]]))

    def test_relabel_consistency(self, rng):
        x = random_points(rng, 24)
        knn = knn_indices(x, 5)
        perm = rng.permutation(24)
        permuted = points(x.coords.data[perm])
        rel = relabel_knn(knn, perm)
        d = pairwise_distances(permuted)
        # Relabeled rows carry the same neighbor geometry.
        dorig = pairwise_distances(x)
        for new_a in range(24):
            old_a = perm[new_a]
            assert np.allclose(d[new_a, rel.idx[new_a]], dorig[old_a, knn.idx[old_a]])
