"""Unit tests for the brute-force kNN reference."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.baselines import knn_bruteforce
from repro.datasets.synthetic import uniform_cloud
from repro.kdtree.search import PAD_INDEX


class TestCorrectness:
    def test_matches_scipy(self, rng):
        ref = uniform_cloud(500, rng=rng)
        qry = uniform_cloud(50, rng=rng)
        ours = knn_bruteforce(ref, qry, 7)
        d, i = cKDTree(ref.xyz).query(qry.xyz, k=7)
        assert np.allclose(ours.distances, d, atol=1e-9)
        assert np.array_equal(ours.indices, i)

    def test_chunking_invariant(self, rng):
        ref = uniform_cloud(300, rng=rng)
        qry = uniform_cloud(97, rng=rng)
        small = knn_bruteforce(ref, qry, 4, chunk_size=8)
        big = knn_bruteforce(ref, qry, 4, chunk_size=10_000)
        assert np.array_equal(small.indices, big.indices)

    def test_k_exceeds_reference(self, rng):
        ref = uniform_cloud(3, rng=rng)
        qry = uniform_cloud(5, rng=rng)
        result = knn_bruteforce(ref, qry, 6)
        assert (result.indices[:, 3:] == PAD_INDEX).all()
        assert np.isinf(result.distances[:, 3:]).all()
        assert (result.indices[:, :3] != PAD_INDEX).all()

    def test_single_query(self, rng):
        ref = uniform_cloud(50, rng=rng)
        result = knn_bruteforce(ref, ref.xyz[0], 1)
        assert result.indices[0, 0] == 0
        assert result.distances[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_ties_produce_valid_ordering(self):
        ref = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        result = knn_bruteforce(ref, np.array([0.0, 0.0, 0.0]), 3)
        assert result.indices[0, 0] == 0
        assert set(result.indices[0, 1:].tolist()) == {1, 2}


class TestMemory:
    def test_peak_is_scores_plus_partition_copy(self, rng):
        """The documented peak: one chunk's (chunk, N) float64 scores and
        the copy ``np.partition`` makes of them, and nothing more of
        that size."""
        ref = uniform_cloud(20_000, rng=rng)
        qry = uniform_cloud(256, rng=rng)
        chunk = 128
        knn_bruteforce(ref, qry.xyz[:4], 8)
        tracemalloc.start()
        try:
            knn_bruteforce(ref, qry, 8, chunk_size=chunk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scores = chunk * ref.xyz.shape[0] * 8
        assert peak < 2.05 * scores


class TestValidation:
    def test_rejects_empty_reference(self, rng):
        with pytest.raises(ValueError, match="empty"):
            knn_bruteforce(np.empty((0, 3)), uniform_cloud(5, rng=rng), 1)

    def test_rejects_bad_k(self, rng):
        cloud = uniform_cloud(5, rng=rng)
        with pytest.raises(ValueError):
            knn_bruteforce(cloud, cloud, 0)

    def test_rejects_bad_chunk(self, rng):
        cloud = uniform_cloud(5, rng=rng)
        with pytest.raises(ValueError):
            knn_bruteforce(cloud, cloud, 1, chunk_size=0)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            knn_bruteforce(np.zeros((5, 2)), np.zeros((5, 3)), 1)
