"""Unit tests for approximate, best-bin-first, and exact search."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.baselines import knn_bruteforce
from repro.datasets.synthetic import uniform_cloud
from repro.kdtree import BbfConfig, KdTreeConfig, build_tree, knn_approx, knn_bbf, knn_exact
from repro.kdtree.search import PAD_INDEX


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(42)
    ref = uniform_cloud(2000, rng=rng)
    queries = uniform_cloud(200, rng=rng).xyz
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=64))
    return tree, ref, queries


class TestExact:
    def test_matches_scipy(self, setup):
        tree, ref, queries = setup
        result = knn_exact(tree, queries, k=5)
        d, i = cKDTree(ref.xyz).query(queries, k=5)
        assert np.allclose(result.distances, d)

    def test_k_one(self, setup):
        tree, ref, queries = setup
        result = knn_exact(tree, queries, k=1)
        d, _ = cKDTree(ref.xyz).query(queries, k=1)
        assert np.allclose(result.distances[:, 0], d)

    def test_k_larger_than_n_pads(self, rng):
        ref = uniform_cloud(5, rng=rng)
        tree, _ = build_tree(ref)
        result = knn_exact(tree, ref.xyz[:2], k=10)
        assert (result.indices[:, 5:] == PAD_INDEX).all()
        assert np.isinf(result.distances[:, 5:]).all()
        assert (result.indices[:, :5] != PAD_INDEX).all()

    def test_query_on_reference_point_finds_itself(self, setup):
        tree, ref, _ = setup
        result = knn_exact(tree, ref.xyz[7], k=1)
        assert result.indices[0, 0] == 7
        assert result.distances[0, 0] == 0.0


class TestApprox:
    def test_distances_sorted(self, setup):
        tree, _, queries = setup
        result = knn_approx(tree, queries, k=8)
        valid = result.distances[~np.isinf(result.distances).any(axis=1)]
        assert (np.diff(valid, axis=1) >= 0).all()

    def test_results_come_from_own_bucket(self, setup):
        tree, _, queries = setup
        result = knn_approx(tree, queries, k=3)
        leaf_ids = tree.descend_batch(queries)
        for qi in range(len(queries)):
            bucket = set(tree.buckets[tree.nodes[int(leaf_ids[qi])].bucket_id].tolist())
            found = result.indices[qi]
            assert all(int(f) in bucket for f in found if f != PAD_INDEX)

    def test_never_beats_exact(self, setup):
        tree, _, queries = setup
        approx = knn_approx(tree, queries, k=4)
        exact = knn_exact(tree, queries, k=4)
        finite = ~np.isinf(approx.distances)
        assert (approx.distances[finite] >= exact.distances[finite] - 1e-12).all()

    def test_majority_recall_on_uniform(self, setup):
        tree, ref, queries = setup
        approx = knn_approx(tree, queries, k=5)
        exact = knn_bruteforce(ref, queries, 5)
        hits = np.mean([
            len(set(approx.indices[i]) & set(exact.indices[i])) / 5
            for i in range(len(queries))
        ])
        assert hits > 0.5

    def test_single_query_shape(self, setup):
        tree, _, queries = setup
        result = knn_approx(tree, queries[0], k=2)
        assert result.indices.shape == (1, 2)

    def test_rejects_bad_k(self, setup):
        tree, _, queries = setup
        with pytest.raises(ValueError):
            knn_approx(tree, queries, k=0)


class TestBbf:
    def test_one_leaf_equals_approx(self, setup):
        tree, _, queries = setup
        bbf = knn_bbf(tree, queries, k=5, config=BbfConfig(max_leaves=1))
        approx = knn_approx(tree, queries, k=5)
        assert np.array_equal(bbf.indices, approx.indices)

    def test_more_leaves_more_accurate(self, setup):
        tree, ref, queries = setup
        exact = knn_bruteforce(ref, queries, 5)

        def recall(result):
            return np.mean([
                len(set(result.indices[i]) & set(exact.indices[i])) / 5
                for i in range(len(queries))
            ])

        r1 = recall(knn_bbf(tree, queries, k=5, config=BbfConfig(max_leaves=1)))
        r4 = recall(knn_bbf(tree, queries, k=5, config=BbfConfig(max_leaves=4)))
        assert r4 >= r1

    def test_unbounded_budget_is_exact(self, setup):
        tree, _, queries = setup
        bbf = knn_bbf(tree, queries, k=5, config=BbfConfig(max_leaves=tree.n_leaves))
        exact = knn_exact(tree, queries, k=5)
        assert np.allclose(bbf.distances, exact.distances)

    def test_rejects_bad_budget(self, setup):
        tree, _, queries = setup
        with pytest.raises(ValueError):
            knn_bbf(tree, queries, k=5, config=BbfConfig(max_leaves=0))
