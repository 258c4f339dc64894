"""Tests for the batched vectorized query engine (repro.kdtree.engine).

The engine's contract is strict: not just "close", but element-for-
element identical results to the per-query loop paths, for both the
approximate and the exact search.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.baselines import knn_bruteforce
from repro.datasets import lidar_frame_pair
from repro.kdtree import (
    FlatKdTree,
    KdTreeConfig,
    build_tree,
    knn_approx,
    knn_approx_loop,
    knn_exact,
    update_tree,
)
from repro.kdtree.engine import knn_approx_batched, knn_exact_batched


@pytest.fixture(scope="module")
def workload():
    ref, qry = lidar_frame_pair(4_000, seed=3)
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=128))
    return tree, ref, qry.xyz[:1_000]


class TestFlatLayout:
    def test_descend_matches_tree(self, workload):
        tree, _, queries = workload
        want = [tree.descend(q).index for q in queries]
        assert np.array_equal(tree.flat().descend(queries), want)

    def test_csr_buckets_match_tree(self, workload):
        tree, _, _ = workload
        flat = tree.flat()
        assert flat.n_buckets == len(tree.buckets)
        for bucket_id, members in enumerate(tree.buckets):
            assert np.array_equal(flat.bucket(bucket_id), members)

    def test_cached_and_invalidated(self, workload):
        tree, _, _ = workload
        assert tree.flat() is tree.flat()
        tree.invalidate_caches()
        assert isinstance(tree.flat(), FlatKdTree)

    def test_stats(self, workload):
        tree, _, _ = workload
        stats = tree.flat().stats()
        assert stats["n_points"] == tree.n_points
        assert stats["n_leaves"] == tree.n_leaves

    def test_rejects_empty_tree(self, workload):
        _, ref, _ = workload
        from repro.kdtree.node import KdTree

        with pytest.raises(ValueError):
            FlatKdTree.from_tree(KdTree(points=ref.xyz))


class TestApproxIdentity:
    @pytest.mark.parametrize("k", [1, 4, 8, 16])
    def test_identical_to_loop(self, workload, k):
        tree, _, queries = workload
        fast = knn_approx(tree, queries, k)
        slow = knn_approx_loop(tree, queries, k)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    def test_identical_when_k_exceeds_buckets(self, workload):
        tree, _, queries = workload
        # k far beyond the bucket capacity: every row ends in padding.
        fast = knn_approx(tree, queries, 200)
        slow = knn_approx_loop(tree, queries, 200)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    def test_direct_entrypoint(self, workload):
        tree, _, queries = workload
        result = knn_approx_batched(tree.flat(), queries, 4)
        assert np.array_equal(result.indices, knn_approx_loop(tree, queries, 4).indices)

    def test_rejects_bad_k(self, workload):
        tree, _, queries = workload
        with pytest.raises(ValueError):
            knn_approx_batched(tree.flat(), queries, 0)


class TestOffsetCloudIdentity:
    """Regression: frames far from the origin (UTM-style coordinates).

    The BLAS selection expansion's cancellation error grows with the
    magnitude of the coordinates it sees, which on raw coordinates used
    to corrupt candidate selection for off-origin clouds; the engine
    now evaluates it in each bucket's own frame, so the identity
    contract must hold at any offset.
    """

    @pytest.fixture(scope="class", params=[100.0, 1_000.0, 1e5])
    def offset_workload(self, request):
        ref, qry = lidar_frame_pair(3_000, seed=7)
        shift = np.full(3, request.param)
        tree, _ = build_tree(ref.xyz + shift, KdTreeConfig(bucket_capacity=64))
        return tree, ref.xyz + shift, qry.xyz[:600] + shift

    def test_approx_identical_to_loop(self, offset_workload):
        tree, _, queries = offset_workload
        fast = knn_approx(tree, queries, 8)
        slow = knn_approx_loop(tree, queries, 8)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    def test_exact_identical_to_loop(self, offset_workload):
        tree, _, queries = offset_workload
        fast = knn_exact(tree, queries, 5)
        slow = knn_exact(tree, queries, 5, engine=False)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    def test_exact_matches_scipy(self, offset_workload):
        tree, ref_xyz, queries = offset_workload
        result = knn_exact(tree, queries, k=4)
        d, _ = cKDTree(ref_xyz).query(queries, k=4)
        assert np.allclose(result.distances, d)


class TestExactIdentity:
    @pytest.mark.parametrize("k", [1, 5, 8])
    def test_identical_to_loop(self, workload, k):
        tree, _, queries = workload
        fast = knn_exact(tree, queries, k)
        slow = knn_exact(tree, queries, k, engine=False)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)

    def test_matches_scipy(self, workload):
        tree, ref, queries = workload
        result = knn_exact(tree, queries, k=5)
        d, _ = cKDTree(ref.xyz).query(queries, k=5)
        assert np.allclose(result.distances, d)

    def test_visit_counts(self, workload):
        tree, _, queries = workload
        _, visits = knn_exact_batched(tree, queries, 8)
        assert (visits >= 1).all()
        # The radius test must settle at least some queries in one bucket.
        assert (visits == 1).any()

    def test_after_incremental_update(self, workload):
        tree, _, queries = workload
        _, qry2 = lidar_frame_pair(4_000, seed=11)
        new_tree, _ = update_tree(tree, qry2, KdTreeConfig(bucket_capacity=128))
        fast = knn_approx(new_tree, queries, 4)
        slow = knn_approx_loop(new_tree, queries, 4)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.array_equal(fast.distances, slow.distances)


class TestVisitBudget:
    """The max_visits knob: bounded backtracking for graceful degradation."""

    def test_zero_budget_equals_approx(self, workload):
        tree, _, queries = workload
        budgeted, _ = knn_exact_batched(tree, queries, 8, max_visits=0)
        approx = knn_approx_batched(tree.flat(), queries, 8)
        assert np.array_equal(budgeted.indices, approx.indices)
        assert np.array_equal(budgeted.distances, approx.distances)

    def test_unbounded_budget_is_exact(self, workload):
        tree, _, queries = workload
        exact, _ = knn_exact_batched(tree, queries, 8)
        huge, _ = knn_exact_batched(tree, queries, 8, max_visits=10**9)
        assert np.array_equal(exact.indices, huge.indices)
        assert np.array_equal(exact.distances, huge.distances)

    def test_recall_monotone_in_budget(self, workload):
        tree, ref, queries = workload
        exact, _ = knn_exact_batched(tree, queries, 8)
        recalls = []
        for budget in (0, 1, 4, 16):
            got, _ = knn_exact_batched(tree, queries, 8, max_visits=budget)
            hits = sum(
                np.intersect1d(got.indices[i], exact.indices[i]).size
                for i in range(queries.shape[0])
            )
            recalls.append(hits / exact.indices.size)
        assert recalls == sorted(recalls)
        assert recalls[-1] > recalls[0]

    def test_budget_bounds_visits(self, workload):
        tree, _, queries = workload
        _, visits = knn_exact_batched(tree, queries, 8, max_visits=3)
        # home leaf + at most 3 budgeted extra buckets
        assert visits.max() <= 4

    def test_negative_budget_rejected(self, workload):
        tree, _, queries = workload
        with pytest.raises(ValueError, match="max_visits"):
            knn_exact_batched(tree, queries, 8, max_visits=-1)


class TestSelectionTieOverflow:
    """Boundary ties wider than SELECT_PAD must not drop a true neighbor.

    An unsplittable bucket of duplicates, or a bucket stretched by a far
    outlier, can put more candidates within rounding of the selection
    cut than the pad holds; argpartition then picks an arbitrary subset
    and could exclude a strictly closer point.  Rows whose cut the
    rounding margin cannot certify must be re-selected on exact float64
    distances, in the single-bucket pass and the backtracking merge.
    """

    @pytest.fixture()
    def degenerate(self):
        g = np.float64(2.0) ** -9
        points = np.full((128, 3), g)
        points[0] = [g, g, 0.0]            # the strictly nearest point
        points[1] = [-997.0, 69.0, 0.0]    # outlier: inflates the selection scale
        points[2] = [-322.0, 1.0, g]
        tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=8))
        return points, tree

    def test_approx_self_query_finds_duplicate_buried_point(self, degenerate):
        points, tree = degenerate
        result = knn_approx_batched(tree.flat(), points[0][None, :], 1)
        assert result.indices[0, 0] == 0
        assert result.distances[0, 0] == 0.0

    def test_exact_self_query_finds_duplicate_buried_point(self, degenerate):
        points, tree = degenerate
        result, _ = knn_exact_batched(tree, points[0][None, :], 1)
        assert result.indices[0, 0] == 0
        assert result.distances[0, 0] == 0.0

    def test_exact_matches_loop_path_on_duplicate_cloud(self, degenerate):
        points, tree = degenerate
        batched, _ = knn_exact_batched(tree, points[:8], 4)
        loop = knn_exact(tree, points[:8], 4, engine=False)
        assert np.array_equal(batched.distances, loop.distances)

    def test_exact_merge_ranks_submicron_neighbors_beside_outlier(self):
        """The backtracking merge must certify its cut like the home pass.

        A far outlier stretches the scale of the distance expansion
        until neighbors 2^-23 apart are below its rounding; ranking
        them on the expansion alone reported 2^-22.5 instead of 2^-23.
        """
        e = 2.0 ** -23
        distinct = np.array(
            [[0, 0, -e], [0, 0, 0], [0, e, 0], [0, 136.0, 0], [e, 0, 0]]
        )
        ids = [3, 1, 1, 4, 2, 1, 1, 1, 3, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2,
               1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 1, 1, 1, 1, 1, 1, 1]
        points = distinct[ids]
        tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=8))
        batched = knn_exact(tree, points[9:10], 2)
        loop = knn_exact(tree, points[9:10], 2, engine=False)
        brute = knn_bruteforce(points, points[9:10], 2)
        assert np.array_equal(batched.distances, loop.distances)
        assert np.array_equal(batched.distances, brute.distances)
        # The second neighbor has many exact copies; any of them is right.
        assert np.array_equal(points[batched.indices], points[loop.indices])
        assert np.array_equal(points[batched.indices], points[brute.indices])

    def test_exact_merge_carries_outlier_bucket_rounding(self):
        """Values kept from a bucket stretched by a far outlier are only
        as exact as that bucket's frame; a later merge in a finer frame
        must not rank them as if they were exact."""
        rng = np.random.default_rng(37)
        points = rng.normal(size=(32, 3)) * 1e-6
        points[0] = [1e3, -1e3, 5e2]
        tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=4))
        batched = knn_exact(tree, points, 3)
        loop = knn_exact(tree, points, 3, engine=False)
        assert np.array_equal(batched.distances, loop.distances)
