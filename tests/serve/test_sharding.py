"""Shard plans and the canonical cross-shard top-k merge."""

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_cloud
from repro.kdtree import PAD_INDEX, build_flat, knn_exact_batched
from repro.serve import make_plan, merge_topk


class TestMakePlan:
    @pytest.mark.parametrize("strategy", ["round-robin", "spatial"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_partition(self, rng, strategy, n_shards):
        xyz = uniform_cloud(997, rng=rng).xyz
        plan = make_plan(xyz, n_shards, strategy)
        assert plan.n_shards == n_shards
        combined = np.concatenate(plan.global_ids)
        assert combined.size == 997
        assert np.array_equal(np.sort(combined), np.arange(997))

    def test_round_robin_is_balanced(self, rng):
        xyz = uniform_cloud(1000, rng=rng).xyz
        plan = make_plan(xyz, 4, "round-robin")
        assert all(ids.size == 250 for ids in plan.global_ids)

    def test_spatial_is_near_balanced(self, rng):
        xyz = uniform_cloud(1000, rng=rng).xyz
        sizes = [ids.size for ids in make_plan(xyz, 4, "spatial").global_ids]
        assert max(sizes) - min(sizes) <= 1

    def test_spatial_cells_are_compact(self, rng):
        # Median cuts should give each cell a smaller bounding box than
        # the whole cloud on the cut axes.
        xyz = uniform_cloud(2000, rng=rng).xyz
        plan = make_plan(xyz, 4, "spatial")
        full = (xyz.max(axis=0) - xyz.min(axis=0)).prod()
        for ids in plan.global_ids:
            cell = xyz[ids]
            volume = (cell.max(axis=0) - cell.min(axis=0)).prod()
            assert volume < full * 0.6

    def test_describe(self, rng):
        plan = make_plan(uniform_cloud(100, rng=rng).xyz, 2, "round-robin")
        d = plan.describe()
        assert d["n_shards"] == 2 and d["n_points"] == 100

    def test_rejects_bad_inputs(self, rng):
        xyz = uniform_cloud(10, rng=rng).xyz
        with pytest.raises(ValueError, match="n_shards"):
            make_plan(xyz, 0, "round-robin")
        with pytest.raises(ValueError, match="cannot split"):
            make_plan(xyz, 11, "round-robin")
        with pytest.raises(ValueError, match="unknown sharding"):
            make_plan(xyz, 2, "diagonal")


def _sharded_exact(xyz, queries, k, n_shards, strategy="round-robin"):
    """Reference implementation of the serve fan-out/merge, inline."""
    plan = make_plan(xyz, n_shards, strategy)
    idx_parts, dst_parts = [], []
    for ids in plan.global_ids:
        flat, _ = build_flat(xyz[ids])
        res, _ = knn_exact_batched(flat, queries, k)
        translated = ids[res.indices]
        translated[res.indices == PAD_INDEX] = PAD_INDEX
        idx_parts.append(translated)
        dst_parts.append(res.distances)
    return merge_topk(idx_parts, dst_parts, k)


class TestMergeTopk:
    """The acceptance bar: merged answers == single-index ground truth."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_identical_to_unsharded(self, rng, n_shards):
        xyz = uniform_cloud(3000, rng=rng).xyz
        queries = uniform_cloud(300, rng=rng).xyz
        flat, _ = build_flat(xyz)
        truth, _ = knn_exact_batched(flat, queries, 8)
        idx, dst = _sharded_exact(xyz, queries, 8, n_shards)
        assert np.array_equal(dst, truth.distances)
        assert np.array_equal(idx, truth.indices)

    @pytest.mark.parametrize("offset", [100.0, 1000.0, 1e5])
    def test_identical_off_origin(self, rng, offset):
        # UTM-style frames far from the origin stress the selection
        # metric's rounding; the merge must stay bit-identical.
        xyz = uniform_cloud(2000, rng=rng).xyz + offset
        queries = uniform_cloud(200, rng=rng).xyz + offset
        flat, _ = build_flat(xyz)
        truth, _ = knn_exact_batched(flat, queries, 8)
        idx, dst = _sharded_exact(xyz, queries, 8, 3)
        assert np.array_equal(dst, truth.distances)
        assert np.array_equal(idx, truth.indices)

    def test_duplicate_distance_ties_are_canonical(self, rng):
        # Duplicated points give exactly-tied distances.  Every path
        # ranks by (distance, id), so the merged rows equal the
        # monolithic engine's for every shard count, indices included,
        # and within every tied run the ids ascend.
        base = uniform_cloud(500, rng=rng).xyz
        xyz = np.concatenate([base, base[:200], base[:100]])  # many exact ties
        queries = base[:100] + rng.normal(scale=0.01, size=(100, 3))
        flat, _ = build_flat(xyz)
        truth, _ = knn_exact_batched(flat, queries, 6)
        for s in (1, 2, 4):
            idx, dst = _sharded_exact(xyz, queries, 6, s)
            assert np.array_equal(dst, truth.distances), s
            assert np.array_equal(idx, truth.indices), s
            tied = dst[:, 1:] == dst[:, :-1]
            assert (idx[:, 1:][tied] > idx[:, :-1][tied]).all(), s

    def test_tied_set_matches_ground_truth_per_row(self, rng):
        # Every point doubled: each query's neighbours come in tied
        # pairs, and ties straddle the k boundary.  The merged rows are
        # the (distance, id) ranking of the whole cloud.
        base = uniform_cloud(400, rng=rng).xyz
        xyz = np.concatenate([base, base])
        queries = base[:50]
        idx, dst = _sharded_exact(xyz, queries, 5, 3)
        for row in range(50):
            d = np.sqrt(((xyz - queries[row]) ** 2).sum(axis=1))
            want = np.lexsort((np.arange(xyz.shape[0]), d))[:5]
            assert np.array_equal(idx[row], want)
            assert np.array_equal(dst[row], d[want])

    def test_padding_sorts_last(self):
        # One shard answers, the other is out of points: inf/PAD must
        # sink to the end and keep PAD_INDEX.
        idx_a = np.array([[3, PAD_INDEX]])
        dst_a = np.array([[1.0, np.inf]])
        idx_b = np.array([[7, 5]])
        dst_b = np.array([[0.5, 2.0]])
        idx, dst = merge_topk([idx_a, idx_b], [dst_a, dst_b], 3)
        assert np.array_equal(idx, [[7, 3, 5]])
        assert np.array_equal(dst, [[0.5, 1.0, 2.0]])

    def test_all_pad_row(self):
        idx, dst = merge_topk(
            [np.full((1, 2), PAD_INDEX)], [np.full((1, 2), np.inf)], 2
        )
        assert np.array_equal(idx, [[PAD_INDEX, PAD_INDEX]])
        assert np.isinf(dst).all()

    def test_k_larger_than_any_single_shard(self, rng):
        # k exceeds every shard's point count: the merge must still
        # recover the global top-k from the per-shard full lists.
        xyz = uniform_cloud(30, rng=rng).xyz
        queries = uniform_cloud(20, rng=rng).xyz
        flat, _ = build_flat(xyz)
        truth, _ = knn_exact_batched(flat, queries, 12)
        idx, dst = _sharded_exact(xyz, queries, 12, 3)
        assert np.array_equal(dst, truth.distances)
        assert np.array_equal(idx, truth.indices)
