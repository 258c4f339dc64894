"""Equivalence suite: vectorized builder vs the recursive reference.

The vectorized pipeline (`repro.kdtree.flat_build`) must be
bit-identical to the legacy builder under the shared tie-break rule
(equal coordinates go left, stable sample order): same tree shape,
same bucket membership in the same order, same ``BuildTrace`` totals.
These tests pin that contract across seeds, degenerate geometry, and
configuration corners, plus the ``build.*`` observability counters.
"""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.datasets.synthetic import gaussian_clusters, uniform_cloud
from repro.kdtree import (
    FlatKdTree,
    KdForest,
    KdForestConfig,
    KdTreeConfig,
    build_flat,
    build_tree,
    check_tree,
    update_tree,
)


def legacy_config(**kwargs) -> KdTreeConfig:
    return KdTreeConfig(builder="legacy", **kwargs)


def vectorized_config(**kwargs) -> KdTreeConfig:
    return KdTreeConfig(builder="vectorized", **kwargs)


def assert_trees_identical(a, b):
    """Node-for-node, bucket-for-bucket equality (order included)."""
    assert len(a.nodes) == len(b.nodes)
    for na, nb in zip(a.nodes, b.nodes):
        assert na == nb
    assert len(a.buckets) == len(b.buckets)
    for ba, bb in zip(a.buckets, b.buckets):
        assert np.array_equal(ba, bb)


def assert_flats_identical(a: FlatKdTree, b: FlatKdTree):
    for name in ("dim", "threshold", "left", "right", "is_leaf",
                 "bucket_id", "bucket_offsets", "bucket_members"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def build_both(points, **cfg_kwargs):
    legacy, trace_l = build_tree(points, legacy_config(**cfg_kwargs))
    vect, trace_v = build_tree(points, vectorized_config(**cfg_kwargs))
    return legacy, trace_l, vect, trace_v


CONFIG_CORNERS = [
    {},
    {"bucket_capacity": 4},
    {"bucket_capacity": 64},
    {"min_samples_per_leaf": 8},
    {"max_depth": 3},
    {"split_dims": (2, 0)},
    {"sample_size": 333},
    {"bucket_capacity": 16, "split_dims": (1,), "min_samples_per_leaf": 4},
]


class TestBitIdentity:
    @pytest.mark.parametrize("cfg_kwargs", CONFIG_CORNERS)
    def test_config_corners(self, cfg_kwargs):
        cloud = gaussian_clusters(3_000, rng=np.random.default_rng(11))
        legacy, trace_l, vect, trace_v = build_both(cloud, **cfg_kwargs)
        assert_trees_identical(legacy, vect)
        assert trace_l.as_dict() == trace_v.as_dict()
        assert trace_l.sort_sizes == trace_v.sort_sizes
        check_tree(vect)

    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 99])
    def test_seeds(self, seed):
        rng = np.random.default_rng(seed)
        cloud = uniform_cloud(2_500, rng=rng)
        legacy, _, vect, _ = build_both(cloud, bucket_capacity=32)
        assert_trees_identical(legacy, vect)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 257])
    def test_tiny_inputs(self, n):
        xyz = np.random.default_rng(n).normal(size=(n, 3))
        legacy, _, vect, _ = build_both(xyz, bucket_capacity=4)
        assert_trees_identical(legacy, vect)

    def test_duplicate_coordinates(self):
        # Many exact duplicates force the tie-break rule to matter.
        rng = np.random.default_rng(3)
        base = rng.normal(size=(40, 3))
        xyz = base[rng.integers(0, 40, size=4_000)]
        legacy, _, vect, _ = build_both(xyz, bucket_capacity=16)
        assert_trees_identical(legacy, vect)

    def test_degenerate_axis(self):
        # One constant coordinate: every split on it ties everywhere.
        rng = np.random.default_rng(4)
        xyz = rng.normal(size=(2_000, 3))
        xyz[:, 1] = 7.25
        legacy, _, vect, _ = build_both(xyz, bucket_capacity=16)
        assert_trees_identical(legacy, vect)

    def test_off_origin_utm_frame(self):
        # UTM-style coordinates: large offsets, small spreads.
        rng = np.random.default_rng(5)
        xyz = rng.normal(size=(3_000, 3)) * [8.0, 8.0, 2.0]
        xyz += [4.5e5, 5.1e6, 120.0]
        legacy, _, vect, _ = build_both(xyz, bucket_capacity=32)
        assert_trees_identical(legacy, vect)

    def test_place_false_matches(self):
        cloud = gaussian_clusters(2_000, rng=np.random.default_rng(6))
        legacy, trace_l = build_tree(cloud, legacy_config(), place=False)
        vect, trace_v = build_tree(cloud, vectorized_config(), place=False)
        assert_trees_identical(legacy, vect)
        assert trace_l.placement_traversals == trace_v.placement_traversals == 0

    def test_rng_stream_consumed_identically(self):
        # Same generator state afterwards: downstream draws line up.
        cloud = uniform_cloud(5_000, rng=np.random.default_rng(8))
        rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
        build_tree(cloud, legacy_config(sample_size=512), rng=rng_a)
        build_tree(cloud, vectorized_config(sample_size=512), rng=rng_b)
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)


class TestBuildFlat:
    def test_matches_from_tree_conversion(self):
        cloud = gaussian_clusters(4_000, rng=np.random.default_rng(9))
        config = KdTreeConfig(bucket_capacity=64)
        legacy, _ = build_tree(cloud, legacy_config(bucket_capacity=64))
        flat, _ = build_flat(cloud, config)
        assert_flats_identical(FlatKdTree.from_tree(legacy), flat)

    def test_attached_flat_reused_by_tree(self):
        cloud = gaussian_clusters(1_000, rng=np.random.default_rng(10))
        tree, _ = build_tree(cloud, vectorized_config(bucket_capacity=32))
        assert tree.flat() is tree.flat()
        assert_flats_identical(tree.flat(), FlatKdTree.from_tree(tree))

    def test_queries_agree_between_builders(self):
        from repro.kdtree import knn_approx_batched

        cloud = gaussian_clusters(3_000, rng=np.random.default_rng(12))
        queries = gaussian_clusters(200, rng=np.random.default_rng(13)).xyz
        legacy, _ = build_tree(cloud, legacy_config(bucket_capacity=64))
        flat, _ = build_flat(cloud, KdTreeConfig(bucket_capacity=64))
        res_l = knn_approx_batched(FlatKdTree.from_tree(legacy), queries, 5)
        res_v = knn_approx_batched(flat, queries, 5)
        assert np.array_equal(res_l.indices, res_v.indices)


class TestTraceSerialization:
    def test_sort_sizes_are_plain_ints(self):
        cloud = gaussian_clusters(2_000, rng=np.random.default_rng(14))
        for config in (legacy_config(), vectorized_config()):
            _, trace = build_tree(cloud, config)
            assert all(type(s) is int for s in trace.sort_sizes)
            assert type(trace.sample_size) is int

    def test_as_dict_is_json_serializable(self):
        cloud = gaussian_clusters(2_000, rng=np.random.default_rng(15))
        for config in (legacy_config(), vectorized_config()):
            _, trace = build_tree(cloud, config)
            payload = json.loads(json.dumps(trace.as_dict()))
            assert payload["sorted_elements"] == trace.sorted_elements

    def test_update_trace_json_serializable(self):
        cloud = gaussian_clusters(1_500, rng=np.random.default_rng(16))
        tree, _ = build_tree(cloud, KdTreeConfig(bucket_capacity=32))
        extra = gaussian_clusters(300, rng=np.random.default_rng(17)).xyz
        _, trace = update_tree(tree, extra, KdTreeConfig(bucket_capacity=32))
        json.dumps(trace.as_dict())


class TestForestBuilder:
    def test_vectorized_forest_valid_and_covers_points(self):
        ref = gaussian_clusters(2_000, rng=np.random.default_rng(22))
        forest = KdForest(
            ref,
            KdForestConfig(n_trees=3, bucket_capacity=64, builder="vectorized"),
            rng=np.random.default_rng(1),
        )
        n = ref.xyz.shape[0]
        for tree in forest.trees:
            check_tree(tree)
            members = np.concatenate([b for b in tree.buckets if b.size])
            assert np.array_equal(np.sort(members), np.arange(n))

    def test_forest_builder_validation_and_stats(self):
        with pytest.raises(ValueError):
            KdForestConfig(builder="nope")
        ref = gaussian_clusters(500, rng=np.random.default_rng(24))
        forest = KdForest(ref, KdForestConfig(n_trees=1, builder="vectorized"))
        assert forest.stats()["builder"] == "vectorized"


class TestObservability:
    def test_build_counters_recorded(self):
        cloud = gaussian_clusters(1_000, rng=np.random.default_rng(25))
        registry = obs.enable()
        try:
            build_tree(cloud, vectorized_config(bucket_capacity=32))
            build_tree(cloud, legacy_config(bucket_capacity=32))
            snap = registry.snapshot()
        finally:
            obs.disable()
        counters = snap["counters"]
        assert counters["build.calls"] == 2
        assert counters["build.calls.vectorized"] == 1
        assert counters["build.calls.legacy"] == 1
        assert counters["build.points"] == 2_000
        assert counters["build.placement_traversals"] == 2_000
        assert counters["build.sorted_elements"] > 0
        assert "build.sample_size" in snap["distributions"]

    def test_config_rejects_unknown_builder(self):
        with pytest.raises(ValueError):
            KdTreeConfig(builder="fancy")
