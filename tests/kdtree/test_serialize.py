"""Unit tests for k-d tree serialization.

A node tree is saved as the :class:`~repro.kdtree.snapshot.Snapshot` of
its flat view and comes back through ``KdTree.from_flat``.
"""

import io

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_cloud
from repro.kdtree import (
    FlatKdTree,
    KdTree,
    KdTreeConfig,
    Snapshot,
    build_flat,
    build_tree,
    check_tree,
    knn_approx,
    knn_exact_batched,
    load_tree,
    save_tree,
)
from repro.kdtree.snapshot import FLAT_FIELDS


@pytest.fixture
def tree(rng):
    cloud = uniform_cloud(1_000, rng=rng)
    tree, _ = build_tree(cloud, KdTreeConfig(bucket_capacity=64))
    return tree


def _node_view(tree: KdTree) -> KdTree:
    return KdTree.from_flat(FlatKdTree.from_tree(tree))


class TestArrays:
    def test_roundtrip_preserves_structure(self, tree):
        clone = _node_view(tree)
        check_tree(clone)
        assert clone.n_nodes == tree.n_nodes
        assert clone.n_leaves == tree.n_leaves
        for a, b in zip(tree.nodes, clone.nodes):
            assert (a.parent, a.depth, a.dim, a.left, a.right, a.bucket_id) == (
                b.parent, b.depth, b.dim, b.left, b.right, b.bucket_id
            )
            assert a.threshold == b.threshold or (
                np.isnan(a.threshold) and np.isnan(b.threshold)
            )

    def test_roundtrip_preserves_search(self, tree, rng):
        clone = _node_view(tree)
        queries = uniform_cloud(50, rng=rng).xyz
        original = knn_approx(tree, queries, 5)
        restored = knn_approx(clone, queries, 5)
        assert np.array_equal(original.indices, restored.indices)

    def test_empty_bucket_roundtrip(self, rng):
        # Degenerate data produces empty buckets; they must survive.
        points = np.tile([[0.0, 0.0, 0.0]], (100, 1))
        degenerate, _ = build_tree(points, KdTreeConfig(bucket_capacity=16))
        clone = _node_view(degenerate)
        assert int(clone.bucket_sizes().sum()) == 100
        assert np.array_equal(clone.bucket_sizes(), degenerate.bucket_sizes())


class TestFileIo:
    def test_save_load_stream(self, tree):
        buffer = io.BytesIO()
        save_tree(tree, buffer)
        buffer.seek(0)
        clone = load_tree(buffer)
        check_tree(clone)
        assert clone.n_points == tree.n_points
        assert clone.nodes == tree.nodes

    def test_save_load_path(self, tree, tmp_path):
        path = tmp_path / "tree.npz"
        save_tree(tree, path)
        clone = load_tree(path)
        assert clone.n_nodes == tree.n_nodes
        for a, b in zip(tree.buckets, clone.buckets):
            assert np.array_equal(a, b)


class TestFlatSnapshots:
    """A tree file is the snapshot of the tree's flat view."""

    @pytest.fixture
    def flat(self, rng):
        cloud = uniform_cloud(1_500, rng=rng)
        flat, _ = build_flat(cloud, KdTreeConfig(bucket_capacity=64))
        return flat

    @staticmethod
    def _assert_bit_identical(a, b):
        for name in FLAT_FIELDS:
            assert getattr(a, name).dtype == getattr(b, name).dtype, name
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_arrays_roundtrip_bit_identical(self, flat):
        self._assert_bit_identical(FlatKdTree.from_tree(KdTree.from_flat(flat)), flat)

    def test_file_roundtrip_bit_identical(self, flat, tmp_path):
        path = tmp_path / "tree.npz"
        save_tree(KdTree.from_flat(flat), path)
        self._assert_bit_identical(load_tree(path).flat(), flat)

    def test_loaded_flat_answers_identically(self, flat, rng, tmp_path):
        path = tmp_path / "tree.npz"
        save_tree(KdTree.from_flat(flat), path)
        clone = load_tree(path)
        queries = uniform_cloud(200, rng=rng).xyz
        a, _ = knn_exact_batched(flat, queries, 6)
        b, _ = knn_exact_batched(clone, queries, 6)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.distances, b.distances)

    def test_extras_roundtrip(self, flat, tmp_path):
        # A snapshot with side arrays (a served shard's global ids)
        # loads as a tree; save_tree itself writes none.
        path = tmp_path / "shard.npz"
        ids = np.arange(0, 1_500, 3, dtype=np.int64)
        Snapshot.from_flat(flat, extra={"global_ids": ids}).save(path)
        clone = load_tree(path)
        assert np.array_equal(clone.points, flat.points)
        save_tree(clone, path)
        assert Snapshot.load(path).extras == {}

    def test_version_check(self, flat, tmp_path):
        payload = Snapshot.from_flat(flat).to_payload()
        payload["flat_version"] = np.array([99], dtype=np.int64)
        path = tmp_path / "future.npz"
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_tree(path)

    def test_stream_roundtrip(self, flat):
        buffer = io.BytesIO()
        save_tree(KdTree.from_flat(flat), buffer)
        buffer.seek(0)
        clone = load_tree(buffer)
        assert np.array_equal(clone.flat().bucket_offsets, flat.bucket_offsets)


class TestIndexSnapshots:
    @pytest.fixture
    def reference(self, rng):
        return uniform_cloud(1_200, rng=rng).xyz

    @pytest.mark.parametrize("name", ["kd-approx", "kd-exact"])
    def test_adapter_roundtrip_identical(self, name, reference, rng, tmp_path):
        from repro.index import make_index

        index = make_index(name, reference)
        path = tmp_path / "snap.npz"
        index.save_snapshot(path)
        restored = type(index).from_snapshot(path)
        queries = uniform_cloud(100, rng=rng).xyz
        a = index.query(queries, 5)
        b = restored.query(queries, 5)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.distances, b.distances)
        assert restored.stats()["n_reference"] == 1_200

    def test_bbf_snapshot_unsupported(self, reference, tmp_path):
        from repro.index import make_index
        from repro.index.adapters import KdBbfIndex

        index = make_index("kd-bbf", reference)
        path = tmp_path / "snap.npz"
        index.save_snapshot(path)  # saving works: the flat layout exists
        with pytest.raises(NotImplementedError, match="kd-bbf"):
            KdBbfIndex.from_snapshot(path)
