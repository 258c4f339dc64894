"""Blocked out-of-core build + router (repro.kdtree.blocked).

The exactness bar (bit-identity against a monolithic build) lives in
``tests/index/test_blocked_identity.py``; this module covers the
machinery around it: partitioners, the chunked out-of-core staging
path, worker-process fan-out determinism, the persisted manifest, the
bounded resident-block cache, and the serving adapter.
"""

import json

import numpy as np
import pytest

from repro.kdtree import (
    BlockedBuildConfig,
    BlockedIndex,
    KdTreeConfig,
    build_blocked,
    build_flat,
    knn_exact_batched,
)
from repro.kdtree.blocked import PARTITIONERS, _tree_resident_nbytes
from repro.kdtree.search import PAD_INDEX
from repro.kdtree.snapshot import Snapshot


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(3)
    xyz = np.concatenate([
        rng.uniform(-80.0, 80.0, size=(6_000, 3)),
        rng.normal(scale=5.0, size=(2_000, 3)) + [40.0, -30.0, 5.0],
    ])
    queries = rng.uniform(-90.0, 90.0, size=(400, 3))
    return xyz, queries


def _exact(xyz, queries, k):
    flat, _ = build_flat(xyz)
    result, _ = knn_exact_batched(flat, queries, k)
    return result


def _assert_matches_monolithic(result, exact):
    np.testing.assert_array_equal(result.distances, exact.distances)
    np.testing.assert_array_equal(result.indices, exact.indices)


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_registry_has_both(self):
        assert {"grid", "kd-cut"} <= set(PARTITIONERS.available())

    @pytest.mark.parametrize("name", ["grid", "kd-cut"])
    def test_fit_covers_all_points(self, name, cloud):
        xyz, _ = cloud
        lo, hi = xyz.min(axis=0), xyz.max(axis=0)
        n_cells, assign = PARTITIONERS.resolve(name)(xyz[:2_000], lo, hi, 6)
        labels = assign(xyz)
        assert labels.shape == (xyz.shape[0],)
        assert labels.min() >= 0 and labels.max() < n_cells
        assert n_cells >= 6 or name == "kd-cut"

    @pytest.mark.parametrize("name", ["grid", "kd-cut"])
    def test_degenerate_cloud_single_cell(self, name):
        xyz = np.ones((50, 3)) * 7.5
        lo, hi = xyz.min(axis=0), xyz.max(axis=0)
        n_cells, assign = PARTITIONERS.resolve(name)(xyz, lo, hi, 4)
        labels = assign(xyz)
        assert (labels >= 0).all() and (labels < n_cells).all()
        # All duplicates land in one cell: nothing to split on.
        assert np.unique(labels).size == 1


# ----------------------------------------------------------------------
# Build paths
# ----------------------------------------------------------------------
class TestBuild:
    @pytest.mark.parametrize("partitioner", ["grid", "kd-cut"])
    def test_exact_vs_monolithic(self, cloud, tmp_path, partitioner):
        xyz, queries = cloud
        index = build_blocked(
            xyz,
            BlockedBuildConfig(n_blocks=7, partitioner=partitioner),
            block_dir=tmp_path / partitioner,
        )
        assert index.n_blocks >= 2
        _assert_matches_monolithic(
            index.query(queries, 8), _exact(xyz, queries, 8)
        )

    def test_out_of_core_npy_source(self, cloud, tmp_path):
        """A .npy path + tiny chunks: staging memmaps, then cleanup."""
        xyz, queries = cloud
        src = tmp_path / "cloud.npy"
        np.save(src, xyz)
        index = build_blocked(
            str(src),
            BlockedBuildConfig(n_blocks=5, chunk_points=1_000),
            block_dir=tmp_path / "blocks",
        )
        # Staging buffers are deleted once the block snapshots exist.
        assert not (tmp_path / "blocks" / "staging").exists()
        _assert_matches_monolithic(
            index.query(queries, 6), _exact(xyz, queries, 6)
        )

    def test_parallel_build_bit_identical_to_inline(self, cloud, tmp_path):
        """workers=2 must write byte-identical block files to workers=1."""
        xyz, queries = cloud
        inline = build_blocked(
            xyz, BlockedBuildConfig(n_blocks=4, workers=1),
            block_dir=tmp_path / "inline",
        )
        fanned = build_blocked(
            xyz, BlockedBuildConfig(n_blocks=4, workers=2),
            block_dir=tmp_path / "fanned",
        )
        for name in inline.manifest["files"]:
            a = (tmp_path / "inline" / name).read_bytes()
            b = (tmp_path / "fanned" / name).read_bytes()
            assert a == b, name
        want = inline.query(queries, 5)
        got = fanned.query(queries, 5)
        np.testing.assert_array_equal(want.indices, got.indices)
        np.testing.assert_array_equal(want.distances, got.distances)

    def test_manifest_contents(self, cloud, tmp_path):
        xyz, _ = cloud
        build_blocked(
            xyz, BlockedBuildConfig(n_blocks=3), block_dir=tmp_path
        )
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["version"] == 1
        assert doc["n_points"] == xyz.shape[0]
        assert sum(doc["block_points"]) == xyz.shape[0]
        assert len(doc["files"]) == doc["n_blocks"] == len(doc["block_points"])
        assert doc["config"]["partitioner"] == "grid"
        assert len(doc["build"]["blocks"]) == doc["n_blocks"]
        assert doc["build"]["total_s"] > 0

    def test_tiny_cloud_fewer_blocks_than_requested(self, tmp_path):
        xyz = np.random.default_rng(0).normal(size=(5, 3))
        index = build_blocked(
            xyz, BlockedBuildConfig(n_blocks=4), block_dir=tmp_path
        )
        result = index.query(xyz, 8)
        assert (result.indices[:, 5:] == PAD_INDEX).all()
        assert np.isinf(result.distances[:, 5:]).all()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown partitioner 'nope'"):
            BlockedBuildConfig(partitioner="nope")
        with pytest.raises(ValueError, match="n_blocks"):
            BlockedBuildConfig(n_blocks=0)
        with pytest.raises(ValueError, match="workers"):
            BlockedBuildConfig(workers=0)
        with pytest.raises(ValueError, match="chunk_points"):
            BlockedBuildConfig(chunk_points=0)
        with pytest.raises(ValueError, match="shape"):
            build_blocked(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="empty"):
            build_blocked(np.zeros((0, 3)))


# ----------------------------------------------------------------------
# Reopen + resident-block cache
# ----------------------------------------------------------------------
class TestResidency:
    @pytest.fixture(scope="class")
    def built_dir(self, cloud, tmp_path_factory):
        xyz, _ = cloud
        block_dir = tmp_path_factory.mktemp("blocks")
        build_blocked(
            xyz, BlockedBuildConfig(n_blocks=8), block_dir=block_dir
        )
        return block_dir

    def test_reopen_from_manifest(self, cloud, built_dir):
        xyz, queries = cloud
        index = BlockedIndex(built_dir)
        assert index.n_points == xyz.shape[0]
        _assert_matches_monolithic(
            index.query(queries, 6), _exact(xyz, queries, 6)
        )

    @pytest.mark.parametrize("eviction", ["lru", "cost-aware"])
    def test_block_budget_evicts_and_stays_exact(
        self, cloud, built_dir, eviction
    ):
        xyz, queries = cloud
        index = BlockedIndex(
            built_dir, max_resident_blocks=2, eviction=eviction
        )
        _assert_matches_monolithic(
            index.query(queries, 6), _exact(xyz, queries, 6)
        )
        stats = index.stats()
        assert stats["resident_blocks"] <= 2
        assert stats["block_loads"] >= index.n_blocks
        assert stats["block_evictions"] >= stats["block_loads"] - 2
        assert stats["block_visits"] > 0

    def test_byte_budget_evicts(self, cloud, built_dir):
        xyz, queries = cloud
        index = BlockedIndex(built_dir, max_resident_bytes=1)
        _assert_matches_monolithic(
            index.query(queries[:50], 4), _exact(xyz, queries[:50], 4)
        )
        # A 1-byte budget keeps exactly the block being searched.
        assert index.stats()["resident_blocks"] == 1
        assert index.stats()["block_evictions"] > 0

    def test_pruning_skips_far_blocks(self, cloud, built_dir):
        xyz, queries = cloud
        index = BlockedIndex(built_dir)
        index.query(queries, 4)
        stats = index.stats()
        # AABB pruning must beat the visit-everything worst case.
        assert stats["block_visits"] < queries.shape[0] * index.n_blocks

    def test_blocks_are_memory_mapped(self, built_dir):
        import mmap

        index = BlockedIndex(built_dir)
        resident = index._get_block(0)
        base = resident.tree.points
        seen = []
        while getattr(base, "base", None) is not None:
            base = base.base
            seen.append(base)
        assert any(isinstance(b, (np.memmap, mmap.mmap)) for b in seen)

    @pytest.mark.parametrize("capacity", [1, 8, 256])
    def test_budget_covers_derived_store(self, cloud, capacity):
        xyz, _ = cloud
        flat, _ = build_flat(xyz, KdTreeConfig(bucket_capacity=capacity))
        snap = Snapshot.from_flat(flat)
        structural = sum(a.nbytes for a in snap.arrays.values())
        budget = _tree_resident_nbytes(snap.arrays, snap.n_points) - structural
        assert budget >= flat.store.nbytes

    def test_missing_manifest_guidance(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="build_blocked"):
            BlockedIndex(tmp_path)

    def test_bad_budget_and_policy(self, built_dir):
        with pytest.raises(ValueError, match="max_resident_blocks"):
            BlockedIndex(built_dir, max_resident_blocks=0)
        with pytest.raises(ValueError, match="unknown eviction policy"):
            BlockedIndex(built_dir, eviction="nope")


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------
class TestServing:
    def test_blocked_shard_serves_exactly(self, cloud, tmp_path):
        from repro.serve import KnnServer, ServeConfig

        xyz, queries = cloud
        index = build_blocked(
            xyz, BlockedBuildConfig(n_blocks=6), block_dir=tmp_path
        )
        with KnnServer.from_shards(
            [index.as_shard()], ServeConfig(max_delay_s=0.0)
        ) as server:
            response = server.query(queries[:150], 6)
        _assert_matches_monolithic(response, _exact(xyz, queries[:150], 6))

    def test_degraded_budget_stays_in_home_block(self, cloud, tmp_path):
        xyz, queries = cloud
        index = build_blocked(
            xyz, BlockedBuildConfig(n_blocks=6), block_dir=tmp_path
        )
        shard = index.as_shard()
        idx, dst = shard.search(queries[:40], 4, budget=0)
        assert idx.shape == (40, 4)
        pad = idx == PAD_INDEX
        assert np.isinf(dst[pad]).all()
        # A real (budgeted) hit still references the global cloud.
        assert (idx[~pad] >= 0).all() and (idx[~pad] < xyz.shape[0]).all()

    def test_snapshot_refused(self, cloud, tmp_path):
        xyz, _ = cloud
        index = build_blocked(
            xyz, BlockedBuildConfig(n_blocks=2), block_dir=tmp_path
        )
        with pytest.raises(NotImplementedError, match="thread execution"):
            index.as_shard().snapshot()
