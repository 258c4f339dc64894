"""Unit tests for the unified Snapshot handle (repro.kdtree.snapshot)."""

import io

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_cloud
from repro.kdtree import KdTreeConfig, Snapshot, build_flat, knn_exact_batched
from repro.kdtree.snapshot import FLAT_FIELDS, FORMAT_VERSION


@pytest.fixture
def flat(rng):
    cloud = uniform_cloud(1_500, rng=rng)
    flat, _ = build_flat(cloud, KdTreeConfig(bucket_capacity=64))
    return flat


class TestRoundTrips:
    def test_flat_roundtrip_bit_identical(self, flat):
        clone = Snapshot.from_flat(flat).to_flat()
        for name in FLAT_FIELDS:
            a, b = getattr(flat, name), getattr(clone, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b), name

    def test_payload_roundtrip(self, flat):
        snap = Snapshot.from_flat(flat, extra={"tag": np.arange(4)})
        clone = Snapshot.from_payload(snap.to_payload())
        assert clone.version == FORMAT_VERSION
        assert np.array_equal(clone.extras["tag"], np.arange(4))
        assert np.array_equal(clone.arrays["points"], flat.points)

    def test_file_roundtrip_answers_identically(self, flat, rng, tmp_path):
        path = tmp_path / "snap.npz"
        Snapshot.from_flat(flat).save(path)
        clone = Snapshot.load(path).to_flat()
        queries = uniform_cloud(200, rng=rng).xyz
        a, _ = knn_exact_batched(flat, queries, 6)
        b, _ = knn_exact_batched(clone, queries, 6)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.distances, b.distances)

    def test_stream_roundtrip(self, flat):
        buffer = io.BytesIO()
        Snapshot.from_flat(flat).save(buffer)
        buffer.seek(0)
        clone = Snapshot.load(buffer)
        assert np.array_equal(clone.arrays["bucket_offsets"], flat.bucket_offsets)


class TestWireCompat:
    """The file is a plain ``.npz`` under fixed key names, so files in
    the layout the removed ``save_flat`` wrote keep loading."""

    def test_legacy_save_flat_file_loads(self, flat, tmp_path):
        # save_flat wrote the version header, the structural arrays and
        # ``extra_``-prefixed side arrays, compressed.
        path = tmp_path / "legacy.npz"
        ids = np.arange(0, 1_500, 3, dtype=np.int64)
        np.savez_compressed(
            path,
            flat_version=np.array([1], dtype=np.int64),
            extra_global_ids=ids,
            **{name: getattr(flat, name) for name in FLAT_FIELDS},
        )
        snap = Snapshot.load(path)
        assert np.array_equal(snap.extras["global_ids"], ids)
        assert np.array_equal(snap.to_flat().points, flat.points)

    def test_snapshot_file_loads_via_legacy_reader(self, flat, tmp_path):
        # A reader of that layout needs nothing but np.load by key.
        path = tmp_path / "new.npz"
        ids = np.arange(7, dtype=np.int64)
        Snapshot.from_flat(flat, extra={"global_ids": ids}).save(path)
        with np.load(path) as payload:
            assert int(payload["flat_version"][0]) == FORMAT_VERSION
            assert np.array_equal(payload["extra_global_ids"], ids)
            assert np.array_equal(payload["points"], flat.points)


class TestValidation:
    def test_missing_field_rejected(self, flat):
        payload = Snapshot.from_flat(flat).to_payload()
        del payload["threshold"]
        with pytest.raises(ValueError, match="missing"):
            Snapshot.from_payload(payload)

    def test_extra_collision_rejected(self, flat):
        with pytest.raises(ValueError, match="collides"):
            Snapshot.from_flat(flat, extra={"points": np.zeros(3)})

    def test_version_check(self, flat):
        payload = Snapshot.from_flat(flat).to_payload()
        payload["flat_version"] = np.array([99], dtype=np.int64)
        with pytest.raises(ValueError, match="version"):
            Snapshot.from_payload(payload)

    def test_missing_version_header_rejected(self, flat):
        payload = Snapshot.from_flat(flat).to_payload()
        del payload["flat_version"]
        with pytest.raises(ValueError, match="version"):
            Snapshot.from_payload(payload)


class TestIntrospection:
    def test_n_points_and_nbytes(self, flat):
        snap = Snapshot.from_flat(flat)
        assert snap.n_points == 1_500
        assert snap.nbytes > flat.points.nbytes

    def test_from_flat_takes_no_copies(self, flat):
        snap = Snapshot.from_flat(flat)
        assert snap.arrays["points"] is flat.points


class TestMmapLoad:
    """``load(mmap_mode=...)``: lazy page-in, bit-identical answers."""

    def _saved(self, flat, tmp_path, **save_kw):
        path = tmp_path / "mapped.npz"
        ids = np.arange(1_500, dtype=np.int64)
        Snapshot.from_flat(flat, extra={"global_ids": ids}).save(path, **save_kw)
        return path

    def test_arrays_bit_identical_and_mapped(self, flat, tmp_path):
        path = self._saved(flat, tmp_path, compressed=False)
        snap = Snapshot.load(path, mmap_mode="r")
        assert snap.is_mapped
        for name in FLAT_FIELDS:
            a, b = getattr(flat, name), snap.arrays[name]
            assert a.dtype == b.dtype
            assert np.array_equal(a, b), name
        assert not snap.arrays["points"].flags.writeable
        assert np.array_equal(snap.extras["global_ids"], np.arange(1_500))

    def test_served_answers_bit_identical_under_mmap(self, flat, rng, tmp_path):
        from repro.serve import KnnServer, ServeConfig
        from repro.serve.sharding import ShardState

        path = self._saved(flat, tmp_path, compressed=False)
        queries = uniform_cloud(200, rng=rng).xyz
        config = ServeConfig(max_delay_s=0.0)
        shard_mem = ShardState.from_snapshot(Snapshot.load(path))
        shard_map = ShardState.from_snapshot(Snapshot.load(path, mmap_mode="r"))
        with KnnServer.from_shards([shard_mem], config) as server:
            want = server.query(queries, 6)
        with KnnServer.from_shards([shard_map], config) as server:
            got = server.query(queries, 6)
        assert np.array_equal(want.indices, got.indices)
        assert np.array_equal(want.distances, got.distances)

    def test_default_load_unchanged(self, flat, tmp_path):
        path = self._saved(flat, tmp_path, compressed=False)
        snap = Snapshot.load(path)
        assert not snap.is_mapped
        assert snap.arrays["points"].flags.writeable

    def test_compressed_snapshot_refused_with_guidance(self, flat, tmp_path):
        path = self._saved(flat, tmp_path)  # compressed default
        with pytest.raises(ValueError, match="compressed=False"):
            Snapshot.load(path, mmap_mode="r")

    def test_stream_and_bad_mode_rejected(self, flat, tmp_path):
        path = self._saved(flat, tmp_path, compressed=False)
        with pytest.raises(ValueError, match="mmap_mode"):
            Snapshot.load(path, mmap_mode="r+")
        with pytest.raises(TypeError, match="filesystem path"):
            Snapshot.load(io.BytesIO(path.read_bytes()), mmap_mode="r")
