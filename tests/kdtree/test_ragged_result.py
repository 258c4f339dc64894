"""RaggedResult CSR contract: canonical order, dtypes, serialization.

Companion to ``test_snapshot.py``: the ragged container is the wire
format for every radius answer, so its dtype stability (int64
indices/offsets, float64 distances) must survive both the JSON-style
``as_dict``/``from_dict`` round trip and a ``Snapshot`` extras round
trip through an ``.npz`` file — the path a pipeline takes when it
persists precomputed neighborhoods next to the tree they came from.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_cloud
from repro.kdtree import KdTreeConfig, Snapshot, build_flat
from repro.query import RaggedResult, radius_batched
from repro.query import result as result_module
from repro.query.result import build_ragged


@pytest.fixture
def result(rng):
    cloud = uniform_cloud(800, rng=rng)
    flat, _ = build_flat(cloud, KdTreeConfig(bucket_capacity=32))
    return radius_batched(flat, cloud.xyz[:100], 6.0, max_neighbors=12)


class TestContract:
    def test_dtypes(self, result):
        assert result.indices.dtype == np.int64
        assert result.offsets.dtype == np.int64
        assert result.distances.dtype == np.float64

    def test_construction_coerces_dtypes(self):
        r = RaggedResult(
            indices=[0, 1], distances=[0.5, 1.5], offsets=[0, 1, 2]
        )
        assert r.indices.dtype == np.int64
        assert r.offsets.dtype == np.int64
        assert r.distances.dtype == np.float64
        assert r.n_queries == 2 and r.n_pairs == 2

    def test_row_views_and_counts(self, result):
        counts = result.counts()
        assert counts.sum() == result.n_pairs
        idx, dst = result.row(0)
        assert idx.size == counts[0] == dst.size

    def test_invalid_csr_rejected(self):
        with pytest.raises(ValueError):
            RaggedResult(indices=[0], distances=[0.0], offsets=[0, 2])
        with pytest.raises(ValueError):
            RaggedResult(indices=[0, 1], distances=[0.0, 0.0],
                         offsets=[0, 2, 1, 2])
        with pytest.raises(ValueError):
            RaggedResult(indices=[0], distances=[0.0, 1.0], offsets=[0, 1])

    def test_build_ragged_canonical_order(self):
        # Loose pairs in scrambled order; ties on distance break by index.
        qid = np.array([1, 0, 1, 0, 1], dtype=np.int64)
        idx = np.array([9, 4, 2, 7, 5], dtype=np.int64)
        dst = np.array([2.0, 1.0, 2.0, 0.5, 1.0])
        r = build_ragged(qid, idx, dst, 2)
        np.testing.assert_array_equal(r.offsets, [0, 2, 5])
        np.testing.assert_array_equal(r.indices, [7, 4, 5, 2, 9])
        np.testing.assert_array_equal(r.distances, [0.5, 1.0, 1.0, 2.0, 2.0])
        capped = build_ragged(qid, idx, dst, 2, max_neighbors=2)
        np.testing.assert_array_equal(capped.indices, [7, 4, 5, 2])

    @pytest.mark.parametrize("cap", [1, 3, 16])
    @pytest.mark.parametrize("low", [0, -2])
    def test_precap_matches_lexsort_oracle(self, monkeypatch, cap, low):
        """The pre-cap pass, forced on a small batch, keeps every row's
        canonical first ``cap``.  Distances on a coarse grid tie inside
        a row (straddling the cap) and across rows; they include zero
        and, with ``low < 0``, negative values."""
        monkeypatch.setattr(result_module, "_PRECAP_PAIRS", 0)
        rng = np.random.default_rng(11)
        n_rows, n_ids = 40, 200
        pairs = rng.choice(n_rows * n_ids, size=2_000, replace=False)
        qid = np.r_[pairs // n_ids, 40, 40]
        idx = np.r_[pairs % n_ids, 7, 3]
        dst = np.r_[rng.integers(low, 6, pairs.size) * 0.25, 0.5, 0.5]
        n_queries = 44  # row 40 is under the cap for cap > 2; 41-43 empty
        r = build_ragged(qid, idx, dst, n_queries, max_neighbors=cap)
        want_i, want_d, counts = [], [], []
        for row in range(n_queries):
            sel = np.flatnonzero(qid == row)
            sel = sel[np.lexsort((idx[sel], dst[sel]))][:cap]
            want_i.append(idx[sel])
            want_d.append(dst[sel])
            counts.append(sel.size)
        np.testing.assert_array_equal(r.counts(), counts)
        np.testing.assert_array_equal(r.indices, np.concatenate(want_i))
        np.testing.assert_array_equal(r.distances, np.concatenate(want_d))


class TestSerialization:
    def test_dict_roundtrip_bit_identical(self, result):
        clone = RaggedResult.from_dict(result.as_dict())
        assert clone.indices.dtype == np.int64
        assert clone.offsets.dtype == np.int64
        assert clone.distances.dtype == np.float64
        np.testing.assert_array_equal(clone.offsets, result.offsets)
        np.testing.assert_array_equal(clone.indices, result.indices)
        np.testing.assert_array_equal(clone.distances, result.distances)

    def test_empty_roundtrip(self):
        empty = RaggedResult(
            indices=np.empty(0, dtype=np.int64),
            distances=np.empty(0),
            offsets=np.zeros(4, dtype=np.int64),
        )
        clone = RaggedResult.from_dict(empty.as_dict())
        assert clone.n_queries == 3 and clone.n_pairs == 0
        assert clone.indices.dtype == np.int64
        assert clone.offsets.dtype == np.int64

    def test_snapshot_extras_roundtrip(self, rng, result, tmp_path):
        """CSR arrays persist losslessly next to the tree they came from."""
        cloud = uniform_cloud(800, rng=rng)
        flat, _ = build_flat(cloud, KdTreeConfig(bucket_capacity=32))
        path = tmp_path / "tree_with_neighborhoods.npz"
        Snapshot.from_flat(
            flat,
            extra={
                "radius_indices": result.indices,
                "radius_distances": result.distances,
                "radius_offsets": result.offsets,
            },
        ).save(path)
        snap = Snapshot.load(path)
        clone = RaggedResult(
            indices=snap.extras["radius_indices"],
            distances=snap.extras["radius_distances"],
            offsets=snap.extras["radius_offsets"],
        )
        assert snap.extras["radius_offsets"].dtype == np.int64
        assert snap.extras["radius_indices"].dtype == np.int64
        assert snap.extras["radius_distances"].dtype == np.float64
        np.testing.assert_array_equal(clone.offsets, result.offsets)
        np.testing.assert_array_equal(clone.indices, result.indices)
        np.testing.assert_array_equal(clone.distances, result.distances)
