"""Blocked-index exactness: bit-identical to the monolithic engine.

The blocked router's acceptance bar is stricter than a recall floor —
its answers must match a single monolithic ``build_flat`` +
``knn_exact_batched`` run bit for bit, for every partitioner.  Two
workloads are the classic ways to get that wrong:

* **Duplicate ties** — exact-duplicate coordinates straddling a block
  boundary produce equal distances whose winner would depend on merge
  order.  The repo contract (same as the serve shard merge): every path
  ranks by (distance, id), so index rows are bit-identical too.
* **Off-origin frames** — UTM-style coordinates (hundreds of km from
  the origin) shrink the float spacing relative to block extents; a
  sloppy AABB lower bound would start pruning blocks that still hold
  the true neighbor.  Here the answers must be fully bit-identical,
  indices included.
"""

import numpy as np
import pytest

from repro.index import make_index
from repro.kdtree import BlockedBuildConfig, build_blocked, build_flat
from repro.kdtree.engine import knn_exact_batched

PARTITIONER_NAMES = ["grid", "kd-cut"]


def _monolithic(xyz, queries, k):
    flat, _ = build_flat(xyz)
    result, _visits = knn_exact_batched(flat, queries, k)
    return result


def _assert_identical(result, exact):
    """Distances and indices bit-identical, duplicate coordinates included."""
    np.testing.assert_array_equal(result.distances, exact.distances)
    np.testing.assert_array_equal(result.indices, exact.indices)


@pytest.fixture(scope="module")
def duplicate_cloud():
    """A cloud where ~a third of the points are exact duplicates."""
    rng = np.random.default_rng(11)
    base = rng.uniform(-60.0, 60.0, size=(4_000, 3))
    dupes = base[rng.integers(0, len(base), size=2_000)]
    xyz = np.concatenate([base, dupes])
    queries = np.concatenate(
        [rng.uniform(-60.0, 60.0, size=(300, 3)), xyz[rng.integers(0, len(xyz), 100)]]
    )
    return xyz, queries


@pytest.mark.parametrize("partitioner", PARTITIONER_NAMES)
def test_duplicate_ties_match_monolithic(duplicate_cloud, partitioner, tmp_path):
    xyz, queries = duplicate_cloud
    k = 8
    index = build_blocked(
        xyz,
        BlockedBuildConfig(n_blocks=6, partitioner=partitioner),
        block_dir=tmp_path / partitioner,
    )
    _assert_identical(index.query(queries, k), _monolithic(xyz, queries, k))


@pytest.mark.parametrize("partitioner", PARTITIONER_NAMES)
@pytest.mark.parametrize("offset", [1e3, 5e5])
def test_off_origin_utm_frame_bit_identical(partitioner, offset, tmp_path):
    # UTM-style frame: a ~200 m scene translated far from the origin.
    rng = np.random.default_rng(7)
    xyz = rng.uniform(-100.0, 100.0, size=(5_000, 3)) + offset
    queries = rng.uniform(-100.0, 100.0, size=(400, 3)) + offset
    k = 6
    index = build_blocked(
        xyz,
        BlockedBuildConfig(n_blocks=5, partitioner=partitioner),
        block_dir=tmp_path / f"{partitioner}-{offset:g}",
    )
    result = index.query(queries, k)
    exact = _monolithic(xyz, queries, k)
    np.testing.assert_array_equal(result.distances, exact.distances)
    np.testing.assert_array_equal(result.indices, exact.indices)


def test_registry_backend_is_exact(small_frame_pair):
    # The make_index("kd-blocked") default (4 blocks) honors the same bar.
    ref, qry = small_frame_pair
    index = make_index("kd-blocked", ref)
    q = qry.xyz[:200]
    _assert_identical(index.query(q, 5), _monolithic(ref.xyz, q, 5))
