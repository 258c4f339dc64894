"""Differential property test of the engine's dense (matmul) stage.

A bucket that at least ``_DENSE_ROWS`` of a call's rows scan is scored
by one BLAS matmul and cut per row on packed keys; with a bound (the
exact search's backtracking pass) each row keeps only members inside
it.  Whole-cloud query batches put many rows in every bucket, so these
properties pin that stage to the per-query loop paths, on the clouds
that stress the cut: exact duplicates, a degenerate axis, large offsets
from the origin, and a micron-scale cluster beside a kilometre outlier.
Capacities from 8 to 512, plus one leaf of duplicates too wide for a
packed key, put bucket widths on both sides of the key-width steps.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kdtree import KdTreeConfig, build_tree, knn_approx_loop, knn_exact
from repro.kdtree.engine import _DENSE_ROWS, knn_approx_batched, knn_exact_batched

#: Rows of each example the per-query exact loop re-answers.
EXACT_ROWS = 160


@st.composite
def frames(draw):
    """A cloud, a tree over it, the whole cloud as queries, and a k."""
    dup = draw(st.sampled_from(["none", "some", "most", "one leaf"]))
    n = draw(st.integers(1_100 if dup == "one leaf" else 4 * _DENSE_ROWS, 1_200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Micron cluster beside a kilometre outlier.
        points = rng.normal(size=(n, 3)) * 1e-6
        points[0] = [1e3, -1e3, 5e2]
    else:
        points = rng.normal(size=(n, 3)) * draw(st.sampled_from([0.01, 1.0, 30.0]))
    if dup == "one leaf":
        # More copies of one point than a packed key has columns.
        points[: n - 40] = points[n - 1]
    elif dup != "none":
        copy = rng.random(n) < (0.3 if dup == "some" else 0.9)
        points[copy] = points[rng.integers(0, n, size=int(copy.sum()))]
    flat_axis = draw(st.sampled_from([None, 0, 1, 2]))
    if flat_axis is not None:
        points[:, flat_axis] = points[0, flat_axis]
    points += draw(st.sampled_from([0.0, 1e3, 1e5]))

    capacity = draw(st.one_of(
        st.sampled_from([8, 16, 17, 32, 33, 64, 65, 128, 129, 256, 257, 512]),
        st.integers(8, 512),
    ))
    tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=capacity))

    # The whole cloud, as itself or jittered off it; small buckets get
    # it several times over, so that their rows still make them dense
    # (the wide leaf is dense by itself).
    copies = 1 if dup == "one leaf" else -(-2 * _DENSE_ROWS // min(capacity, n))
    rows = np.tile(points, (copies, 1))
    jitter = rng.normal(size=rows.shape) * 10.0 ** rng.uniform(-7, -1, (rows.shape[0], 1))
    moved = rng.random(rows.shape[0]) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    queries = np.where(moved[:, None], rows + jitter, rows)
    k = draw(st.integers(1, 16))
    return points, tree, queries, k


def _assert_same(indices, distances, want):
    assert np.array_equal(distances, want.distances)
    assert np.array_equal(indices, want.indices)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(frame=frames())
def test_whole_cloud_batches_match_the_loop_paths(frame):
    _, tree, queries, k = frame
    flat = tree.flat()
    # The premise: some bucket is scanned by enough rows to be dense.
    homes = flat.bucket_id[flat.descend_fast(queries)]
    assert np.bincount(homes).max() >= _DENSE_ROWS

    approx = knn_approx_batched(flat, queries, k)
    _assert_same(approx.indices, approx.distances, knn_approx_loop(tree, queries, k))

    exact, _ = knn_exact_batched(tree, queries, k)
    rows = np.random.default_rng(k).permutation(queries.shape[0])[:EXACT_ROWS]
    _assert_same(exact.indices[rows], exact.distances[rows],
                 knn_exact(tree, queries[rows], k, engine=False))
