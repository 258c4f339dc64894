"""Differential property test of batched exact kNN at serving sizes.

The batched exact search scores all of a call's visited buckets in one
pass and takes one certified cut per query; these properties pin it to
the per-query loop path on clouds built to stress that cut: exact
duplicates, a degenerate axis, large offsets from the origin, and a
micron-scale cluster beside a kilometre outlier.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kdtree import KdTreeConfig, build_tree, knn_exact
from repro.kdtree.engine import knn_approx_batched, knn_exact_batched


@st.composite
def scenes(draw):
    """A cloud, a tree over it, query rows and a k."""
    n = draw(st.one_of(st.integers(1, 48), st.integers(49, 2_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Micron cluster beside a kilometre outlier.
        points = rng.normal(size=(n, 3)) * 1e-6
        points[0] = [1e3, -1e3, 5e2]
    else:
        points = rng.normal(size=(n, 3)) * draw(st.sampled_from([0.01, 1.0, 30.0]))
    dup_share = draw(st.sampled_from([0.0, 0.3, 0.9]))
    if dup_share:
        copy = rng.random(n) < dup_share
        points[copy] = points[rng.integers(0, n, size=int(copy.sum()))]
    flat_axis = draw(st.sampled_from([None, 0, 1, 2]))
    if flat_axis is not None:
        points[:, flat_axis] = points[0, flat_axis]
    points += draw(st.sampled_from([0.0, 1e3, 1e5]))

    n_rows = draw(st.integers(1, 64))
    rows = points[rng.integers(0, n, size=n_rows)]
    kind = rng.integers(0, 3, size=n_rows)
    jitter = rng.normal(size=(n_rows, 3)) * 10.0 ** rng.uniform(-7, -1, (n_rows, 1))
    far = points.mean(axis=0) + rng.normal(size=(n_rows, 3)) * 1e4
    queries = np.where((kind == 0)[:, None], rows, np.where((kind == 1)[:, None], rows + jitter, far))

    capacity = draw(st.integers(1, 64))
    # k runs past the cloud size on small clouds; the loop reference
    # inserts candidates one by one, so large clouds keep k small.
    k = draw(st.integers(1, n + 3)) if n <= 48 else draw(st.integers(1, 24))
    tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=capacity))
    return points, tree, queries, k


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scene=scenes())
def test_batched_exact_matches_loop_path(scene):
    _, tree, queries, k = scene
    batched, _ = knn_exact_batched(tree, queries, k)
    loop = knn_exact(tree, queries, k, engine=False)
    assert np.array_equal(batched.distances, loop.distances)
    assert np.array_equal(batched.indices, loop.indices)

    budgeted, _ = knn_exact_batched(tree, queries, k, max_visits=0)
    approx = knn_approx_batched(tree.flat(), queries, k)
    assert np.array_equal(budgeted.indices, approx.indices)
    assert np.array_equal(budgeted.distances, approx.distances)
