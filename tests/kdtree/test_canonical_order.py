"""One neighbour order on every kNN and radius path, checked index for index.

Grid-snapped clouds are full of exact ties: duplicate points, and
points at exactly equal distances from on-grid queries, often straddling
a splitting plane or a block or shard boundary.  Every path must rank
them as the brute-force oracle does — ascending distance, then
ascending point id (``lexsort((id, distance))``), padding last — and a
radius search must keep every point at exactly the radius.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import knn_bruteforce
from repro.kdtree import (
    PAD_INDEX,
    BlockedBuildConfig,
    KdTreeConfig,
    build_blocked,
    build_flat,
    build_tree,
    knn_approx_loop,
    knn_exact,
)
from repro.kdtree.engine import knn_approx_batched, knn_exact_batched
from repro.kdtree.search import radius_search
from repro.query import radius_batched, radius_reference
from repro.query.radius import radius_bruteforce
from repro.serve import make_plan, merge_topk


def _distances(points, queries):
    """The exact kernel over every (query, point) pair."""
    diff = queries[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _oracle(points, queries, k):
    """Brute force: exact distances, ranked by ``lexsort((id, distance))``."""
    dist = _distances(points, queries)
    ids = np.broadcast_to(np.arange(points.shape[0]), dist.shape)
    order = np.lexsort((ids, dist), axis=1)[:, :k]
    idx = np.full((queries.shape[0], k), PAD_INDEX, dtype=np.int64)
    dst = np.full((queries.shape[0], k), np.inf)
    idx[:, : order.shape[1]] = np.take_along_axis(ids, order, axis=1)
    dst[:, : order.shape[1]] = np.take_along_axis(dist, order, axis=1)
    return idx, dst


@st.composite
def grid_scenes(draw):
    """A grid-snapped cloud with duplicates, on- and off-grid queries, k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    cells = draw(st.integers(1, 8))
    step = draw(st.sampled_from([0.25, 1.0, 3.0]))
    points = rng.integers(0, cells + 1, size=(n, 3)) * step
    points += draw(st.sampled_from([0.0, 1e3, 1e5]))
    n_rows = draw(st.integers(1, 48))
    queries = points[rng.integers(0, n, size=n_rows)].copy()
    # A quarter of the rows move half a step off the grid on one axis,
    # so their ties straddle the planes between grid columns.
    moved = rng.random(n_rows) < 0.25
    queries[moved, rng.integers(0, 3)] += step / 2
    capacity = draw(st.integers(1, 64))
    k = draw(st.integers(1, min(n + 2, 16)))
    return points, queries, capacity, k


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scene=grid_scenes(), n_blocks=st.integers(2, 6),
       partitioner=st.sampled_from(["grid", "kd-cut"]))
def test_every_path_ranks_by_distance_then_id(scene, n_blocks, partitioner):
    points, queries, capacity, k = scene
    want_idx, want_dst = _oracle(points, queries, k)
    tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=capacity))

    approx = knn_approx_batched(tree.flat(), queries, k)
    loop = knn_approx_loop(tree, queries, k)
    assert np.array_equal(approx.indices, loop.indices)
    assert np.array_equal(approx.distances, loop.distances)

    for result in (knn_exact_batched(tree, queries, k)[0],
                   knn_exact(tree, queries, k, engine=False)):
        assert np.array_equal(result.indices, want_idx)
        assert np.array_equal(result.distances, want_dst)

    blocked = build_blocked(
        points,
        BlockedBuildConfig(
            n_blocks=n_blocks, partitioner=partitioner,
            tree=KdTreeConfig(bucket_capacity=capacity),
        ),
    )
    result = blocked.query(queries, k)
    assert np.array_equal(result.indices, want_idx)
    assert np.array_equal(result.distances, want_dst)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scene=grid_scenes(), n_shards=st.sampled_from([1, 2, 4]),
       strategy=st.sampled_from(["round-robin", "spatial"]))
def test_shard_merge_ranks_by_distance_then_id(scene, n_shards, strategy):
    points, queries, capacity, k = scene
    if points.shape[0] < n_shards:
        n_shards = 1
    parts_idx, parts_dst = [], []
    for ids in make_plan(points, n_shards, strategy).global_ids:
        flat, _ = build_flat(points[ids], KdTreeConfig(bucket_capacity=capacity))
        local, _ = knn_exact_batched(flat, queries, k)
        translated = ids[local.indices]
        translated[local.indices == PAD_INDEX] = PAD_INDEX
        parts_idx.append(translated)
        parts_dst.append(local.distances)
    idx, dst = merge_topk(parts_idx, parts_dst, k)
    want_idx, want_dst = _oracle(points, queries, k)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(dst, want_dst)


def _radii(points, queries):
    """Radii to draw from: 0, and distances the grid itself realises, so
    that points sit exactly on a query's sphere."""
    return st.sampled_from([0.0, *np.unique(_distances(points, queries)).tolist()])


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scene=grid_scenes(), data=st.data(),
       cap=st.sampled_from([None, 1, 3, 16]))
def test_radius_paths_agree_at_the_boundary(scene, data, cap):
    points, queries, capacity, _ = scene
    radius = data.draw(_radii(points, queries))
    flat, _ = build_flat(points, KdTreeConfig(bucket_capacity=capacity))
    got = radius_batched(flat, queries, radius, max_neighbors=cap)
    for want in (radius_bruteforce(points, queries, radius, max_neighbors=cap),
                 radius_reference(flat, queries, radius, max_neighbors=cap)):
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.distances, want.distances)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scene=grid_scenes(), data=st.data())
def test_bruteforce_and_radius_search_rank_by_distance_then_id(scene, data):
    points, queries, capacity, k = scene
    want_idx, want_dst = _oracle(points, queries, k)
    got = knn_bruteforce(points, queries, k)
    assert np.array_equal(got.indices, want_idx)
    assert np.array_equal(got.distances, want_dst)

    radius = data.draw(_radii(points, queries))
    tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=capacity))
    dist = _distances(points, queries)
    for row, query in enumerate(queries):
        inside = np.flatnonzero(dist[row] <= radius)
        want = inside[np.lexsort((inside, dist[row, inside]))]
        idx, dst = radius_search(tree, query, radius)
        assert np.array_equal(idx, want)
        assert np.array_equal(dst, dist[row, want])
