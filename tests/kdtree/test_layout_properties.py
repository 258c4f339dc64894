"""Property: one tree layout, two views, exact round trips (hypothesis).

``FlatKdTree.from_tree`` turns a node tree into the flat arrays and
``KdTree.from_flat`` is the one way back.  For clouds with exact
duplicates, a degenerate axis and large offsets, and for every way the
repo makes a tree (the vectorized and legacy builders, an incremental
update with merges and splits, static reuse, and the randomized
forest, whose mixed split dims send ``descend_fast`` down its
fallback), both round trips are exact, and every batched descent
agrees with the per-node walk.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kdtree import (
    FlatKdTree,
    KdForest,
    KdForestConfig,
    KdTree,
    KdTreeConfig,
    build_flat,
    build_tree,
    reuse_tree,
    update_tree,
)
from repro.kdtree.snapshot import FLAT_FIELDS
from tests.kdtree.test_build_vectorized import (
    assert_flats_identical,
    assert_trees_identical,
)

offsets = st.tuples(*[st.floats(-1e5, 1e5, allow_nan=False)] * 3)


@st.composite
def clouds(draw):
    """1-2,000 points: optional duplicates, flat axis and far offset."""
    n = draw(st.integers(1, 2_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xyz = rng.normal(size=(n, 3)) * draw(st.sampled_from([1e-3, 1.0, 40.0]))
    if draw(st.booleans()):
        xyz = xyz[rng.integers(0, max(1, n // 8), size=n)]
    axis = draw(st.sampled_from([None, 0, 1, 2]))
    if axis is not None:
        xyz[:, axis] = 0.5
    return xyz + np.array(draw(offsets))


def _next_frame(xyz: np.ndarray) -> np.ndarray:
    """One spatial half of the cloud, three times: its leaves split and
    the other half's leaves empty out and merge."""
    order = np.argsort(xyz.sum(axis=1), kind="stable")
    half = xyz[order[: max(1, xyz.shape[0] // 2)]]
    return np.concatenate([half, half, half])


def _trees(xyz: np.ndarray, capacity: int):
    config = KdTreeConfig(bucket_capacity=capacity)
    vectorized, _ = build_tree(xyz, config)
    legacy, _ = build_tree(xyz, KdTreeConfig(bucket_capacity=capacity, builder="legacy"))
    updated, _ = update_tree(vectorized, _next_frame(xyz), config)
    updated_again, _ = update_tree(updated, xyz, config)
    reused = reuse_tree(vectorized, _next_frame(xyz))
    forests = [
        KdForest(xyz, KdForestConfig(n_trees=1, bucket_capacity=capacity, builder=builder),
                 rng=np.random.default_rng(capacity))
        for builder in ("legacy", "vectorized")
    ]
    return [vectorized, legacy, updated, updated_again, reused] + [
        f.trees[0] for f in forests
    ]


def _assert_dtypes_match(a: FlatKdTree, b: FlatKdTree):
    for name in FLAT_FIELDS:
        assert getattr(a, name).dtype == getattr(b, name).dtype, name


common = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestLayoutRoundTrips:
    @common
    @given(xyz=clouds(), capacity=st.integers(1, 64))
    def test_node_and_flat_views_round_trip_exactly(self, xyz, capacity):
        for tree in _trees(xyz, capacity):
            flat = FlatKdTree.from_tree(tree)
            back = KdTree.from_flat(flat)
            assert_trees_identical(back, tree)
            assert [b.dtype for b in back.buckets] == [b.dtype for b in tree.buckets]
            assert back.flat() is flat
            again = FlatKdTree.from_tree(back)
            assert_flats_identical(again, flat)
            _assert_dtypes_match(again, flat)

    @common
    @given(xyz=clouds(), capacity=st.integers(1, 64))
    def test_built_flat_round_trips_through_nodes(self, xyz, capacity):
        flat, _ = build_flat(xyz, KdTreeConfig(bucket_capacity=capacity))
        again = FlatKdTree.from_tree(KdTree.from_flat(flat))
        assert_flats_identical(again, flat)
        _assert_dtypes_match(again, flat)

    @common
    @given(xyz=clouds(), capacity=st.integers(1, 64))
    def test_every_descent_matches_the_per_node_walk(self, xyz, capacity):
        rng = np.random.default_rng(capacity)
        lo, hi = xyz.min(axis=0), xyz.max(axis=0)
        queries = np.concatenate([xyz[:200], rng.uniform(lo, hi, size=(50, 3))])
        for tree in _trees(xyz, capacity):
            want = np.array([tree.descend(q).index for q in queries])
            flat = tree.flat()
            assert np.array_equal(flat.descend_fast(queries), want)
            assert np.array_equal(flat.descend(queries), want)
            assert np.array_equal(tree.descend_batch(queries), want)


def test_next_frame_drives_merges_and_splits():
    xyz = np.random.default_rng(0).normal(size=(2_000, 3))
    config = KdTreeConfig(bucket_capacity=16)
    tree, _ = build_tree(xyz, config)
    _, trace = update_tree(tree, _next_frame(xyz), config)
    assert trace.n_merges > 0 and trace.n_splits > 0
