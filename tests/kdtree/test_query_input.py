"""Every search entry point refuses malformed query arrays.

``repro.kdtree.search._as_query_array`` is the one check: shape
``(M, 3)`` with ``M >= 0`` and finite coordinates, else ``ValueError``
— never an answer for a NaN row, nor a NumPy broadcast error.
"""

import numpy as np
import pytest

from repro.kdtree import (
    BlockedBuildConfig,
    KdTreeConfig,
    build_blocked,
    build_tree,
    knn_approx,
    knn_bbf,
    knn_exact,
)
from repro.kdtree.engine import knn_approx_batched, knn_exact_batched
from repro.query import radius_batched

BAD = {
    "nan": [[np.nan, 0.0, 0.0]],
    "+inf": [[0.0, np.inf, 0.0]],
    "-inf": [[1.0, 2.0, 3.0], [0.0, 0.0, -np.inf]],
    "two columns": np.zeros((4, 2)),
    "four columns": np.zeros((2, 4)),
    "3-d": np.zeros((2, 2, 3)),
}


@pytest.fixture(scope="module")
def indexes(tmp_path_factory):
    rng = np.random.default_rng(5)
    points = rng.uniform(-5.0, 5.0, size=(600, 3))
    tree, _ = build_tree(points, KdTreeConfig(bucket_capacity=16))
    blocked = build_blocked(
        points, BlockedBuildConfig(n_blocks=3),
        block_dir=tmp_path_factory.mktemp("blocks"),
    )
    return tree, blocked


ENTRY_POINTS = {
    "knn_approx_batched": lambda tree, _, q: knn_approx_batched(tree.flat(), q, 3),
    "knn_exact_batched": lambda tree, _, q: knn_exact_batched(tree, q, 3),
    "knn_approx loop": lambda tree, _, q: knn_approx(tree, q, 3, engine="loop"),
    "knn_exact loop": lambda tree, _, q: knn_exact(tree, q, 3, engine="loop"),
    "knn_bbf": lambda tree, _, q: knn_bbf(tree, q, 3),
    "radius_batched": lambda tree, _, q: radius_batched(tree, q, 1.0),
    "BlockedIndex.query": lambda _, blocked, q: blocked.query(q, 3),
    "BlockedIndex.query_radius": lambda _, blocked, q: blocked.query_radius(q, 1.0),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(BAD))
def test_malformed_queries_raise_value_error(indexes, entry, bad):
    tree, blocked = indexes
    with pytest.raises(ValueError, match="queries must"):
        ENTRY_POINTS[entry](tree, blocked, np.asarray(BAD[bad], dtype=np.float64))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_empty_batch_is_answered(indexes, entry):
    tree, blocked = indexes
    ENTRY_POINTS[entry](tree, blocked, np.empty((0, 3)))
