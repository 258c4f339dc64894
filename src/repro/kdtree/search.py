"""Nearest-neighbor search over a bucketed k-d tree.

Two search modes, as in Section 2.2 of the paper:

* **Approximate** (:func:`knn_approx`) — descend to the single leaf
  whose region contains the query and scan only that bucket.  This is
  the mode QuickNN accelerates; it trades a small accuracy loss for a
  bounded, regular memory footprint.
* **Exact** (:func:`knn_exact`) — the same descent followed by
  *backtracking*: sibling subtrees are revisited whenever their region
  could still contain a closer point, guaranteeing the true k nearest
  neighbors.

Results use ``-1`` indices and ``inf`` distances to pad queries whose
bucket holds fewer than ``k`` points.  Rows follow the one neighbour
order of :mod:`repro.kdtree.ranking`: ascending distance, equal
distances by ascending point id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import PointCloud
from repro.kdtree.node import KdTree
from repro.kdtree.ranking import PAD_INDEX, RunningTopK, rank, top_k
from repro.registry import Registry

#: The ``engine=`` knob names, as a proper registry so unknown strings
#: fail with the repo-wide message.  ``True`` / ``False`` remain accepted
#: as shorthands for ``"batched"`` / ``"loop"``.
ENGINES: Registry[str] = Registry("query engine")
ENGINES.add("batched", "batched", "vectorized")
ENGINES.add("loop", "loop", "reference")


def _engine_name(engine: bool | str) -> str:
    """Fold the ``engine=`` knob (bool shorthand or name) to a name."""
    if engine is True:
        return "batched"
    if engine is False:
        return "loop"
    return ENGINES.check(engine)


@dataclass(frozen=True)
class BbfConfig:
    """Best-bin-first search parameters (the FLANN "checks" budget).

    ``max_leaves`` bounds how many buckets one query may scan;
    ``max_leaves=1`` degenerates to the single-bucket approximate
    search, larger budgets approach the exact search.
    """

    max_leaves: int = 4

    def __post_init__(self):
        if self.max_leaves < 1:
            raise ValueError("max_leaves must be positive")


@dataclass(frozen=True)
class QueryResult:
    """k nearest neighbors for a batch of queries.

    ``indices`` has shape ``(M, k)`` (into the tree's reference points,
    ``-1`` where fewer than ``k`` neighbors were found) and
    ``distances`` the matching Euclidean distances (``inf`` padding).
    Rows are sorted by ascending distance, equal distances by
    ascending index (:mod:`repro.kdtree.ranking`).
    """

    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        if self.indices.shape != self.distances.shape:
            raise ValueError("indices and distances must have the same shape")

    @property
    def n_queries(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def valid_mask(self) -> np.ndarray:
        """True where a real neighbor (not padding) is present."""
        return self.indices != PAD_INDEX


def _as_query_array(queries) -> np.ndarray:
    """The one query check of every search entry point.

    Accepts a :class:`PointCloud` or anything array-like of shape
    ``(M, 3)`` (a single ``(3,)`` point is one row), ``M >= 0``, with
    finite coordinates; anything else raises ``ValueError``.  Returns
    the float64 ``(M, 3)`` array.
    """
    xyz = queries.xyz if isinstance(queries, PointCloud) else queries
    xyz = np.atleast_2d(np.asarray(xyz, dtype=np.float64))
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError("queries must have shape (M, 3)")
    if not np.isfinite(xyz).all():
        raise ValueError("queries must be finite (no NaN or inf coordinates)")
    return xyz


def knn_approx(
    tree: KdTree, queries, k: int, *, engine: bool | str = True
) -> QueryResult:
    """Approximate kNN: one bucket per query, no backtracking.

    By default this runs on the batched vectorized engine
    (:mod:`repro.kdtree.engine`): all queries descend the flat tree
    level-by-level, then one gather + top-k kernel answers whole
    buckets at a time.  ``engine`` accepts ``"batched"`` (alias
    ``True``) or ``"loop"`` (alias ``False``, the original per-query
    reference implementation); both produce identical results.
    """
    if _engine_name(engine) == "batched":
        from repro.kdtree.engine import knn_approx_batched

        return knn_approx_batched(tree.flat(), queries, k)
    return knn_approx_loop(tree, queries, k)


def knn_approx_loop(tree: KdTree, queries, k: int) -> QueryResult:
    """The per-query loop path of :func:`knn_approx` (reference/baseline).

    Vectorized by grouping queries that land in the same leaf, but
    still running one Python top-k per query — the software
    pointer-chasing behavior the batched engine removes.
    """
    if k < 1:
        raise ValueError("k must be positive")
    q = _as_query_array(queries)
    m = q.shape[0]
    indices = np.full((m, k), PAD_INDEX, dtype=np.int64)
    distances = np.full((m, k), np.inf)

    leaf_ids = tree.descend_batch(q)
    for leaf in np.unique(leaf_ids):
        members = np.flatnonzero(leaf_ids == leaf)
        bucket_id = tree.nodes[int(leaf)].bucket_id
        candidate_idx = tree.buckets[bucket_id]
        if candidate_idx.size == 0:
            continue
        candidates = tree.points[candidate_idx]
        # (Q_in_leaf, B) pairwise distances for this bucket only.
        diff = q[members, None, :] - candidates[None, :, :]
        dists = np.sqrt((diff * diff).sum(axis=2))
        for row, qi in enumerate(members):
            indices[qi], distances[qi] = top_k(candidate_idx, dists[row], k)
    return QueryResult(indices=indices, distances=distances)


def knn_bbf(
    tree: KdTree,
    queries,
    k: int,
    config: BbfConfig | None = None,
) -> QueryResult:
    """Best-bin-first search with a bounded leaf budget (FLANN-style).

    Visits up to ``config.max_leaves`` buckets per query in order of
    their region's distance to the query — the standard software middle
    ground between the hardware's single-bucket search
    (``BbfConfig(max_leaves=1)`` is equivalent to :func:`knn_approx`)
    and the fully backtracking exact search.  This is the configuration
    behind the paper's FLANN CPU baseline (Table 1's 91% "Approx. k-d
    Tree" row).
    """
    import heapq

    config = config or BbfConfig()
    max_leaves = config.max_leaves

    if k < 1:
        raise ValueError("k must be positive")
    q = _as_query_array(queries)
    m = q.shape[0]
    indices = np.full((m, k), PAD_INDEX, dtype=np.int64)
    distances = np.full((m, k), np.inf)
    nodes = tree.nodes

    for i in range(m):
        point = q[i]
        best = RunningTopK(k)
        # Heap of (lower-bound distance, tiebreak, node index).
        heap: list[tuple[float, int, int]] = [(0.0, 0, tree.ROOT)]
        visited_leaves = 0
        counter = 1
        while heap and visited_leaves < max_leaves:
            bound, _, node_index = heapq.heappop(heap)
            if bound >= best.worst():
                break
            node = nodes[node_index]
            while not node.is_leaf:
                delta = point[node.dim] - node.threshold
                near, far = (
                    (node.left, node.right) if delta <= 0 else (node.right, node.left)
                )
                far_bound = max(bound, abs(delta))
                heapq.heappush(heap, (far_bound, counter, far))
                counter += 1
                node = nodes[near]
            visited_leaves += 1
            candidate_idx = tree.buckets[node.bucket_id]
            if candidate_idx.size == 0:
                continue
            diffs = tree.points[candidate_idx] - point
            best.push(candidate_idx, np.sqrt((diffs * diffs).sum(axis=1)))
        indices[i], distances[i] = best.rows()
    return QueryResult(indices=indices, distances=distances)


def radius_search(tree: KdTree, query, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """All reference points within ``radius`` of one query point (exact).

    Returns ``(indices, distances)`` sorted by ascending distance, equal
    distances by ascending index (the order of
    :class:`~repro.query.result.RaggedResult`).  Uses the same
    backtracking pruning as the exact kNN search; the companion
    operation ICP variants and clustering pipelines need alongside kNN.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    point = np.asarray(query, dtype=np.float64)
    if point.shape != (3,):
        raise ValueError("radius_search takes a single (3,) query point")

    found_idx: list[np.ndarray] = []
    found_dst: list[np.ndarray] = []

    def visit(node_index: int) -> None:
        node = tree.nodes[node_index]
        if node.is_leaf:
            members = tree.buckets[node.bucket_id]
            if members.size == 0:
                return
            diffs = tree.points[members] - point
            dists = np.sqrt((diffs * diffs).sum(axis=1))
            inside = dists <= radius
            if inside.any():
                found_idx.append(members[inside])
                found_dst.append(dists[inside])
            return
        delta = point[node.dim] - node.threshold
        near, far = (node.left, node.right) if delta <= 0 else (node.right, node.left)
        visit(near)
        if abs(delta) <= radius:
            visit(far)

    visit(tree.ROOT)
    if not found_idx:
        return np.empty(0, dtype=np.int64), np.empty(0)
    _, indices, distances = rank(
        np.concatenate(found_idx)[None], np.concatenate(found_dst)[None]
    )
    return indices[0], distances[0]


def knn_exact(
    tree: KdTree, queries, k: int, *, engine: bool | str = True
) -> QueryResult:
    """Exact kNN via backtracking branch-and-bound over the tree.

    By default runs the batched engine path: every query first gets the
    vectorized single-bucket answer, and only the minority of queries
    whose k-th distance exceeds their descent-path plane margin (i.e.
    whose leaf radius test fails) drop to per-query backtracking.
    ``engine="loop"`` (alias ``False``) forces the original all-loop
    path.
    """
    if _engine_name(engine) == "batched":
        from repro.kdtree.engine import knn_exact_batched

        result, _ = knn_exact_batched(tree, queries, k)
        return result
    result, _ = knn_exact_instrumented(tree, queries, k)
    return result


def knn_exact_instrumented(tree: KdTree, queries, k: int) -> tuple[QueryResult, np.ndarray]:
    """Exact kNN plus, per query, the number of buckets backtracking visited.

    The visit counts are what the exact-search architecture model
    charges its extra memory traffic with: an exact search must read
    every visited bucket, where the approximate search reads one.
    """
    if k < 1:
        raise ValueError("k must be positive")
    q = _as_query_array(queries)
    m = q.shape[0]
    indices = np.full((m, k), PAD_INDEX, dtype=np.int64)
    distances = np.full((m, k), np.inf)
    visits = np.zeros(m, dtype=np.int64)
    for i in range(m):
        idx, dst, visited = _exact_single(tree, q[i], k)
        indices[i], distances[i] = idx, dst
        visits[i] = visited
    return QueryResult(indices=indices, distances=distances), visits


def _exact_single(
    tree: KdTree, point: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Depth-first exact search with sibling pruning for one query."""
    best = RunningTopK(k)
    visited = 0

    def visit(node_index: int) -> None:
        nonlocal visited
        node = tree.nodes[node_index]
        if node.is_leaf:
            visited += 1
            candidate_idx = tree.buckets[node.bucket_id]
            if candidate_idx.size:
                diffs = tree.points[candidate_idx] - point
                best.push(candidate_idx, np.sqrt((diffs * diffs).sum(axis=1)))
            return
        delta = point[node.dim] - node.threshold
        near, far = (node.left, node.right) if delta <= 0 else (node.right, node.left)
        visit(near)
        # Backtrack into the far side unless its slab lies beyond the
        # current k-th best distance: a point at exactly that distance
        # with a smaller id still ranks first.
        if abs(delta) <= best.worst():
            visit(far)

    visit(tree.ROOT)
    idx, dst = best.rows()
    return idx, dst, visited
