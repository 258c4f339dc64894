"""Randomized k-d tree forest (FLANN's multi-tree search).

The FLANN library the paper benchmarks on the CPU does not search one
k-d tree: it builds several *randomized* trees (each choosing its split
dimension randomly among the highest-variance axes) and runs a shared
best-bin-first search across all of them.  Multiple de-correlated
partitions make it much less likely that a true neighbor hides behind a
cell boundary in every tree at once.

This module provides that structure for completeness of the software
baseline: :class:`KdForest` builds ``n_trees`` randomized trees over
the same points and searches them jointly under one leaf budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.geometry import PointCloud
from repro.modality import UnsupportedQueryMixin
from repro.kdtree.builders import BUILDERS
from repro.kdtree.config import KdTreeConfig
from repro.kdtree.node import NO_NODE, KdNode, KdTree
from repro.kdtree.ranking import PAD_INDEX, RunningTopK, top_k
from repro.kdtree.search import QueryResult
from repro.obs import get_registry


@dataclass(frozen=True)
class KdForestConfig:
    """Forest parameters.

    ``top_variance_dims`` is FLANN's randomization knob: each split
    picks uniformly among that many highest-variance dimensions (in 3D,
    2 is the sweet spot — pure random over 3 axes degrades balance).

    ``builder`` mirrors ``KdTreeConfig.builder``: ``"legacy"`` (the
    default) is the per-node recursive build; ``"vectorized"`` runs a
    level-synchronous build that sorts every level with radix passes
    over presorted per-dimension ranks.  The two draw random split
    dimensions in a different order, so trees differ between builders
    (each is deterministic for a given rng); bucket *membership* logic
    is identical.
    """

    n_trees: int = 4
    bucket_capacity: int = 64
    top_variance_dims: int = 2
    builder: str = "legacy"

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("forest needs at least one tree")
        if self.bucket_capacity < 1:
            raise ValueError("bucket_capacity must be positive")
        if not (1 <= self.top_variance_dims <= 3):
            raise ValueError("top_variance_dims must be in [1, 3]")
        BUILDERS.check(self.builder)


class KdForest(UnsupportedQueryMixin):
    """Several randomized k-d trees over one reference set.

    Radius / FPS queries are unsupported (the randomized trees share no
    single exact bound structure) and raise the typed
    :class:`~repro.index.protocol.UnsupportedQuery`.
    """

    name = "forest"

    def __init__(
        self,
        reference: PointCloud | np.ndarray,
        config: KdForestConfig | None = None,
        *,
        rng: np.random.Generator | None = None,
    ):
        self.config = config or KdForestConfig()
        self._rng = rng or np.random.default_rng(0)
        self.build(reference)

    def build(self, reference: PointCloud | np.ndarray) -> "KdForest":
        """Rebuild every randomized tree over a new reference; returns self."""
        self.points = (
            reference.xyz if isinstance(reference, PointCloud)
            else np.asarray(reference, dtype=np.float64)
        )
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("reference must have shape (N, 3)")
        if self.points.shape[0] == 0:
            raise ValueError("reference set is empty")
        with get_registry().timer(f"build.forest.{self.config.builder}"):
            if self.config.builder == "vectorized":
                ranks = self._dimension_ranks()
                self.trees = [
                    self._build_randomized_vectorized(self._rng, ranks)
                    for _ in range(self.config.n_trees)
                ]
            else:
                self.trees = [
                    self._build_randomized(self._rng)
                    for _ in range(self.config.n_trees)
                ]
        return self

    def stats(self) -> dict:
        return {
            "n_reference": int(self.points.shape[0]),
            "n_trees": self.config.n_trees,
            "bucket_capacity": self.config.bucket_capacity,
            "top_variance_dims": self.config.top_variance_dims,
            "builder": self.config.builder,
        }

    # ------------------------------------------------------------------
    def _build_randomized(self, rng: np.random.Generator) -> KdTree:
        """One tree with random split dimensions among top-variance axes."""
        cfg = KdTreeConfig(bucket_capacity=self.config.bucket_capacity)
        tree = KdTree(points=self.points)
        n = self.points.shape[0]
        target_depth = cfg.target_depth(n)
        all_points = np.arange(n, dtype=np.int64)

        def construct(members: np.ndarray, depth: int, parent: int) -> int:
            index = len(tree.nodes)
            if depth >= target_depth or members.size <= self.config.bucket_capacity:
                bucket_id = len(tree.buckets)
                tree.buckets.append(members)
                tree.nodes.append(
                    KdNode(index=index, parent=parent, depth=depth, bucket_id=bucket_id)
                )
                return index
            coords = self.points[members]
            variances = coords.var(axis=0)
            candidates = np.argsort(variances, kind="stable")[::-1][
                : self.config.top_variance_dims
            ]
            dim = int(rng.choice(candidates))
            values = coords[:, dim]
            threshold = float(np.median(values))
            go_left = values <= threshold
            if go_left.all() or not go_left.any():
                bucket_id = len(tree.buckets)
                tree.buckets.append(members)
                tree.nodes.append(
                    KdNode(index=index, parent=parent, depth=depth, bucket_id=bucket_id)
                )
                return index
            node = KdNode(index=index, parent=parent, depth=depth,
                          dim=dim, threshold=threshold)
            tree.nodes.append(node)
            node.left = construct(members[go_left], depth + 1, index)
            node.right = construct(members[~go_left], depth + 1, index)
            return index

        construct(all_points, 0, NO_NODE)
        tree.invalidate_caches()
        return tree

    # ------------------------------------------------------------------
    def _dimension_ranks(self) -> np.ndarray:
        """Per-dimension ranks of every point, shared by all trees.

        Sorting a level by a point's precomputed integer rank is
        equivalent to a stable sort by its coordinate, but runs as a
        radix pass (int16 whenever N fits) instead of a float64
        comparison sort — the main cost of the level loop.
        """
        n = self.points.shape[0]
        dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
        ranks = np.empty((3, n), dtype=dtype)
        for d in range(3):
            order = np.argsort(self.points[:, d], kind="stable")
            ranks[d, order] = np.arange(n, dtype=dtype)
        return ranks

    def _build_randomized_vectorized(
        self, rng: np.random.Generator, ranks: np.ndarray
    ) -> KdTree:
        """Level-synchronous randomized build (one sort pass per level).

        Produces the same kind of tree as :meth:`_build_randomized`
        (random split dim among the ``top_variance_dims``
        highest-variance axes, median threshold, ``<=`` goes left,
        degenerate splits become leaves) but processes all nodes of a
        level at once.  Split dimensions are drawn in level order rather
        than depth-first, so for a given rng the trees differ from the
        legacy builder's — both are deterministic.  Bucket members come
        out sorted by the last split coordinate instead of by point id;
        search never depends on bucket order.
        """
        cfg = KdTreeConfig(bucket_capacity=self.config.bucket_capacity)
        tree = KdTree(points=self.points)
        n = self.points.shape[0]
        target_depth = cfg.target_depth(n)
        cap = self.config.bucket_capacity
        top_k = self.config.top_variance_dims

        # Active segments: contiguous runs of `perm`, one per un-emitted
        # node, with P/R the point columns / rank columns physically
        # permuted to match.
        perm = np.arange(n, dtype=np.int64)
        pts = np.ascontiguousarray(self.points.T)
        rnk = np.ascontiguousarray(ranks)
        sizes = np.array([n], dtype=np.int64)
        parents = np.array([NO_NODE], dtype=np.int64)
        right_child = np.array([False])
        depth = 0

        def emit(parent: int, is_right: bool, members: np.ndarray | None,
                 dim: int = NO_NODE, threshold: float = 0.0) -> int:
            index = len(tree.nodes)
            if members is not None:
                bucket_id = len(tree.buckets)
                tree.buckets.append(members)
                tree.nodes.append(KdNode(index=index, parent=parent,
                                         depth=depth, bucket_id=bucket_id))
            else:
                tree.nodes.append(KdNode(index=index, parent=parent, depth=depth,
                                         dim=dim, threshold=threshold))
            if parent != NO_NODE:
                if is_right:
                    tree.nodes[parent].right = index
                else:
                    tree.nodes[parent].left = index
            return index

        while sizes.size:
            nseg = sizes.size
            starts = np.zeros(nseg + 1, dtype=np.int64)
            np.cumsum(sizes, out=starts[1:])
            leaf = (sizes <= cap) | (depth >= target_depth)
            for j in np.flatnonzero(leaf):
                emit(int(parents[j]), bool(right_child[j]),
                     perm[starts[j]:starts[j + 1]].copy())
            if leaf.all():
                break

            keep = ~leaf
            keep_rep = np.repeat(keep, sizes)
            perm = perm[keep_rep]
            pts = pts[:, keep_rep]
            rnk = rnk[:, keep_rep]
            sizes = sizes[keep]
            parents = parents[keep]
            right_child = right_child[keep]
            nseg = sizes.size
            starts = np.zeros(nseg + 1, dtype=np.int64)
            np.cumsum(sizes, out=starts[1:])
            n_active = int(starts[-1])

            # Split dimension: random among the top-variance axes, with
            # variances computed per segment via reduceat on the
            # centered coordinates (robust to off-origin frames).
            variances = np.empty((nseg, 3))
            inv = 1.0 / sizes
            for d in range(3):
                row = pts[d]
                mean = np.add.reduceat(row, starts[:-1]) * inv
                centered = row - np.repeat(mean, sizes)
                variances[:, d] = (
                    np.add.reduceat(centered * centered, starts[:-1]) * inv
                )
            candidates = np.argsort(variances, axis=1, kind="stable")[:, ::-1][:, :top_k]
            draws = rng.integers(0, top_k, size=nseg)
            dims = candidates[np.arange(nseg), draws]

            # One stable segment sort by the chosen dimension's rank:
            # radix by rank, then radix by segment id.
            seg_dtype = np.int16 if nseg <= np.iinfo(np.int16).max else np.int64
            seg_rep = np.repeat(np.arange(nseg, dtype=seg_dtype), sizes)
            dims_rep = np.repeat(dims, sizes)
            keys = rnk[dims_rep, np.arange(n_active)]
            by_key = np.argsort(keys, kind="stable")
            flat = by_key[np.argsort(seg_rep[by_key], kind="stable")]
            perm = perm[flat]
            pts = pts[:, flat]
            rnk = rnk[:, flat]

            # Median threshold (np.median semantics) and left counts.
            vals = pts[dims_rep, np.arange(n_active)]
            mid = starts[:-1] + sizes // 2
            hi = vals[mid]
            lo = vals[np.maximum(mid - 1, 0)]
            thresholds = np.where(sizes % 2 == 1, hi, 0.5 * (lo + hi))
            below = np.concatenate(
                ([0], np.cumsum(vals <= np.repeat(thresholds, sizes)))
            )
            cnt_left = below[starts[1:]] - below[starts[:-1]]

            # A split that puts everything on one side degenerates to a
            # leaf, as in the recursive builder.
            degenerate = (cnt_left == 0) | (cnt_left == sizes)
            node_ids = np.empty(nseg, dtype=np.int64)
            for j in range(nseg):
                if degenerate[j]:
                    node_ids[j] = emit(int(parents[j]), bool(right_child[j]),
                                       perm[starts[j]:starts[j + 1]].copy())
                else:
                    node_ids[j] = emit(int(parents[j]), bool(right_child[j]), None,
                                       dim=int(dims[j]),
                                       threshold=float(thresholds[j]))

            split = ~degenerate
            if degenerate.any():
                keep_rep = np.repeat(split, sizes)
                perm = perm[keep_rep]
                pts = pts[:, keep_rep]
                rnk = rnk[:, keep_rep]
            n_split = int(split.sum())
            next_sizes = np.empty(2 * n_split, dtype=np.int64)
            next_sizes[0::2] = cnt_left[split]
            next_sizes[1::2] = sizes[split] - cnt_left[split]
            parents = np.repeat(node_ids[split], 2)
            right_child = np.tile([False, True], n_split)
            sizes = next_sizes
            depth += 1

        tree.invalidate_caches()
        return tree

    # ------------------------------------------------------------------
    def query(self, queries: PointCloud | np.ndarray, k: int,
              *, max_leaves: int = 8) -> QueryResult:
        """Joint best-bin-first search across all trees.

        One shared priority queue orders cells from every tree by their
        lower-bound distance; at most ``max_leaves`` buckets are scanned
        per query in total (the FLANN "checks" budget).
        """
        if k < 1:
            raise ValueError("k must be positive")
        if max_leaves < 1:
            raise ValueError("max_leaves must be positive")
        q = queries.xyz if isinstance(queries, PointCloud) else np.asarray(queries, dtype=np.float64)
        q = np.atleast_2d(q)
        m = q.shape[0]
        indices = np.full((m, k), PAD_INDEX, dtype=np.int64)
        distances = np.full((m, k), np.inf)

        for i in range(m):
            point = q[i]
            best = RunningTopK(k)
            seen: set[int] = set()
            heap: list[tuple[float, int, int, int]] = [
                (0.0, t, 0, tree.ROOT) for t, tree in enumerate(self.trees)
            ]
            heapq.heapify(heap)
            counter = len(self.trees)
            visited = 0
            while heap and visited < max_leaves:
                bound, t, _, node_index = heapq.heappop(heap)
                if bound >= best.worst():
                    break
                tree = self.trees[t]
                node = tree.nodes[node_index]
                while not node.is_leaf:
                    delta = point[node.dim] - node.threshold
                    near, far = (
                        (node.left, node.right) if delta <= 0
                        else (node.right, node.left)
                    )
                    heapq.heappush(heap, (max(bound, abs(delta)), t, counter, far))
                    counter += 1
                    node = tree.nodes[near]
                visited += 1
                # A point several trees hold is offered once.
                members = np.array(
                    [ci for ci in tree.buckets[node.bucket_id].tolist() if ci not in seen],
                    dtype=np.int64,
                )
                if members.size == 0:
                    continue
                seen.update(members.tolist())
                diffs = self.points[members] - point
                best.push(members, np.sqrt((diffs * diffs).sum(axis=1)))
            indices[i], distances[i] = best.rows()
        return QueryResult(indices=indices, distances=distances)

    # ------------------------------------------------------------------
    def query_batched(self, queries: PointCloud | np.ndarray, k: int) -> QueryResult:
        """Multi-tree single-bucket search on the batched engine.

        Every tree answers the whole batch with
        :func:`~repro.kdtree.engine.knn_approx_batched`; the per-tree
        top-k lists are then merged per query — duplicates (the same
        point found by several trees) are collapsed by sorting each row
        by point id and masking repeats — and the best k survive.
        A vectorized alternative to :meth:`query` when the leaf budget
        per tree is 1.  Rows follow the one neighbour order
        (:mod:`repro.kdtree.ranking`).
        """
        from repro.kdtree.engine import knn_approx_batched

        if k < 1:
            raise ValueError("k must be positive")
        q = queries.xyz if isinstance(queries, PointCloud) else np.asarray(queries, dtype=np.float64)
        q = np.atleast_2d(q)
        per_tree = [knn_approx_batched(t.flat(), q, k) for t in self.trees]
        idx = np.concatenate([r.indices for r in per_tree], axis=1)
        dst = np.concatenate([r.distances for r in per_tree], axis=1)

        rows = np.arange(q.shape[0])[:, None]
        by_id = np.argsort(idx, axis=1, kind="stable")
        sidx = idx[rows, by_id]
        sdst = dst[rows, by_id]
        dup = (sidx[:, 1:] == sidx[:, :-1]) & (sidx[:, 1:] != PAD_INDEX)
        sdst[:, 1:][dup] = np.inf
        out_idx, out_dst = top_k(sidx, sdst, k)
        return QueryResult(indices=out_idx, distances=out_dst)
