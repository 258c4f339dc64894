"""Hierarchical k-means tree (FLANN-style) approximate kNN.

The "Approx. k-means" row of Table 1.  The search space is recursively
partitioned into ``branching`` clusters by Lloyd's algorithm until the
partitions shrink below a leaf size; a query greedily descends to the
nearest cluster at every level and scans the leaf it reaches.

The paper finds this method slightly more accurate than the k-d tree
(about +5.6% on KITTI) but more than twice as slow to build and search —
the harness reproduces both observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import PointCloud
from repro.modality import UnsupportedQueryMixin
from repro.kdtree.ranking import PAD_INDEX, top_k
from repro.kdtree.search import QueryResult


@dataclass(frozen=True)
class KMeansTreeConfig:
    """Parameters of the hierarchical k-means partition."""

    branching: int = 8
    leaf_size: int = 256
    max_lloyd_iterations: int = 10

    def __post_init__(self):
        if self.branching < 2:
            raise ValueError("branching must be at least 2")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be positive")
        if self.max_lloyd_iterations < 1:
            raise ValueError("max_lloyd_iterations must be positive")


class _Node:
    __slots__ = ("centers", "children", "members")

    def __init__(self):
        self.centers: np.ndarray | None = None   # (branching, 3) for internal
        self.children: list["_Node"] | None = None
        self.members: np.ndarray | None = None   # point indices for leaves


class KMeansTree(UnsupportedQueryMixin):
    """A k-means tree index over a fixed reference set.

    Radius / FPS queries raise the typed
    :class:`~repro.index.protocol.UnsupportedQuery`.
    """

    name = "kmeans"

    def __init__(
        self,
        reference: PointCloud | np.ndarray,
        config: KMeansTreeConfig | None = None,
        *,
        rng: np.random.Generator | None = None,
    ):
        self.config = config or KMeansTreeConfig()
        self._rng = rng or np.random.default_rng(0)
        self.points = (
            reference.xyz if isinstance(reference, PointCloud)
            else np.asarray(reference, dtype=np.float64)
        )
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("reference must have shape (N, 3)")
        if self.points.shape[0] == 0:
            raise ValueError("reference set is empty")
        self.n_lloyd_updates = 0  # build-cost counter (distance evaluations)
        self._root = self._build(np.arange(self.points.shape[0], dtype=np.int64))

    def build(self, reference: PointCloud | np.ndarray) -> "KMeansTree":
        """Re-cluster a new reference cloud; returns self."""
        self.__init__(reference, self.config)
        return self

    def stats(self) -> dict:
        sizes = self.leaf_sizes()
        return {
            "n_reference": int(self.points.shape[0]),
            "branching": self.config.branching,
            "n_leaves": int(sizes.size),
            "mean_leaf_size": float(sizes.mean()) if sizes.size else 0.0,
            "n_lloyd_updates": int(self.n_lloyd_updates),
        }

    # ------------------------------------------------------------------
    def _build(self, members: np.ndarray) -> _Node:
        node = _Node()
        cfg = self.config
        if members.size <= cfg.leaf_size or members.size <= cfg.branching:
            node.members = members
            return node

        centers, assignment = self._lloyd(self.points[members])
        node.centers = centers
        node.children = []
        for c in range(centers.shape[0]):
            sub = members[assignment == c]
            if sub.size == 0:
                # Guard against an empty cluster: give it an empty leaf.
                child = _Node()
                child.members = sub
            elif sub.size == members.size:
                # Degenerate clustering (all points identical): stop.
                child = _Node()
                child.members = sub
            else:
                child = self._build(sub)
            node.children.append(child)
        return node

    def _lloyd(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Standard Lloyd iterations; returns (centers, assignment)."""
        cfg = self.config
        k = min(cfg.branching, pts.shape[0])
        seed_idx = self._rng.choice(pts.shape[0], size=k, replace=False)
        centers = pts[seed_idx].copy()
        assignment = np.zeros(pts.shape[0], dtype=np.int64)
        for _ in range(cfg.max_lloyd_iterations):
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            self.n_lloyd_updates += d2.size
            new_assignment = d2.argmin(axis=1)
            if (new_assignment == assignment).all() and _ > 0:
                break
            assignment = new_assignment
            for c in range(k):
                mask = assignment == c
                if mask.any():
                    centers[c] = pts[mask].mean(axis=0)
        return centers, assignment

    # ------------------------------------------------------------------
    def query(self, queries: PointCloud | np.ndarray, k: int) -> QueryResult:
        """Greedy-descent approximate search (one leaf per query)."""
        if k < 1:
            raise ValueError("k must be positive")
        q = queries.xyz if isinstance(queries, PointCloud) else np.asarray(queries, dtype=np.float64)
        q = np.atleast_2d(q)
        m = q.shape[0]
        indices = np.full((m, k), PAD_INDEX, dtype=np.int64)
        distances = np.full((m, k), np.inf)
        for i in range(m):
            leaf = self._descend(q[i])
            members = leaf.members
            if members is None or members.size == 0:
                continue
            diffs = self.points[members] - q[i]
            dists = np.sqrt((diffs * diffs).sum(axis=1))
            indices[i], distances[i] = top_k(members, dists, k)
        return QueryResult(indices=indices, distances=distances)

    def _descend(self, point: np.ndarray) -> _Node:
        node = self._root
        while node.children is not None:
            d2 = ((node.centers - point) ** 2).sum(axis=1)
            child = node.children[int(d2.argmin())]
            if child.members is not None and child.members.size == 0:
                # Empty cluster: fall back to the best non-empty child.
                order = np.argsort(d2, kind="stable")
                for c in order:
                    candidate = node.children[int(c)]
                    if candidate.members is None or candidate.members.size:
                        child = candidate
                        break
            node = child
        return node

    def leaf_sizes(self) -> np.ndarray:
        """Points per leaf, for balance diagnostics."""
        sizes = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.children is None:
                sizes.append(0 if node.members is None else int(node.members.size))
            else:
                stack.extend(node.children)
        return np.array(sizes, dtype=np.int64)
