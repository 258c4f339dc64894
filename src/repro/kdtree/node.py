"""k-d tree node and tree containers.

The layout deliberately mirrors the paper's hardware data structure
(Section 4.1): each tree node carries a threshold, a dimension
indicator, and parent/child pointers; each leaf points at a bucket of
points.  Nodes live in a flat list and reference each other by index —
the software analogue of the word-addressable tree cache — which lets
the architecture models map nodes directly onto cache words and banks.

The arrays form of the same tree is
:class:`~repro.kdtree.engine.FlatKdTree` (:meth:`KdTree.flat`), and
:meth:`KdTree.from_flat` is the one way back: builders, snapshots and
sessions keep the arrays and derive the node view from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NO_NODE = -1


@dataclass
class KdNode:
    """One tree node.  Internal nodes split; leaf nodes own a bucket.

    ``dim``/``threshold``/``left``/``right`` are meaningful for internal
    nodes; ``bucket_id`` for leaves.  Exactly one of the two roles is
    active, enforced by :meth:`validate_role`.
    """

    index: int
    parent: int = NO_NODE
    depth: int = 0
    dim: int = -1
    threshold: float = np.nan
    left: int = NO_NODE
    right: int = NO_NODE
    bucket_id: int = NO_NODE

    @property
    def is_leaf(self) -> bool:
        return self.bucket_id != NO_NODE

    def validate_role(self) -> None:
        """Raise if the node is neither a proper leaf nor a proper split."""
        if self.is_leaf:
            if self.left != NO_NODE or self.right != NO_NODE:
                raise ValueError(f"leaf node {self.index} has children")
        else:
            if self.left == NO_NODE or self.right == NO_NODE:
                raise ValueError(f"internal node {self.index} missing a child")
            if self.dim not in (0, 1, 2):
                raise ValueError(f"internal node {self.index} has invalid dim {self.dim}")
            if not np.isfinite(self.threshold):
                raise ValueError(f"internal node {self.index} has invalid threshold")


@dataclass
class KdTree:
    """A bucketed k-d tree over a fixed reference point set.

    Attributes
    ----------
    points:
        The ``(N, 3)`` reference points the buckets index into.
    nodes:
        Flat node list; ``nodes[i].index == i``.  ``root`` is node 0.
    buckets:
        One integer index array per bucket, indexing into ``points``.
        ``nodes[j].bucket_id`` selects the bucket of leaf ``j``.
    """

    points: np.ndarray
    nodes: list[KdNode] = field(default_factory=list)
    buckets: list[np.ndarray] = field(default_factory=list)

    ROOT = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("tree points must have shape (N, 3)")
        self._flat = None

    @classmethod
    def from_flat(cls, flat) -> "KdTree":
        """The node view of a :class:`~repro.kdtree.engine.FlatKdTree`.

        The one place ``KdNode`` objects are made from arrays.  Parent
        and depth follow from ``left``/``right``; leaves keep the
        ``KdNode`` defaults (``dim=-1``, ``threshold=nan``); each bucket
        is a view of ``flat.bucket_members``; and ``flat`` itself is
        attached as the cached :meth:`flat`, so the node view costs no
        second conversion.
        """
        tree = cls(points=flat.points)
        is_leaf = flat.is_leaf
        parent = np.full(is_leaf.shape[0], NO_NODE, dtype=np.int64)
        depth = np.zeros(is_leaf.shape[0], dtype=np.int64)
        frontier = np.array([cls.ROOT])
        level = 0
        while frontier.size:
            depth[frontier] = level
            frontier = frontier[~is_leaf[frontier]]
            parent[flat.left[frontier]] = frontier
            parent[flat.right[frontier]] = frontier
            frontier = np.concatenate((flat.left[frontier], flat.right[frontier]))
            level += 1

        columns = zip(
            is_leaf.tolist(), parent.tolist(), depth.tolist(), flat.dim.tolist(),
            flat.threshold.tolist(), flat.left.tolist(), flat.right.tolist(),
            flat.bucket_id.tolist(),
        )
        for i, (leaf, up, d, dim, threshold, left, right, bucket) in enumerate(columns):
            if leaf:
                node = KdNode(index=i, parent=up, depth=d, bucket_id=bucket)
            else:
                node = KdNode(index=i, parent=up, depth=d, dim=dim,
                              threshold=threshold, left=left, right=right)
            tree.nodes.append(node)
        bounds = flat.bucket_offsets.tolist()
        tree.buckets = [
            flat.bucket_members[a:b] for a, b in zip(bounds[:-1], bounds[1:])
        ]
        tree._flat = flat
        return tree

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def leaves(self) -> list[KdNode]:
        return [n for n in self.nodes if n.is_leaf]

    @property
    def n_leaves(self) -> int:
        return sum(1 for n in self.nodes if n.is_leaf)

    def depth(self) -> int:
        """Maximum leaf depth (root alone is depth 0)."""
        if not self.nodes:
            raise ValueError("tree has no nodes")
        return max(n.depth for n in self.nodes if n.is_leaf)

    def bucket_sizes(self) -> np.ndarray:
        """Points per leaf bucket, in leaf order."""
        return np.array(
            [len(self.buckets[n.bucket_id]) for n in self.nodes if n.is_leaf],
            dtype=np.int64,
        )

    def bucket_points(self, bucket_id: int) -> np.ndarray:
        """Coordinates of the points in one bucket, shape ``(B, 3)``."""
        return self.points[self.buckets[bucket_id]]

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def descend(self, point: np.ndarray) -> KdNode:
        """Walk from the root to the leaf whose region contains ``point``."""
        node = self.nodes[self.ROOT]
        while not node.is_leaf:
            child = node.left if point[node.dim] <= node.threshold else node.right
            node = self.nodes[child]
        return node

    def descend_path(self, point: np.ndarray) -> list[int]:
        """Node indices visited from root to leaf (inclusive)."""
        path = [self.ROOT]
        node = self.nodes[self.ROOT]
        while not node.is_leaf:
            child = node.left if point[node.dim] <= node.threshold else node.right
            path.append(child)
            node = self.nodes[child]
        return path

    def descend_batch(self, points: np.ndarray) -> np.ndarray:
        """Leaf node index for each of ``(M, 3)`` points, vectorized."""
        return self.flat().descend(points)

    def invalidate_caches(self) -> None:
        """Must be called after structural edits (incremental update)."""
        self._flat = None

    def flat(self):
        """The cached :class:`~repro.kdtree.engine.FlatKdTree` view.

        Built on first use and reused by every batched query until
        :meth:`invalidate_caches` is called.
        """
        if self._flat is None:
            from repro.kdtree.engine import FlatKdTree

            self._flat = FlatKdTree.from_tree(self)
        return self._flat
