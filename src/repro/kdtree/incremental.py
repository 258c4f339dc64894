"""Incremental tree update (Section 4.4 of the paper).

Rebuilding the k-d tree from scratch for every frame wastes work when
successive frames are similar; reusing a stale tree unbalances it (the
paper's Figure 10).  Incremental update is the middle road:

1. **Reuse** — the new frame's points are placed into the previous
   tree's buckets (thresholds unchanged).
2. **Merge** — leaves whose bucket fell below a lower bound are marked
   *delinquent*; the subtree under each delinquent leaf's parent is
   collapsed and rebuilt from its points.
3. **Split** — leaves whose bucket rose above an upper bound are marked
   *oversized* and replaced by a freshly constructed subtree.

The result is a tree whose bucket sizes stay within the bounds, at a
fraction of the from-scratch build cost (only the rebuilt subtrees are
sorted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry import PointCloud
from repro.kdtree.config import KdTreeConfig
from repro.kdtree.node import NO_NODE, KdNode, KdTree
from repro.obs import get_registry


@dataclass
class UpdateTrace:
    """Work accounting for one incremental update."""

    n_merges: int = 0
    n_splits: int = 0
    points_rebuilt: int = 0
    sort_sizes: list[int] = field(default_factory=list)

    @property
    def sorted_elements(self) -> int:
        """Total elements sorted while rebuilding subtrees."""
        return int(sum(self.sort_sizes))

    def as_dict(self) -> dict:
        """Flat scalar view (the repo-wide stats convention)."""
        return {
            "n_merges": self.n_merges,
            "n_splits": self.n_splits,
            "points_rebuilt": self.points_rebuilt,
            "n_sorts": len(self.sort_sizes),
            "sorted_elements": self.sorted_elements,
        }


def _group_by_leaf(leaf_ids: np.ndarray, n_nodes: int) -> dict[int, np.ndarray]:
    """``{leaf node index: ascending point indices}`` for the new frame.

    One stable argsort over narrow leaf ids replaces the per-leaf
    ``np.flatnonzero`` scans; members stay ascending within each leaf,
    so the grouping is identical to the scan-based one.
    """
    if leaf_ids.size == 0:
        return {}
    if n_nodes <= np.iinfo(np.int16).max:
        key = leaf_ids.astype(np.int16)
    elif n_nodes <= np.iinfo(np.int32).max:
        key = leaf_ids.astype(np.int32)
    else:
        key = leaf_ids
    order = np.argsort(key, kind="stable")
    sorted_leaves = leaf_ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_leaves)) + 1
    groups = np.split(order, boundaries)
    uniques = sorted_leaves[np.concatenate(([0], boundaries))]
    return {int(leaf): members for leaf, members in zip(uniques, groups)}


def reuse_tree(tree: KdTree, new_points: PointCloud | np.ndarray) -> KdTree:
    """The *static* strategy: same thresholds, re-bucket the new frame.

    This is the baseline Figure 10 shows diverging: as the scene moves,
    a frozen partition fits the data worse and worse.
    """
    xyz = _as_points(new_points)
    new_tree = KdTree(points=xyz)
    new_tree.nodes = [KdNode(**vars(n)) for n in tree.nodes]
    new_tree.buckets = [np.empty(0, dtype=np.int64) for _ in tree.buckets]
    # Thresholds are unchanged, so route through the *old* tree's flat
    # view — usually already cached by the previous frame's queries.
    leaf_ids = tree.flat().descend_fast(xyz)
    for leaf, members in _group_by_leaf(leaf_ids, new_tree.n_nodes).items():
        new_tree.buckets[new_tree.nodes[leaf].bucket_id] = members
    return new_tree


def update_tree(
    tree: KdTree,
    new_points: PointCloud | np.ndarray,
    config: KdTreeConfig | None = None,
    *,
    lower_bound: int | None = None,
    upper_bound: int | None = None,
) -> tuple[KdTree, UpdateTrace]:
    """Incremental update: re-bucket, then merge/split out-of-bound leaves.

    Bounds default to half and twice the configured bucket capacity,
    the operating point of the paper's Figure 10.  The whole new frame
    is routed through the old tree's flat view in one level-parallel
    descent (:meth:`~repro.kdtree.engine.FlatKdTree.descend_fast`).
    """
    config = config or KdTreeConfig()
    lower = lower_bound if lower_bound is not None else config.bucket_capacity // 2
    upper = upper_bound if upper_bound is not None else 2 * config.bucket_capacity
    if lower < 0 or upper <= lower:
        raise ValueError(f"need 0 <= lower < upper, got [{lower}, {upper}]")

    with get_registry().timer("build.incremental"):
        new_tree, trace = _update_tree(
            tree, new_points, config, lower=lower, upper=upper
        )
    _record_update_metrics(trace, n_points=new_tree.n_points)
    return new_tree, trace


def _record_update_metrics(trace: UpdateTrace, *, n_points: int) -> None:
    """Register one incremental update in :mod:`repro.obs`."""
    obs = get_registry()
    if not obs.enabled:
        return
    obs.counter("build.incremental.calls").inc()
    obs.counter("build.incremental.points").inc(n_points)
    obs.counter("build.incremental.points_rebuilt").inc(trace.points_rebuilt)
    obs.counter("build.incremental.merges").inc(trace.n_merges)
    obs.counter("build.incremental.splits").inc(trace.n_splits)
    obs.counter("build.incremental.sorted_elements").inc(trace.sorted_elements)


def _update_tree(
    tree: KdTree,
    new_points: PointCloud | np.ndarray,
    config: KdTreeConfig,
    *,
    lower: int,
    upper: int,
) -> tuple[KdTree, UpdateTrace]:
    xyz = _as_points(new_points)
    trace = UpdateTrace()

    # Step 1: place the new frame through the old structure.
    leaf_ids = tree.flat().descend_fast(xyz)
    points_by_node = _group_by_leaf(leaf_ids, tree.n_nodes)

    # Subtree point counts, bottom-up.
    counts = _subtree_counts(tree, points_by_node)

    # Step 2/3: decide which subtrees to rebuild.
    rebuild = set()
    for node in tree.nodes:
        if not node.is_leaf:
            continue
        size = counts[node.index]
        if size < lower and node.parent != NO_NODE:
            rebuild.add(node.parent)      # merge: collapse the parent
            trace.n_merges += 1
        elif size > upper:
            rebuild.add(node.index)       # split: subdivide the leaf
            trace.n_splits += 1
    rebuild = _drop_dominated(tree, rebuild)

    # Build the output tree by structural copy + local reconstruction.
    new_tree = KdTree(points=xyz)

    def subtree_point_indices(root: int) -> np.ndarray:
        stack, collected = [root], []
        while stack:
            node = tree.nodes[stack.pop()]
            if node.is_leaf:
                collected.append(points_by_node.get(node.index, np.empty(0, dtype=np.int64)))
            else:
                stack.extend((node.left, node.right))
        return np.concatenate(collected) if collected else np.empty(0, dtype=np.int64)

    def copy(old_index: int, parent: int, depth: int) -> int:
        old = tree.nodes[old_index]
        if old_index in rebuild:
            members = subtree_point_indices(old_index)
            trace.points_rebuilt += members.size
            return _construct_subtree(
                new_tree, xyz, members, parent=parent, depth=depth,
                config=config, upper=upper, trace=trace,
            )
        index = len(new_tree.nodes)
        if old.is_leaf:
            bucket_id = len(new_tree.buckets)
            new_tree.buckets.append(
                points_by_node.get(old_index, np.empty(0, dtype=np.int64))
            )
            new_tree.nodes.append(
                KdNode(index=index, parent=parent, depth=depth, bucket_id=bucket_id)
            )
            return index
        node = KdNode(index=index, parent=parent, depth=depth,
                      dim=old.dim, threshold=old.threshold)
        new_tree.nodes.append(node)
        node.left = copy(old.left, index, depth + 1)
        node.right = copy(old.right, index, depth + 1)
        return index

    copy(tree.ROOT, NO_NODE, 0)
    new_tree.invalidate_caches()
    return new_tree, trace


def _construct_subtree(
    tree: KdTree,
    xyz: np.ndarray,
    members: np.ndarray,
    *,
    parent: int,
    depth: int,
    config: KdTreeConfig,
    upper: int,
    trace: UpdateTrace,
) -> int:
    """Median-split ``members`` until every bucket fits under ``upper``.

    Uses the same sort-and-split method as from-scratch construction,
    but over the actual points (the collapsed region is small, so no
    sampling is needed — matching the paper's note that incremental
    sorts involve "far fewer points than N").
    """
    index = len(tree.nodes)
    if members.size <= upper:
        bucket_id = len(tree.buckets)
        tree.buckets.append(members.astype(np.int64))
        tree.nodes.append(KdNode(index=index, parent=parent, depth=depth, bucket_id=bucket_id))
        return index

    dim = config.dim_at_depth(depth)
    values = xyz[members, dim]
    order = np.argsort(values, kind="stable")
    # Plain int at append time: numpy scalars leak into as_dict() and
    # break json.dumps downstream.
    trace.sort_sizes.append(int(members.size))
    sorted_members = members[order]
    median = members.size // 2
    threshold = float(values[order[median - 1]])

    node = KdNode(index=index, parent=parent, depth=depth, dim=dim, threshold=threshold)
    tree.nodes.append(node)
    # Points equal to the threshold must go left to match descend().
    left_members = sorted_members[values[order] <= threshold]
    right_members = sorted_members[values[order] > threshold]
    if left_members.size == 0 or right_members.size == 0:
        # Degenerate coordinates (all identical on this axis): fall back
        # to an oversized leaf rather than recursing forever.
        tree.nodes.pop()
        bucket_id = len(tree.buckets)
        tree.buckets.append(members.astype(np.int64))
        tree.nodes.append(KdNode(index=index, parent=parent, depth=depth, bucket_id=bucket_id))
        return index
    node.left = _construct_subtree(tree, xyz, left_members, parent=index, depth=depth + 1,
                                   config=config, upper=upper, trace=trace)
    node.right = _construct_subtree(tree, xyz, right_members, parent=index, depth=depth + 1,
                                    config=config, upper=upper, trace=trace)
    return index


def _subtree_counts(tree: KdTree, points_by_node: dict[int, np.ndarray]) -> dict[int, int]:
    """Number of (newly placed) points under every node."""
    counts = {i: 0 for i in range(tree.n_nodes)}
    # Children precede nothing in particular, so do an explicit post-order.
    stack = [(tree.ROOT, False)]
    while stack:
        index, expanded = stack.pop()
        node = tree.nodes[index]
        if node.is_leaf:
            counts[index] = int(points_by_node.get(index, np.empty(0)).size)
        elif not expanded:
            stack.append((index, True))
            stack.append((node.left, False))
            stack.append((node.right, False))
        else:
            counts[index] = counts[node.left] + counts[node.right]
    return counts


def _drop_dominated(tree: KdTree, rebuild: set[int]) -> set[int]:
    """Remove marks that sit inside another marked subtree."""
    kept = set()
    for index in rebuild:
        ancestor = tree.nodes[index].parent
        dominated = False
        while ancestor != NO_NODE:
            if ancestor in rebuild:
                dominated = True
                break
            ancestor = tree.nodes[ancestor].parent
        if not dominated:
            kept.add(index)
    return kept


def _as_points(points: PointCloud | np.ndarray) -> np.ndarray:
    xyz = points.xyz if isinstance(points, PointCloud) else np.asarray(points, dtype=np.float64)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError("points must have shape (N, 3)")
    return xyz
