"""Tree construction and point placement.

Implements the two-step build from Section 2.2 of the paper:

1. *Construction* — a sampled subset of the frame is recursively
   sorted along the cycling split dimension and split at the median,
   forming internal nodes, until the target depth or minimum occupancy
   is reached (Figure 2 of the paper).
2. *Placement* — every point of the frame descends the finished tree
   and lands in a leaf bucket.

Construction also records a :class:`BuildTrace` — the sizes of every
sort and the number of placement traversals — which the architecture
models consume to charge sorter and traversal cycles without re-running
the algorithm.

Two interchangeable builders implement the algorithm, selected by
``KdTreeConfig.builder``: the per-node recursive reference path in this
module (``"legacy"``) and the level-synchronous vectorized pipeline in
:mod:`repro.kdtree.flat_build` (``"vectorized"``, the default).  They
are bit-identical in tree shape, bucket contents, and trace totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry import PointCloud
from repro.kdtree.builders import BUILDERS
from repro.kdtree.config import KdTreeConfig
from repro.kdtree.node import NO_NODE, KdNode, KdTree
from repro.obs import get_registry


@dataclass
class BuildTrace:
    """Operation counts gathered during construction and placement.

    ``sort_sizes`` holds the length of every array handed to the sorter
    (one entry per internal node created); ``placement_traversals``
    counts root-to-leaf walks in the placement phase.
    """

    sample_size: int = 0
    sort_sizes: list[int] = field(default_factory=list)
    placement_traversals: int = 0

    @property
    def sorted_elements(self) -> int:
        """Total elements handed to the sorter across all splits."""
        return int(sum(self.sort_sizes))

    def as_dict(self) -> dict:
        """Flat scalar view (the repo-wide stats convention)."""
        return {
            "sample_size": self.sample_size,
            "n_sorts": len(self.sort_sizes),
            "sorted_elements": self.sorted_elements,
            "placement_traversals": self.placement_traversals,
        }


def record_build_metrics(trace: BuildTrace, *, n_points: int, builder: str) -> None:
    """Register one build's trace in :mod:`repro.obs` (``build.*``)."""
    obs = get_registry()
    if not obs.enabled:
        return
    obs.counter("build.calls").inc()
    obs.counter(f"build.calls.{builder}").inc()
    obs.counter("build.points").inc(n_points)
    obs.counter("build.sorted_elements").inc(trace.sorted_elements)
    obs.counter("build.placement_traversals").inc(trace.placement_traversals)
    obs.distribution("build.sample_size").observe(trace.sample_size)
    obs.distribution("build.n_sorts").observe(len(trace.sort_sizes))


def build_tree(
    points: PointCloud | np.ndarray,
    config: KdTreeConfig | None = None,
    *,
    rng: np.random.Generator | None = None,
    place: bool = True,
) -> tuple[KdTree, BuildTrace]:
    """Build a bucketed k-d tree over ``points``.

    Parameters
    ----------
    points:
        The reference frame.
    config:
        Construction parameters; defaults to :class:`KdTreeConfig()`.
        ``config.builder`` selects the construction strategy — the
        vectorized level-synchronous pipeline by default, or the
        recursive reference path with ``builder="legacy"``.
    rng:
        Source of randomness for the construction sample.  ``None``
        uses a fixed seed, making the build deterministic.
    place:
        If true (the default), run the placement phase so every point
        ends up in a bucket.  Architecture models that account placement
        separately pass ``False`` and call :func:`place_points`.

    Returns
    -------
    (tree, trace):
        The finished tree and the operation-count trace.
    """
    config = config or KdTreeConfig()
    builder = BUILDERS.resolve(config.builder)
    return builder(points, config, rng=rng, place=place)


def _build_vectorized(
    points: PointCloud | np.ndarray,
    config: KdTreeConfig,
    *,
    rng: np.random.Generator | None,
    place: bool,
) -> tuple[KdTree, BuildTrace]:
    from repro.kdtree.flat_build import build_flat

    flat, trace = build_flat(points, config, rng=rng, place=place)
    return KdTree.from_flat(flat), trace


def _build_legacy(
    points: PointCloud | np.ndarray,
    config: KdTreeConfig,
    *,
    rng: np.random.Generator | None,
    place: bool,
) -> tuple[KdTree, BuildTrace]:
    rng = rng or np.random.default_rng(0)
    xyz = points.xyz if isinstance(points, PointCloud) else np.asarray(points, dtype=np.float64)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError("points must have shape (N, 3)")
    n = xyz.shape[0]
    if n == 0:
        raise ValueError("cannot build a k-d tree over zero points")

    trace = BuildTrace()
    sample_n = int(config.effective_sample_size(n))
    trace.sample_size = sample_n
    with get_registry().timer("build.legacy"):
        sample_idx = rng.choice(n, size=sample_n, replace=False) if sample_n < n else np.arange(n)
        sample = xyz[sample_idx]

        tree = KdTree(points=xyz)
        target_depth = config.target_depth(n)
        _construct(tree, sample, depth=0, parent=NO_NODE, config=config,
                   target_depth=target_depth, trace=trace)

        if place:
            place_points(tree, trace=trace)
    record_build_metrics(trace, n_points=n, builder="legacy")
    return tree, trace


def _construct(
    tree: KdTree,
    sample: np.ndarray,
    *,
    depth: int,
    parent: int,
    config: KdTreeConfig,
    target_depth: int,
    trace: BuildTrace,
) -> int:
    """Recursively construct nodes over ``sample``; returns the node index."""
    index = len(tree.nodes)
    stop = (
        depth >= target_depth
        or sample.shape[0] < 2 * config.min_samples_per_leaf
    )
    if stop:
        bucket_id = len(tree.buckets)
        tree.buckets.append(np.empty(0, dtype=np.int64))
        tree.nodes.append(
            KdNode(index=index, parent=parent, depth=depth, bucket_id=bucket_id)
        )
        return index

    dim = config.dim_at_depth(depth)
    order = np.argsort(sample[:, dim], kind="stable")
    # Plain int at append time: numpy scalars leak into as_dict() and
    # break json.dumps downstream.
    trace.sort_sizes.append(int(sample.shape[0]))
    sorted_sample = sample[order]
    median = sample.shape[0] // 2
    threshold = float(sorted_sample[median - 1, dim])

    node = KdNode(index=index, parent=parent, depth=depth, dim=dim, threshold=threshold)
    tree.nodes.append(node)

    below = sorted_sample[:median]
    above = sorted_sample[median:]
    node.left = _construct(tree, below, depth=depth + 1, parent=index, config=config,
                           target_depth=target_depth, trace=trace)
    node.right = _construct(tree, above, depth=depth + 1, parent=index, config=config,
                            target_depth=target_depth, trace=trace)
    return index


def place_points(tree: KdTree, *, trace: BuildTrace | None = None) -> None:
    """Placement phase: route every tree point into its leaf bucket.

    Overwrites any existing bucket contents.  Points exactly on a
    threshold go left, matching :meth:`KdTree.descend`.
    """
    tree.invalidate_caches()
    leaf_ids = tree.descend_batch(tree.points)
    order = np.argsort(leaf_ids, kind="stable")
    sorted_leaves = leaf_ids[order]
    boundaries = np.flatnonzero(np.diff(sorted_leaves)) + 1
    groups = np.split(order, boundaries)
    group_leaves = sorted_leaves[np.concatenate(([0], boundaries))] if len(order) else []

    for bucket in range(len(tree.buckets)):
        tree.buckets[bucket] = np.empty(0, dtype=np.int64)
    for leaf_index, members in zip(group_leaves, groups):
        bucket_id = tree.nodes[int(leaf_index)].bucket_id
        tree.buckets[bucket_id] = members.astype(np.int64)
    # The descent above cached a flat view over the old buckets.
    tree.invalidate_caches()

    if trace is not None:
        trace.placement_traversals += tree.n_points
