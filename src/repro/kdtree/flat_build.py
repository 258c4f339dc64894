"""Vectorized direct-to-flat tree construction and placement.

The legacy builder in :mod:`repro.kdtree.build` is faithful to the
paper but pays the Python interpreter once per node (recursive subset
sorts) and converts the finished object graph into the engine's
:class:`~repro.kdtree.engine.FlatKdTree` only afterwards.  This module
restructures construction the same way PR 1 restructured queries —
level-synchronous, one NumPy kernel per tree level — and emits the
flat structure-of-arrays layout directly:

* **Construction** runs one segment-sort per level across *all* active
  nodes at once: the sample is kept segment-contiguous, each level
  stably sorts every segment by the cycling split dimension (a single
  2-D ``np.argsort`` when the segments are equal-sized, a two-pass
  stable composition otherwise) and reads all medians with one gather.
* **Placement** descends the whole frame simultaneously through
  per-level threshold tables: one gather + compare + slot update per
  level, instead of ~N root-to-leaf pointer walks.
* **Bucketing** is a counting pass (``np.bincount``) plus one stable
  argsort over small integer bucket ids — the CSR arrays the engine
  consumes come out directly.

The result is **bit-identical** to the legacy builder — same node
numbering (preorder), same thresholds, same bucket membership and
order, same :class:`~repro.kdtree.build.BuildTrace` — under the shared
tie-break rule both builders implement: subsets are sorted *stably* by
the split coordinate (ties keep their pre-sort order), the median
element splits at ``size // 2``, and points exactly on a threshold go
left.  ``tests/kdtree/test_build_vectorized.py`` holds the equivalence
suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.geometry import PointCloud
from repro.kdtree.config import KdTreeConfig
from repro.kdtree.engine import FlatKdTree
from repro.kdtree.node import NO_NODE

if TYPE_CHECKING:
    from repro.kdtree.build import BuildTrace

__all__ = ["build_flat"]


def _as_xyz(points) -> np.ndarray:
    xyz = points.xyz if isinstance(points, PointCloud) else np.asarray(points, dtype=np.float64)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError("points must have shape (N, 3)")
    return xyz


class _Level:
    """Per-level construction record (BFS order within the level)."""

    __slots__ = ("dim", "slots", "leaf", "sizes", "thresholds")

    def __init__(self, dim, slots, leaf, sizes, thresholds):
        self.dim = dim                # split dimension used at this level
        self.slots = slots            # complete-tree slot of every node
        self.leaf = leaf              # bool mask over the level's nodes
        self.sizes = sizes            # sample points under every node
        self.thresholds = thresholds  # per *internal* node, level order


def _construct_levels(
    sample: np.ndarray, config: KdTreeConfig, target_depth: int
) -> list[_Level]:
    """Level-synchronous median-split construction over the sample.

    Mirrors the legacy recursion exactly: a node stops splitting at the
    target depth or when its sample subset is smaller than twice the
    minimum leaf occupancy; otherwise it stably sorts the subset along
    the level's dimension and splits at ``size // 2``.
    """
    min2 = 2 * config.min_samples_per_leaf
    # The sample is kept physically reordered, segment-contiguous, in
    # column-major layout: each level's sort key is then a plain view
    # and one fancy gather re-permutes all three columns at once.
    cols = np.ascontiguousarray(sample.T)

    sizes = np.array([sample.shape[0]], dtype=np.int64)
    slots = np.array([0], dtype=np.int64)
    levels: list[_Level] = []
    depth = 0
    while sizes.size:
        dim = config.dim_at_depth(depth)
        leaf = (sizes < min2) | (depth >= target_depth)
        keep = ~leaf
        record = _Level(dim, slots, leaf, sizes, np.empty(0))
        levels.append(record)
        if not keep.any():
            break

        if leaf.any():
            cols = cols[:, np.repeat(keep, sizes)]
            sizes = sizes[keep]
            slots = slots[keep]
        starts = np.zeros(sizes.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])

        # Stable per-segment sort along the level's dimension.  Equal
        # segment sizes (the common sampled-build case) collapse to one
        # 2-D argsort; otherwise compose two stable passes — by value,
        # then by segment — which is the same ordering.
        vals = cols[dim]
        m0 = int(sizes[0])
        if vals.size == sizes.size * m0 and (sizes.size == 1 or bool(np.all(sizes == m0))):
            grid = vals.reshape(sizes.size, m0)
            # Introsort first — roughly half the cost of a stable sort.
            # Its permutation matches the stable one unless a segment
            # holds duplicate values, so fall back only on ties.
            order = np.argsort(grid, axis=1)
            flat = (order + starts[:, None]).ravel()
            if _has_segment_ties(vals[flat], starts):
                order = np.argsort(grid, axis=1, kind="stable")
                flat = (order + starts[:, None]).ravel()
        else:
            seg_ids = np.repeat(np.arange(sizes.size), sizes)
            by_val = np.argsort(vals, kind="stable")
            flat = by_val[np.argsort(seg_ids[by_val], kind="stable")]
        cols = cols[:, flat]

        medians = sizes // 2
        record.thresholds = cols[dim][starts + medians - 1]

        # Children: [start, start+m//2) and [start+m//2, start+m),
        # interleaved left/right — contiguous in the reordered sample.
        next_sizes = np.empty(2 * sizes.size, dtype=np.int64)
        next_sizes[0::2] = medians
        next_sizes[1::2] = sizes - medians
        next_slots = np.empty(2 * slots.size, dtype=np.int64)
        next_slots[0::2] = 2 * slots
        next_slots[1::2] = 2 * slots + 1
        sizes, slots = next_sizes, next_slots
        depth += 1
    return levels


def _has_segment_ties(sorted_vals: np.ndarray, starts: np.ndarray) -> bool:
    """True if any segment of the level holds duplicate values."""
    if sorted_vals.size < 2:
        return False
    eq = sorted_vals[1:] == sorted_vals[:-1]
    eq[starts[1:] - 1] = False  # adjacency across segment boundaries
    return bool(eq.any())


class _TreeArrays:
    """Preorder structural arrays plus the per-level preorder map."""

    __slots__ = (
        "dim", "threshold", "left", "right", "is_leaf", "bucket_id",
        "sort_sizes", "levels", "n_buckets", "pre",
    )


def _number_preorder(levels: list[_Level]) -> _TreeArrays:
    """Renumber the BFS level records into the legacy preorder layout.

    Subtree sizes roll up bottom-up, preorder indices roll down
    top-down — both one vectorized step per level — reproducing the
    legacy builder's depth-first node and bucket numbering exactly.
    """
    n_levels = len(levels)
    counts: list[np.ndarray] = [np.ones(level.slots.size, dtype=np.int64) for level in levels]
    for li in range(n_levels - 2, -1, -1):
        internal = ~levels[li].leaf
        child = counts[li + 1]
        counts[li][internal] = 1 + child[0::2] + child[1::2]

    pre: list[np.ndarray] = [np.zeros(level.slots.size, dtype=np.int64) for level in levels]
    for li in range(n_levels - 1):
        internal = ~levels[li].leaf
        left_pre = pre[li][internal] + 1
        pre[li + 1][0::2] = left_pre
        pre[li + 1][1::2] = left_pre + counts[li + 1][0::2]

    n_nodes = int(sum(c.size for c in counts))
    out = _TreeArrays()
    out.levels = levels
    out.pre = pre
    out.dim = np.zeros(n_nodes, dtype=np.int64)
    out.threshold = np.zeros(n_nodes, dtype=np.float64)
    out.left = np.full(n_nodes, NO_NODE, dtype=np.int64)
    out.right = np.full(n_nodes, NO_NODE, dtype=np.int64)
    out.is_leaf = np.zeros(n_nodes, dtype=bool)
    out.bucket_id = np.full(n_nodes, NO_NODE, dtype=np.int64)

    sizes_by_pre = np.zeros(n_nodes, dtype=np.int64)
    for li, level in enumerate(levels):
        p = pre[li]
        out.is_leaf[p] = level.leaf
        sizes_by_pre[p] = level.sizes
        internal = ~level.leaf
        if internal.any():
            pi = p[internal]
            out.dim[pi] = level.dim
            out.threshold[pi] = level.thresholds
            out.left[pi] = pre[li + 1][0::2]
            out.right[pi] = pre[li + 1][1::2]

    leaf_pre = np.sort(np.flatnonzero(out.is_leaf))
    out.bucket_id[leaf_pre] = np.arange(leaf_pre.size)
    out.n_buckets = int(leaf_pre.size)
    internal_pre = np.flatnonzero(~out.is_leaf)
    out.sort_sizes = sizes_by_pre[internal_pre].tolist()
    return out


def _place(arrays: _TreeArrays, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized placement: all points descend one level at a time.

    Returns the CSR ``(offsets, members)`` pair, with members ascending
    inside every bucket — exactly the legacy ``place_points`` output.
    """
    levels = arrays.levels
    n = xyz.shape[0]
    depth = len(levels) - 1
    n_buckets = arrays.n_buckets
    if depth == 0:
        offsets = np.array([0, n], dtype=np.int64)
        return offsets, np.arange(n, dtype=np.int64)

    # One gather + compare + slot update per level, over all points at
    # once.  Leaves above the bottom keep +inf thresholds so their
    # points ride the left spine down to a unique bottom-level slot.
    # Construction caps depth at ~log2(sample), so 2**depth is O(n) and
    # a narrow slot dtype keeps the update arithmetic cheap.
    if depth <= 14:
        slot_dtype = np.int16
    elif depth <= 30:
        slot_dtype = np.int32
    else:
        slot_dtype = np.int64
    cur = np.zeros(n, dtype=slot_dtype)
    gt = np.empty(n, dtype=bool)
    # Contiguous per-dim columns: the compare streams each one several
    # times (dims cycle), and strided access costs ~2x on the gather.
    columns = [np.ascontiguousarray(xyz[:, d]) for d in range(3)]
    for li, level in enumerate(levels[:-1]):
        internal = ~level.leaf
        table = np.full(1 << li, np.inf)
        table[level.slots[internal]] = level.thresholds
        if li == 0:
            np.greater(columns[level.dim], table[0], out=gt)
        else:
            np.greater(columns[level.dim], np.take(table, cur), out=gt)
        np.left_shift(cur, 1, out=cur)
        np.add(cur, gt, out=cur, casting="unsafe")

    # Preorder visits leaves left to right, so bucket ids ascend with
    # the bottom slot: grouping by slot IS grouping by bucket, and one
    # radix argsort over narrow slots yields members grouped by bucket,
    # ascending within each — exactly the legacy ordering.
    slot_by_bucket = np.empty(n_buckets, dtype=np.int64)
    for li, level in enumerate(levels):
        if level.leaf.any():
            bottom = level.slots[level.leaf] << (depth - li)
            slot_by_bucket[arrays.bucket_id[arrays.pre[li][level.leaf]]] = bottom
    counts_by_slot = np.bincount(cur, minlength=1 << depth)
    offsets = np.zeros(n_buckets + 1, dtype=np.int64)
    np.cumsum(counts_by_slot[slot_by_bucket], out=offsets[1:])

    max_slot = (1 << depth) - 1
    if max_slot <= np.iinfo(np.int8).max:
        key = cur.astype(np.int8)
    elif cur.dtype != np.int16 and max_slot <= np.iinfo(np.int16).max:
        key = cur.astype(np.int16)
    else:
        key = cur
    members = np.argsort(key, kind="stable")
    return offsets, members


def _build_arrays(
    points, config: KdTreeConfig | None, rng: np.random.Generator | None, place: bool
):
    """The pipeline: sample -> construct -> renumber -> place."""
    from repro.kdtree.build import BuildTrace

    config = config or KdTreeConfig()
    rng = rng or np.random.default_rng(0)
    xyz = _as_xyz(points)
    n = xyz.shape[0]
    if n == 0:
        raise ValueError("cannot build a k-d tree over zero points")

    trace = BuildTrace()
    sample_n = int(config.effective_sample_size(n))
    trace.sample_size = sample_n
    sample_idx = rng.choice(n, size=sample_n, replace=False) if sample_n < n else np.arange(n)
    sample = xyz[sample_idx]

    target_depth = config.target_depth(n)
    levels = _construct_levels(sample, config, target_depth)
    arrays = _number_preorder(levels)
    trace.sort_sizes = [int(s) for s in arrays.sort_sizes]

    if place:
        offsets, members = _place(arrays, xyz)
        trace.placement_traversals += n
    else:
        offsets = np.zeros(arrays.n_buckets + 1, dtype=np.int64)
        members = np.empty(0, dtype=np.int64)
    return xyz, arrays, offsets, members, trace


def build_flat(
    points,
    config: KdTreeConfig | None = None,
    *,
    rng: np.random.Generator | None = None,
    place: bool = True,
) -> tuple[FlatKdTree, "BuildTrace"]:
    """Build a :class:`FlatKdTree` directly — no ``KdNode`` objects.

    The fastest way from a frame to a queryable engine structure;
    output arrays equal ``FlatKdTree.from_tree(build_tree(...))`` for
    the same inputs.  With ``place=False`` the buckets are empty.
    The default :func:`~repro.kdtree.build.build_tree` is this build
    plus :meth:`KdTree.from_flat <repro.kdtree.node.KdTree.from_flat>`.
    """
    from repro.kdtree.build import record_build_metrics
    from repro.obs import get_registry

    with get_registry().timer("build.vectorized"):
        xyz, arrays, offsets, members, trace = _build_arrays(points, config, rng, place)
        flat = FlatKdTree.from_arrays(
            points=xyz,
            dim=arrays.dim,
            threshold=arrays.threshold,
            left=arrays.left,
            right=arrays.right,
            is_leaf=arrays.is_leaf,
            bucket_id=arrays.bucket_id,
            bucket_offsets=offsets,
            bucket_members=members,
        )
    record_build_metrics(trace, n_points=xyz.shape[0], builder="vectorized")
    return flat, trace

