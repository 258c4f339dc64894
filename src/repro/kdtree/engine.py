"""Batched, vectorized kNN query engine over a flat k-d tree layout.

The per-query searches in :mod:`repro.kdtree.search` are faithful to
the paper's algorithm but pay a Python-interpreter toll for every
query — the software analogue of the pointer-chasing memory behavior
QuickNN removes in hardware (Section 4).  This module restructures the
computation the same way the accelerator does:

* :class:`FlatKdTree` is a structure-of-arrays snapshot of a
  :class:`~repro.kdtree.node.KdTree`: split dimensions, thresholds and
  child indices as contiguous NumPy arrays plus the buckets in CSR form
  (offsets + one concatenated member array) — the software mirror of
  the hardware's word-addressable tree cache and bucket block store.
* :func:`knn_approx_batched` advances *all* queries level-by-level
  through per-level threshold tables, then scores every (query, home
  bucket) pair of the batch at once: a bucket many queries reached is
  answered by one vectorized matmul + top-k kernel, and the queries of
  sparsely hit buckets share one gathered pass.  No per-query Python
  loop runs on the hot path, and a small batch runs no per-bucket loop.
* :func:`knn_exact_batched` starts from that single-bucket answer,
  certifies the majority of queries exact through the leaf radius test
  (k-th distance strictly below the smallest splitting-plane margin
  crossed on the way down), and resolves the rest in one *batched*
  backtracking pass.  It shares both of its stages with radius search:
  a vectorized frontier walk collects every (query, bucket) pair the
  branch-and-bound search could visit, and one bounded bucket scan
  yields, chunk by chunk, every visited member within the query's
  bound (here its running k-th distance, for radius search ``r``).
  Each chunk is ranked into the running top-k; radius search keeps
  them all.

Every row is ranked in the one neighbour order of
:mod:`repro.kdtree.ranking`: ascending distance, equal distances by
ascending point id, padding last.  The per-query loops, the shard and
block merges and a brute-force ``lexsort((id, distance))`` rank the
same way, so answers agree index for index, duplicate coordinates
included.  Exactness needs the ties too: the exact search forks into
every slab that lies within (not only strictly inside) the k-th
distance, where a smaller id at exactly that distance can wait.

Candidate *selection* inside a bucket uses the classic
``|q|^2 - 2 q.c + |c|^2`` BLAS expansion in float64, evaluated in the
frame of the bucket being scanned: :attr:`FlatKdTree.store` keeps every
bucket's points relative to that bucket's own centre, and the queries
are shifted into the same frame.  The expansion's cancellation error
grows with the magnitude of the coordinates it sees, so in the
bucket's frame it scales with the bucket's extent (centimetres to
metres for a lidar leaf), not with the cloud's extent or its distance
from the origin.  The home pass keeps ``t = k + SELECT_PAD``
candidates per row.  The cut ranks in place on packed int64 keys: a
non-negative score viewed as int64 keeps its order (a negative one,
from cancellation, ranks first and counts as 0), and its low ``b``
bits are replaced by the column, so one ``partition`` of the score
matrix gives the cut and the columns together (rows too wide for the
column field take ``argpartition``).  The ``(t+1)``-th score certifies
the cut: only rows where it lies within the rounding margin of the
``t``-th score, or within the ``2**b`` ulps the packing truncated
(exact duplicates, or a bucket stretched by a far outlier), are
re-selected on exact float64 distances.  The bounded scan cuts nothing: it keeps every member whose
score lies within the squared bound plus the margin.  The final top-k,
radius search's inclusion test and the reported distances are always
decided on float64 distances recomputed from the raw coordinates with
the per-query paths' ``sqrt(((q - c)^2).sum())`` kernel (summed column
by column, with the same bits), and ranked in the one neighbour order,
so results are element-for-element identical to the loop
implementations (which remain available — and tested
against — as ``knn_approx_loop`` / ``knn_exact(engine=False)``).
"""

from __future__ import annotations

import numpy as np

from repro.kdtree.node import NO_NODE, KdTree
from repro.kdtree.ranking import PAD_INDEX, rank, rank_pairs, top_k
from repro.kdtree.search import QueryResult, _as_query_array
from repro.obs import get_registry


class FlatKdTree:
    """Structure-of-arrays layout of a bucketed k-d tree.

    Node arrays are indexed by node id (``nodes[i].index == i`` in the
    source tree); bucket membership is stored in CSR form
    (``bucket_offsets`` / ``bucket_members``).  ``points`` keeps the raw
    coordinates the exact re-derivation kernel uses; :attr:`store` is
    the bucket-ordered, bucket-local copy the selection stage scans.
    It is derived lazily on first query and never serialized —
    construction (``from_tree`` / ``from_arrays``) is purely
    structural, so the build pipeline never pays for query-stage
    artifacts it may not use.
    """

    ROOT = 0

    #: Extra candidates kept per row by the selection stage.  The final
    #: top-k is decided on exact float64 distances, so the pad only has
    #: to absorb rounding at the selection boundary; rows whose
    #: boundary the rounding margin cannot certify are re-selected
    #: exactly (see ``_certified_top``).
    SELECT_PAD = 4

    def __init__(
        self,
        *,
        points: np.ndarray,
        dim: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        is_leaf: np.ndarray,
        bucket_id: np.ndarray,
        bucket_offsets: np.ndarray,
        bucket_members: np.ndarray,
    ):
        self.points = points
        self.dim = dim
        self.threshold = threshold
        self.left = left
        self.right = right
        self.is_leaf = is_leaf
        self.bucket_id = bucket_id
        self.bucket_offsets = bucket_offsets
        self.bucket_members = bucket_members
        self._store: BucketStore | None = None
        self._levels: "_LevelPlan | None | bool" = False  # False = not built yet

    @property
    def store(self) -> "BucketStore":
        """The bucket-local point store the kernels scan (built on first use)."""
        if self._store is None:
            self._store = BucketStore.from_flat(self)
        return self._store

    @classmethod
    def from_arrays(
        cls,
        *,
        points: np.ndarray,
        dim: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        is_leaf: np.ndarray,
        bucket_id: np.ndarray,
        bucket_offsets: np.ndarray,
        bucket_members: np.ndarray,
    ) -> "FlatKdTree":
        """Assemble directly from prebuilt structural arrays.

        The entry point of the vectorized builder
        (:func:`repro.kdtree.flat_build.build_flat`), which never
        materializes :class:`~repro.kdtree.node.KdNode` objects.
        """
        return cls(
            points=points,
            dim=dim,
            threshold=threshold,
            left=left,
            right=right,
            is_leaf=is_leaf,
            bucket_id=bucket_id,
            bucket_offsets=bucket_offsets,
            bucket_members=bucket_members,
        )

    @classmethod
    def from_tree(cls, tree: KdTree) -> "FlatKdTree":
        """Build the flat layout once from a node-and-pointer tree."""
        n = len(tree.nodes)
        if n == 0:
            raise ValueError("cannot flatten a tree with no nodes")
        dim = np.zeros(n, dtype=np.int64)
        threshold = np.zeros(n, dtype=np.float64)
        left = np.full(n, NO_NODE, dtype=np.int64)
        right = np.full(n, NO_NODE, dtype=np.int64)
        is_leaf = np.zeros(n, dtype=bool)
        bucket_id = np.full(n, NO_NODE, dtype=np.int64)
        for node in tree.nodes:
            i = node.index
            is_leaf[i] = node.is_leaf
            if node.is_leaf:
                bucket_id[i] = node.bucket_id
            else:
                dim[i] = node.dim
                threshold[i] = node.threshold
                left[i] = node.left
                right[i] = node.right

        n_buckets = len(tree.buckets)
        sizes = np.array([b.size for b in tree.buckets], dtype=np.int64)
        offsets = np.zeros(n_buckets + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        members = (
            np.concatenate(tree.buckets)
            if n_buckets and offsets[-1] > 0
            else np.empty(0, dtype=np.int64)
        )
        return cls(
            points=tree.points,
            dim=dim,
            threshold=threshold,
            left=left,
            right=right,
            is_leaf=is_leaf,
            bucket_id=bucket_id,
            bucket_offsets=offsets,
            bucket_members=members,
        )

    # ------------------------------------------------------------------
    def flat(self) -> "FlatKdTree":
        """Self view, mirroring :meth:`~repro.kdtree.node.KdTree.flat`.

        Lets code that accepts "anything with a ``flat()``" — the
        batched exact search, the serving layer's shard workers — take
        either a :class:`~repro.kdtree.node.KdTree` or a snapshot-loaded
        :class:`FlatKdTree` without converting.
        """
        return self

    @property
    def n_nodes(self) -> int:
        return self.dim.shape[0]

    @property
    def n_buckets(self) -> int:
        return self.bucket_offsets.shape[0] - 1

    def bucket(self, bucket_id: int) -> np.ndarray:
        """Member indices of one bucket (a view into the CSR arrays)."""
        return self.bucket_members[
            self.bucket_offsets[bucket_id] : self.bucket_offsets[bucket_id + 1]
        ]

    def stats(self) -> dict:
        """Layout summary: sizes of the arrays the engine streams over."""
        sizes = np.diff(self.bucket_offsets)
        return {
            "n_points": int(self.points.shape[0]),
            "n_nodes": int(self.n_nodes),
            "n_leaves": int(self.is_leaf.sum()),
            "n_buckets": int(self.n_buckets),
            "max_bucket_size": int(sizes.max()) if sizes.size else 0,
            "mean_bucket_size": float(sizes.mean()) if sizes.size else 0.0,
        }

    # ------------------------------------------------------------------
    def descend(self, queries: np.ndarray) -> np.ndarray:
        """Leaf node id for each query, all queries advanced level-by-level."""
        leaf_ids, _ = self._descend(queries, with_margin=False)
        return leaf_ids

    def descend_with_margin(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Leaf ids plus, per query, the smallest ``|q[dim] - threshold|``
        over the splitting planes crossed on the way down.

        Every reference point *outside* a query's leaf lies across at
        least one of those planes, so the margin lower-bounds the
        distance to any out-of-leaf point — the exactness certificate
        (leaf radius test) :func:`knn_exact_batched` uses to skip
        backtracking.  Runs on the :meth:`level_plan` when the tree has
        one, on the generic per-node walk otherwise.
        """
        plan = self.level_plan()
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if plan is None:
            return self._descend(q, with_margin=True)
        return plan.descend(q, with_margin=True)

    def _descend(
        self, queries: np.ndarray, *, with_margin: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        m = q.shape[0]
        current = np.zeros(m, dtype=np.int64)
        margin = np.full(m, np.inf)
        active = ~self.is_leaf[current]
        while active.any():
            idx = current[active]
            dims = self.dim[idx]
            thresholds = self.threshold[idx]
            coords = q[active, dims]
            if with_margin:
                margin[active] = np.minimum(
                    margin[active], np.abs(coords - thresholds)
                )
            go_left = coords <= thresholds
            current[active] = np.where(go_left, self.left[idx], self.right[idx])
            active = ~self.is_leaf[current]
        return current, margin

    # -- level-synchronous fast descent --------------------------------
    def level_plan(self) -> "_LevelPlan | None":
        """Per-level threshold tables for the slot-arithmetic descent.

        Built (and cached) on first use.  Returns ``None`` when the
        tree does not qualify — split dimensions must be uniform per
        level (true for every tree the cycling-dims builders produce)
        and the virtual complete-tree tables must stay small.
        """
        if self._levels is False:
            self._levels = _LevelPlan.from_flat(self)
        return self._levels

    def descend_fast(self, queries: np.ndarray) -> np.ndarray:
        """Leaf node id per query via per-level threshold tables.

        One threshold gather + compare + slot update per tree level —
        no per-point node-array gathers — which makes whole-frame
        placement and incremental re-bucketing several times faster
        than the generic :meth:`descend`.  Falls back to
        :meth:`descend` for trees without a :meth:`level_plan`.
        """
        plan = self.level_plan()
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if plan is None:
            return self.descend(q)
        return plan.descend(q)[0]


class _LevelPlan:
    """Threshold tables of the virtual complete tree, one per level.

    Slot ``s`` at level ``l`` is the position a node would occupy in a
    complete binary tree; a leaf above the bottom level parks its
    points by always sending them left (``+inf`` threshold), so the
    final slot identifies the leaf via ``leaf_node_of_slot``.
    """

    #: Refuse to build tables beyond this many bottom-level slots.
    MAX_SLOTS = 1 << 22

    __slots__ = ("dims", "tables", "leaf_node_of_slot", "depth")

    def __init__(self, dims, tables, leaf_node_of_slot, depth):
        self.dims = dims
        self.tables = tables
        self.leaf_node_of_slot = leaf_node_of_slot
        self.depth = depth

    @classmethod
    def from_flat(cls, flat: "FlatKdTree") -> "_LevelPlan | None":
        n = flat.dim.shape[0]
        depth_of = np.zeros(n, dtype=np.int64)
        slot_of = np.zeros(n, dtype=np.int64)
        internal = ~flat.is_leaf
        idx = np.flatnonzero(internal)
        # Every builder in the repo numbers children after their parent,
        # which lets one ascending sweep resolve depths and slots.
        left, right = flat.left, flat.right
        if idx.size and (np.any(left[idx] <= idx) or np.any(right[idx] <= idx)):
            return None
        for i in idx:
            d1 = depth_of[i] + 1
            s2 = 2 * slot_of[i]
            depth_of[left[i]] = d1
            depth_of[right[i]] = d1
            slot_of[left[i]] = s2
            slot_of[right[i]] = s2 + 1

        depth = int(depth_of[flat.is_leaf].max()) if flat.is_leaf.any() else 0
        if depth >= 63 or (1 << depth) > cls.MAX_SLOTS:
            return None

        dims: list[int] = []
        tables: list[np.ndarray] = []
        for level in range(depth):
            at = internal & (depth_of == level)
            level_dims = np.unique(flat.dim[at])
            if level_dims.size > 1:
                return None          # mixed dims: generic descent only
            dims.append(int(level_dims[0]) if level_dims.size else 0)
            table = np.full(1 << level, np.inf)
            table[slot_of[at]] = flat.threshold[at]
            tables.append(table)

        leaf_node_of_slot = np.zeros(1 << depth, dtype=np.int64)
        leaves = np.flatnonzero(flat.is_leaf)
        bottom = slot_of[leaves] << (depth - depth_of[leaves])
        leaf_node_of_slot[bottom] = leaves
        return cls(dims, tables, leaf_node_of_slot, depth)

    def descend(
        self, q: np.ndarray, *, with_margin: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Leaf node ids and, if asked, the smallest plane margin crossed.

        A parked leaf's ``+inf`` thresholds give an infinite margin, so
        only the planes a query really crossed bound it, as in
        :meth:`FlatKdTree._descend`.
        """
        cur = np.zeros(q.shape[0], dtype=np.int64)
        margin = np.full(q.shape[0], np.inf) if with_margin else None
        for dim, table in zip(self.dims, self.tables):
            coords = q[:, dim]
            thresholds = table[cur]
            if with_margin:
                np.minimum(margin, np.abs(coords - thresholds), out=margin)
            cur = cur + cur + (coords > thresholds)
        return self.leaf_node_of_slot[cur], margin


#: Rounding margin of a bucket-frame squared distance, in float64 ulps
#: of the scale ``|q_local|^2 + radius_sq`` (see
#: :meth:`BucketStore.sq_distances`).  The errors it covers total a few
#: tens of ulps; an over-wide margin only sends extra rows to the exact
#: re-selection.
_MARGIN_ULPS = 64.0
_EPS = float(np.finfo(np.float64).eps)


class BucketStore:
    """Bucket-ordered, bucket-local copy of a tree's reference points.

    Row ``j`` of every per-point array is member ``j`` of the CSR bucket
    arrays, so bucket ``b`` is the contiguous slice
    ``offsets[b]:offsets[b + 1]`` — the software mirror of the hardware
    streaming one bucket as one block.  ``points`` holds the raw
    coordinates, ``local`` the same points relative to their bucket's
    ``center`` (the midpoint of its bounding box), ``sq`` their squared
    norms, and ``radius_sq`` each bucket's largest squared norm, which
    scales the rounding of any distance evaluated in that frame.
    """

    __slots__ = ("offsets", "points", "center", "local", "sq", "radius_sq")

    def __init__(self, offsets, points, center, local, sq, radius_sq):
        self.offsets = offsets
        self.points = points
        self.center = center
        self.local = local
        self.sq = sq
        self.radius_sq = radius_sq

    @classmethod
    def from_flat(cls, flat: FlatKdTree) -> "BucketStore":
        offsets = flat.bucket_offsets
        sizes = np.diff(offsets)
        points = flat.points[flat.bucket_members]
        center = np.zeros((sizes.size, 3))
        radius_sq = np.zeros(sizes.size)
        # reduceat over the non-empty buckets' starts: an empty bucket
        # owns no rows, so each segment is exactly one bucket.
        full = sizes > 0
        starts = offsets[:-1][full]
        if starts.size:
            lo = np.minimum.reduceat(points, starts, axis=0)
            hi = np.maximum.reduceat(points, starts, axis=0)
            center[full] = 0.5 * (lo + hi)
        local = points - np.repeat(center, sizes, axis=0)
        sq = np.einsum("ij,ij->i", local, local)
        if starts.size:
            radius_sq[full] = np.maximum.reduceat(sq, starts)
        return cls(offsets, points, center, local, sq, radius_sq)

    @property
    def nbytes(self) -> int:
        """Bytes the store allocates (``offsets`` is the tree's own array)."""
        return sum(
            a.nbytes
            for a in (self.points, self.center, self.local, self.sq, self.radius_sq)
        )

    def sq_distances(self, bid: int, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squared distances from each query to bucket ``bid``'s points.

        Evaluated as ``|q|^2 - 2 q.c + |c|^2`` (one BLAS matmul) in the
        bucket's frame.  Returns ``(d2, margin)``: the ``(Q, B)`` matrix
        and, per query, the gap two of its values must exceed for their
        order to hold under rounding — of the expansion, of the shift
        into the frame, and of the exact kernel the answers are reported
        with — all of which scale with ``|q_local|^2 + radius_sq[bid]``.
        """
        lo, hi = self.offsets[bid], self.offsets[bid + 1]
        ql = q - self.center[bid]
        qsq = np.einsum("ij,ij->i", ql, ql)
        d2 = (-2.0 * ql) @ self.local[lo:hi].T
        d2 += self.sq[lo:hi]
        d2 += qsq[:, None]
        return d2, _MARGIN_ULPS * _EPS * (qsq + self.radius_sq[bid])


# ----------------------------------------------------------------------
# Vectorized bucket kernels
# ----------------------------------------------------------------------
def _bucket_runs(bucket_ids: np.ndarray):
    """Group rows by bucket: ``(order, [(bucket, start, stop), ...])``."""
    order = np.argsort(bucket_ids, kind="stable")
    sorted_b = bucket_ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_b[1:] != sorted_b[:-1]])
    stops = np.r_[starts[1:], sorted_b.size]
    return order, zip(sorted_b[starts].tolist(), starts.tolist(), stops.tolist())


#: Widest column field of a packed selection key (see :func:`_cut`):
#: rows up to ``2 ** _ID_BITS`` wide rank on packed keys, wider ones
#: (oversized leaves, merged exact-search rows) on ``argpartition``.
#: A row ``2**b`` wide gives up its scores' low ``b`` bits, so the
#: field caps that truncation at ``2 ** _ID_BITS`` ulps.
_ID_BITS = 10


def _cut(score: np.ndarray, margin: np.ndarray, t: int):
    """Each row's ``t`` smallest scores: ``(columns, scores, risky rows)``.

    Ranks in place on packed keys, so ``score`` is overwritten.  Each
    score is viewed as int64, which orders non-negative floats as the
    floats (and negative ones below them all: they count as 0), and the
    low ``b = (width - 1).bit_length()`` bits of the view are replaced
    by the column.  One ``partition`` of the keys gives the cut and the
    columns together.  Within one truncation step (``2**b`` ulps)
    columns rank by index, and the scores returned are the truncated
    ones decoded from the keys, clamped at 0.  Rows wider than
    ``2 ** _ID_BITS`` take ``argpartition`` on the scores instead.

    A row is certified when its ``(t+1)``-th score exceeds its ``t``-th
    by more than ``margin`` plus the rounding of the scores themselves
    (relative to the ``(t+1)``-th score's magnitude) plus the
    truncation (``2**b`` ulps of the ``(t+1)``-th score): rounding and
    truncation then cannot have ranked a true top-``t`` candidate below
    the cut.  The rows left are *risky*; rows whose ``(t+1)``-th score
    is ``inf`` (padding) are always certified.
    """
    width = score.shape[1]
    if width > 1 << _ID_BITS:
        part = np.argpartition(score, t, axis=1)
        rows = np.arange(score.shape[0])[:, None]
        top = part[:, :t]
        kept = score[rows, top]
        beyond = score[rows[:, 0], part[:, t]]
        slack = margin + _MARGIN_ULPS * _EPS * np.abs(beyond)
    else:
        b = (width - 1).bit_length()
        low = (1 << b) - 1
        keys = score.view(np.int64)
        keys &= ~low
        keys |= np.arange(width)
        keys.partition(t, axis=1)
        top = keys[:, :t] & low
        # Negative scores (cancellation below 0, or -0.0) view as
        # negative ints, below every other key, so the cut takes them
        # first; decoding clamps them to +0.0, which never moves a score
        # away from its true, non-negative value.
        head = keys[:, : t + 1] & ~low
        np.maximum(head, 0, out=head)
        head = head.view(np.float64)
        kept, beyond = head[:, :t], head[:, t]
        slack = margin + _MARGIN_ULPS * _EPS * beyond + (1 << b) * np.spacing(beyond)
    risky = np.flatnonzero(
        (beyond <= kept.max(axis=1) + slack) & np.isfinite(beyond)
    )
    return top, kept, risky


def _exact_distances(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact float64 distances between broadcastable ``(..., 3)`` arrays.

    The loop paths' kernel, ``sqrt(((q - c)^2).sum(axis=-1))``, summed
    column by column as ``(d0*d0 + d1*d1) + d2*d2``: NumPy sums a
    length-3 last axis in that order, so the bits are the same, but the
    reduction ran ~4x slower than two elementwise adds on 4k rows.
    ``tests/kdtree/test_exact_kernel.py`` pins the two together.
    """
    d = q - c
    d *= d
    s = d[..., 0] + d[..., 1]
    s += d[..., 2]
    return np.sqrt(s, out=s)


def _reselect(
    qg: np.ndarray, pts: np.ndarray, ids: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``t`` columns of each row of candidates.

    ``pts`` are the ``(R, C, 3)`` coordinates of the ``(R, C)`` candidate
    ``ids`` (``-1`` padded).  Ranks on the loop paths' own exact
    distances (:func:`_exact_distances`) in the canonical order
    (:func:`~repro.kdtree.ranking.rank`), and returns the columns with
    their distances, both ``(R, t)``.  The fallback for rows
    :func:`_cut` cannot certify.
    """
    dist = np.where(ids != PAD_INDEX, _exact_distances(qg[:, None, :], pts), np.inf)
    order, _, dst = rank(ids, dist)
    return order[:, :t], dst[:, :t]


def _certified_top(
    qg: np.ndarray, d2: np.ndarray, margin: np.ndarray,
    members: np.ndarray, pts: np.ndarray, t: int,
) -> tuple[np.ndarray, int]:
    """Each row's ``t`` best columns of one bucket's scores ``d2``.

    The :func:`_cut` (which overwrites ``d2``) is certified by the
    bucket frame's ``margin``; rows it cannot certify are re-selected
    on exact distances over the bucket's ``members`` (coordinates
    ``pts``).  Returns the columns and the number of rows re-selected.
    """
    top, _, risky = _cut(d2, margin, t)
    if risky.size:
        ids = np.broadcast_to(members, (risky.size, members.size))
        top[risky] = _reselect(qg[risky], pts[None], ids, t)[0]
    return top, int(risky.size)


def _exact_rows(
    qg: np.ndarray, pts: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Re-derive the reported distances of already-selected candidates
    with the loop paths' exact kernel, and rank each row by them.

    ``pts`` are the ``(G, t, 3)`` coordinates of the ``(G, t)``
    candidate ``ids`` (``-1`` padding).  Returns each row's first ``k``
    in the canonical order (:func:`~repro.kdtree.ranking.top_k`),
    ``-1`` / ``inf`` padded — element-for-element what the per-query
    searches produce for the same candidate sets.
    """
    dists = _exact_distances(qg[:, None, :], pts)
    dists[ids == PAD_INDEX] = np.inf
    return top_k(ids, dists, k)


#: Candidate slots one gathered pass (:func:`_passes`) scores.  A
#: pass's arrays hold 8 bytes a slot (its padded rows little more), so
#: each stays under glibc's 128 KB mmap threshold: freeing an mmapped
#: block raises that threshold for good, and every thread's later
#: allocations then stay retained on the heap (fleet-churn's peak RSS
#: rose by ~20 MB that way).  A serving call is one pass or two.
_SCORE_BUDGET = 8192

#: A bucket that at least this many of a call's rows scan is scored
#: with one BLAS matmul of those rows against its members; below it,
#: the bucket's pairs join the call's gathered passes.  A matmul pays
#: ~50 µs of fixed cost and then runs about twice as fast per score as
#: the gather, so it wins from about a dozen rows of a 256-point
#: bucket: whole frames (~230 rows per bucket) take the matmul,
#: serving batches (~1 row per bucket) the gather.
_DENSE_ROWS = 16


def _passes(width: np.ndarray):
    """Cut ``(row, bucket)`` pairs of ``width`` members each into
    gathered passes of at most ``_SCORE_BUDGET`` members: yields each
    pass's pair indices.

    Pairs go in ascending width, so a pass laid out one pair per row
    pads little.  Pairs without members join no pass, and a pair wider
    than the budget is a pass of its own.
    """
    order = np.argsort(width, kind="stable")
    total = np.cumsum(width[order])
    p0 = int(np.searchsorted(width[order], 1))
    while p0 < order.size:
        done = total[p0 - 1] if p0 else 0
        p1 = max(p0 + 1, int(np.searchsorted(total, done + _SCORE_BUDGET, side="right")))
        yield order[p0:p1]
        p0 = p1


def _gather_scores(
    store: BucketStore, q: np.ndarray, rows: np.ndarray,
    buckets: np.ndarray, width: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bucket-frame scores of every member of some ``(row, bucket)`` pairs.

    Returns ``(pos, score, margin)``: the members' store positions and
    squared-distance scores, pair after pair (a bucket's members are
    the store slice ``offsets[b]:offsets[b + 1]``), and each pair's
    frame margin, as :meth:`BucketStore.sq_distances` gives them but
    summed column by column over the gathered members.
    """
    start = np.cumsum(width) - width
    pos = np.arange(int(width.sum())) + np.repeat(store.offsets[buckets] - start, width)
    ql = q[rows] - store.center[buckets]
    qsq = np.einsum("ij,ij->i", ql, ql)
    score = store.local[pos, 0] * np.repeat(ql[:, 0], width)
    score += store.local[pos, 1] * np.repeat(ql[:, 1], width)
    score += store.local[pos, 2] * np.repeat(ql[:, 2], width)
    score *= -2.0
    score += store.sq.take(pos)
    score += np.repeat(qsq, width)
    return pos, score, _MARGIN_ULPS * _EPS * (qsq + store.radius_sq[buckets])


def _home_topk(
    flat: FlatKdTree, q: np.ndarray, leaf_ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of each query within its home leaf's bucket.

    All rows are scored at once, each in its bucket's frame from the
    :class:`BucketStore`: a bucket that ``_DENSE_ROWS`` or more rows
    share by one BLAS matmul (:meth:`BucketStore.sq_distances`), the
    other rows in gathered passes.  Each row takes one certified cut to
    ``t = k + SELECT_PAD`` (:func:`_cut`), rows the margin cannot
    certify are re-selected on exact distances, and reported distances
    come from :func:`_exact_rows`.  Returns ``(indices, distances)`` of
    shape ``(len(q), k)``.
    """
    m = q.shape[0]
    indices = np.full((m, k), PAD_INDEX, dtype=np.int64)
    distances = np.full((m, k), np.inf)
    buckets = flat.bucket_id[leaf_ids]
    obs = get_registry()
    if obs.enabled:
        obs.counter("engine.leaf_groups").inc(int(np.unique(buckets).size))
    if m == 0:
        return indices, distances

    store = flat.store
    offsets = flat.bucket_offsets
    t = k + FlatKdTree.SELECT_PAD
    width = offsets[buckets + 1] - offsets[buckets]
    dense = (np.bincount(buckets)[buckets] >= _DENSE_ROWS) & (width > t)
    reselected = 0
    hot = np.flatnonzero(dense)
    order, runs = _bucket_runs(buckets[hot]) if hot.size else (None, ())
    for bid, a, b in runs:
        rs = hot[order[a:b]]
        b_lo, b_hi = offsets[bid], offsets[bid + 1]
        members = flat.bucket_members[b_lo:b_hi]
        pts = store.points[b_lo:b_hi]
        qg = q[rs]
        d2, margin = store.sq_distances(bid, qg)
        top, n = _certified_top(qg, d2, margin, members, pts, t)
        reselected += n
        indices[rs], distances[rs] = _exact_rows(qg, pts[top], members[top], k)

    sparse = np.flatnonzero(~dense)
    for chunk in _passes(width[sparse]):
        # One pair per row: lay each row's members out in one padded row.
        rs = sparse[chunk]
        cnt = width[rs]
        pos, score, margin = _gather_scores(store, q, rs, buckets[rs], cnt)
        nr, w = rs.size, int(cnt.max())
        cell = np.arange(pos.size) + np.repeat(np.arange(nr) * w - (np.cumsum(cnt) - cnt), cnt)
        padded = np.full((nr, w), np.inf)
        np.put(padded, cell, score)
        where = np.zeros((nr, w), dtype=np.int64)
        np.put(where, cell, pos)
        qc = q[rs]
        if w > t:
            top, kept, risky = _cut(padded, margin, t)
            if risky.size:
                reselected += risky.size
                # The cut ranked ``padded`` in place; a row's candidates
                # are the first ``cnt`` cells of ``where``.
                ok = np.arange(w) < cnt[risky, None]
                ids = np.where(ok, flat.bucket_members.take(where[risky]), PAD_INDEX)
                pts = store.points.take(where[risky], axis=0)
                top[risky], kept[risky] = _reselect(qc[risky], pts, ids, t)
            at = np.take_along_axis(where, top, axis=1)
        else:
            kept, at = padded, where
        ids = flat.bucket_members.take(at)
        ids[np.isinf(kept)] = PAD_INDEX
        indices[rs], distances[rs] = _exact_rows(qc, store.points.take(at, axis=0), ids, k)
    if reselected:
        obs.counter("engine.select.reselected").inc(reselected)
    return indices, distances


def _joined(chunks):
    """One ``(rows, ids, distances)`` chunk from several."""
    return tuple(np.concatenate(part) for part in zip(*chunks))


def _bounded_scan(
    flat: FlatKdTree,
    q: np.ndarray,
    rows: np.ndarray,
    buckets: np.ndarray,
    bound: np.ndarray,
):
    """Every member of each ``(row, bucket)`` pair within its row's bound.

    Row ``rows[i]`` of ``q`` scans bucket ``buckets[i]``, and
    ``bound[row]`` is the distance a member must lie within (inclusive):
    the running k-th distance for the exact kNN search's backtracking,
    the radius for radius search.  Yields, chunk by chunk, ``(rows,
    ids, distances)`` of the members within, their distances exact (the
    per-query paths' kernel, :func:`_exact_distances`), in no order.
    The prefilter squares ``bound`` once, at the first chunk; the
    inclusion test reads it as each chunk is scored, so a caller may
    tighten it between chunks.

    A bucket that ``_DENSE_ROWS`` or more of the pairs scan is scored
    by one BLAS matmul (:meth:`BucketStore.sq_distances`), and such
    buckets' members are yielded in chunks of about ``_SCORE_BUDGET``;
    the other pairs are scored in gathered passes of at most
    ``_SCORE_BUDGET`` members (:func:`_passes`), one chunk each.  Both
    score in the bucket's frame and keep a member when its score lies
    within the squared bound plus the frame's rounding margin, so
    rounding can only let extra members through; those are dropped by
    the inclusion test on their exact distances.  Nothing is ranked or
    cut, so nothing is ever re-selected.
    """
    store = flat.store
    offsets = flat.bucket_offsets
    width = offsets[buckets + 1] - offsets[buckets]
    bound2 = bound * bound
    bound2 += _MARGIN_ULPS * _EPS * bound2

    def within(rs, pos):
        dist = _exact_distances(q[rs], store.points[pos])
        inside = np.flatnonzero(dist <= bound[rs])
        return rs[inside], flat.bucket_members[pos[inside]], dist[inside]

    dense = (np.bincount(buckets)[buckets] >= _DENSE_ROWS) & (width > 0)
    hot = np.flatnonzero(dense)
    order, runs = _bucket_runs(buckets[hot]) if hot.size else (None, ())
    held, n_held = [], 0
    for bid, a, b in runs:
        rs = rows[hot[order[a:b]]]
        d2, margin = store.sq_distances(bid, q[rs])
        r, col = np.nonzero(d2 <= (bound2[rs] + margin)[:, None])
        held.append(within(rs[r], offsets[bid] + col))
        n_held += r.size
        if n_held >= _SCORE_BUDGET:
            yield _joined(held)
            held, n_held = [], 0
    if held:
        yield _joined(held)

    sparse = np.flatnonzero(~dense)
    for chunk in _passes(width[sparse]):
        pairs = sparse[chunk]
        rs, pw = rows[pairs], width[pairs]
        pos, score, margin = _gather_scores(store, q, rs, buckets[pairs], pw)
        keep = np.flatnonzero(score <= np.repeat(bound2[rs] + margin, pw))
        yield within(np.repeat(rs, pw)[keep], pos[keep])


def knn_approx_batched(flat: FlatKdTree, queries: np.ndarray, k: int):
    """Single-bucket approximate kNN for a whole query batch at once."""
    if k < 1:
        raise ValueError("k must be positive")
    obs = get_registry()
    q = _as_query_array(queries)
    with obs.timer("engine.approx"):
        indices, distances = _home_topk(flat, q, flat.descend_fast(q), k)
    if obs.enabled:
        obs.counter("engine.approx.calls").inc()
        obs.counter("engine.approx.queries").inc(q.shape[0])
    return QueryResult(indices=indices, distances=distances)


# ----------------------------------------------------------------------
# Batched exact search
# ----------------------------------------------------------------------
def _frontier_walk(
    flat: FlatKdTree, q: np.ndarray, rows: np.ndarray, bound: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized branch-and-bound walk: every leaf a row's ball reaches.

    All ``rows`` of ``q`` walk down from the root together, always into
    the near child and also into the far child whenever the splitting
    plane lies within the row's ``bound[row]`` (inclusive, as in the
    per-query searches: a point at exactly the bound can still count).
    Returns the ``(row, leaf node)`` pairs reached, in arrival order:
    leaves reached at a shallower level come first.  The exact kNN
    search walks with each row's home k-th distance and drops the home
    leaf; radius search walks with ``r`` and scans every leaf.
    """
    frontier_q = rows.copy()
    frontier_n = np.zeros(rows.size, dtype=np.int64)
    visit_q: list[np.ndarray] = []
    visit_n: list[np.ndarray] = []
    while frontier_q.size:
        at_leaf = flat.is_leaf[frontier_n]
        if at_leaf.any():
            visit_q.append(frontier_q[at_leaf])
            visit_n.append(frontier_n[at_leaf])
            frontier_q = frontier_q[~at_leaf]
            frontier_n = frontier_n[~at_leaf]
            if frontier_q.size == 0:
                break
        dims = flat.dim[frontier_n]
        delta = q[frontier_q, dims] - flat.threshold[frontier_n]
        go_left = delta <= 0
        near = np.where(go_left, flat.left[frontier_n], flat.right[frontier_n])
        far = np.where(go_left, flat.right[frontier_n], flat.left[frontier_n])
        fork = np.abs(delta) <= bound[frontier_q]
        frontier_n = np.concatenate([near, far[fork]])
        frontier_q = np.concatenate([frontier_q, frontier_q[fork]])
    if not visit_q:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(visit_q), np.concatenate(visit_n)


def knn_exact_batched(
    tree: "KdTree | FlatKdTree",
    queries: np.ndarray,
    k: int,
    *,
    max_visits: int | None = None,
):
    """Exact kNN: batched single-bucket pass, leaf radius test, then
    batched backtracking for the minority of queries that need it.

    The stages: descend all queries (with plane margins) on the level
    plan; answer each from its home bucket; settle those whose k-th
    distance is strictly inside every plane they crossed; collect the
    unsettled queries' (query, bucket) visits in one frontier walk;
    scan all visits in one bounded bucket scan (a bucket many queries
    visit by one matmul, the rest gathered), which yields, chunk by
    chunk, the visited members that can beat or tie a query's running
    k-th distance, with exact distances; rank each chunk into the
    running answer in the canonical order (ties by ascending id).  The
    number of NumPy calls of a small batch does not grow with the
    buckets it visits.

    ``tree`` may be a :class:`~repro.kdtree.node.KdTree` or a
    :class:`FlatKdTree` (e.g. loaded from a snapshot) — the search only
    touches the flat layout.  ``max_visits`` bounds how many *extra*
    buckets (beyond the home leaf) backtracking may scan per query, in
    the order the branch-and-bound walk reaches them: ``None`` is the
    unbounded exact search, ``0`` degenerates to the single-bucket
    approximate answer, and intermediate budgets trade accuracy for
    bounded work — the ladder :mod:`repro.serve` degrades along under
    load.  With a finite budget the result is no longer guaranteed
    exact.

    Returns ``(result, visits)`` where ``visits`` counts buckets
    scanned per query (1 for every query the radius test settles).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if max_visits is not None and max_visits < 0:
        raise ValueError("max_visits must be non-negative")
    obs = get_registry()
    q = _as_query_array(queries)
    with obs.timer("engine.exact"):
        indices, distances, visits = _exact_batched_impl(
            tree, q, k, obs, max_visits=max_visits
        )
    if obs.enabled:
        obs.counter("engine.exact.calls").inc()
        obs.counter("engine.exact.queries").inc(q.shape[0])
    return QueryResult(indices=indices, distances=distances), visits


def knn_budgeted(
    tree: "KdTree | FlatKdTree",
    q: np.ndarray,
    k: int,
    budget: int | None,
    global_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of a query block under a serving budget, in global ids.

    ``budget`` is the serving ladder's engine budget: ``None`` runs the
    unbounded exact search, ``0`` the single-bucket approximate answer
    (:func:`knn_approx_batched`), anything else a ``max_visits``-bounded
    exact search.  The tree's local ids are translated through
    ``global_ids``; padding stays ``PAD_INDEX``.  Serving shards and
    blocked indexes answer each part of a query through here.
    """
    if budget is None:
        result, _ = knn_exact_batched(tree, q, k)
    elif budget == 0:
        result = knn_approx_batched(tree, q, k)
    else:
        result, _ = knn_exact_batched(tree, q, k, max_visits=budget)
    local = result.indices
    translated = global_ids[local]
    translated[local == PAD_INDEX] = PAD_INDEX
    return translated, result.distances


def _truncate_visits(
    vq: np.ndarray, vb: np.ndarray, max_visits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Keep each query's first ``max_visits`` (query, bucket) pairs.

    Pairs arrive in the order the frontier walk reached the buckets; a
    stable sort by query groups them while preserving that arrival
    order, so the budget keeps the earliest-reached buckets.
    """
    order = np.argsort(vq, kind="stable")
    vq_s, vb_s = vq[order], vb[order]
    starts = np.flatnonzero(np.r_[True, vq_s[1:] != vq_s[:-1]])
    sizes = np.diff(np.r_[starts, vq_s.size])
    rank = np.arange(vq_s.size) - np.repeat(starts, sizes)
    keep = rank < max_visits
    return vq_s[keep], vb_s[keep]


def _exact_batched_impl(
    tree: "KdTree | FlatKdTree", q: np.ndarray, k: int, obs, *, max_visits=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    flat = tree.flat()
    leaf_ids, margins = flat.descend_with_margin(q)
    indices, distances = _home_topk(flat, q, leaf_ids, k)
    visits = np.ones(q.shape[0], dtype=np.int64)

    # Leaf radius test: a query is settled iff it found k neighbors all
    # strictly closer than every splitting plane it crossed — nothing
    # across a plane can then beat or tie its k-th distance (the exact
    # search backtracks across a plane whose margin is within it).
    kth = distances[:, k - 1]
    unsettled = np.flatnonzero(~(kth < margins))
    if obs.enabled:
        obs.counter("engine.exact.unsettled").inc(int(unsettled.size))
    if unsettled.size == 0:
        return indices, distances, visits

    if max_visits == 0:
        return indices, distances, visits

    vq, leaves = _frontier_walk(flat, q, unsettled, kth)
    away = leaves != leaf_ids[vq]
    vq, vb = vq[away], flat.bucket_id[leaves[away]]
    if max_visits is not None and vq.size:
        before = vq.size
        vq, vb = _truncate_visits(vq, vb, max_visits)
        if obs.enabled:
            obs.counter("engine.exact.budget_truncated").inc(int(before - vq.size))
    if obs.enabled:
        obs.counter("engine.exact.bucket_scans").inc(int(vq.size))
        obs.distribution("engine.exact.frontier").observe(int(vq.size))
    if vq.size == 0:
        return indices, distances, visits

    # The visited members within a query's home k-th distance, with its
    # home top-k, hold its true k nearest.  All carry exact distances,
    # so each chunk of them is ranked into the running top-k in the
    # canonical order.  ``kth`` is a view of that top-k, so each merge
    # tightens the bound the later chunks are tested against.  Queries
    # the radius test missed but backtracking never reached keep their
    # home answer.
    visits += np.bincount(vq, minlength=q.shape[0])
    for rows, ids, dist in _bounded_scan(flat, q, vq, vb, kth):
        if rows.size:
            _merge_rows(indices, distances, rows, ids, dist)
    return indices, distances, visits


def _merge_rows(
    indices: np.ndarray, distances: np.ndarray,
    rows: np.ndarray, ids: np.ndarray, dist: np.ndarray,
) -> None:
    """Rank candidates ``(rows, ids, dist)`` into the running top-k rows
    ``indices`` / ``distances``, in place.

    The touched rows' entries and the candidates are ranked as one set
    of loose triples (:func:`~repro.kdtree.ranking.rank_pairs`), each
    touched row capped at its first ``k``.  No row is padded to
    another's width.
    """
    k = indices.shape[1]
    touched = np.unique(rows)
    owner = np.concatenate([
        np.repeat(np.arange(touched.size), k), np.searchsorted(touched, rows)
    ])
    i = np.concatenate([indices[touched].ravel(), ids])
    d = np.concatenate([distances[touched].ravel(), dist])
    order, _ = rank_pairs(owner, i, d, touched.size, k)
    indices[touched] = i[order].reshape(-1, k)
    distances[touched] = d[order].reshape(-1, k)
