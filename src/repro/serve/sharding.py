"""Point sharding and cross-shard top-k merging.

A shard plan partitions the reference cloud's point ids into disjoint
subsets; each shard builds its own k-d tree over its subset and every
query fans out to all shards.  Every kNN path ranks in the one
neighbour order of :mod:`repro.kdtree.ranking` — ascending distance,
ties by ascending point id, padding last — on exact float64 distances
computed by the same kernel whichever shard holds a point.  A shard's
local ids ascend with its global ids (both strategies keep their id
arrays sorted), so each shard's top-k is the global order restricted
to its points, and :func:`merge_topk` of the shard lists is the
single-index exact answer bit for bit, indices and distances, for any
shard count — duplicate coordinates included.

Two strategies:

* ``round-robin`` — point ``i`` goes to shard ``i % S``.  Perfectly
  balanced, and each shard sees a spatially representative thinned
  cloud (the QuickNN paper's parallel traversal units share one tree;
  this is the share-nothing software analogue).
* ``spatial`` — recursive median cuts along the widest extent, the
  FractalCloud-style partitioning: shards are compact cells, so a
  shard's k-th distance is a tight bound and its top-k list rarely
  contributes more than the cell boundary region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kdtree.engine import FlatKdTree, knn_budgeted
from repro.kdtree.ranking import merge_topk
from repro.kdtree.snapshot import Snapshot
from repro.registry import Registry

#: Partitioning strategies for :func:`make_plan` (what
#: ``ServeConfig.sharding`` validates).  Each entry is called as
#: ``strategy(xyz, n_shards)`` and returns the per-shard id tuple.
STRATEGIES: Registry = Registry("sharding strategy")

__all__ = [
    "STRATEGIES",
    "ShardPlan",
    "ShardState",
    "make_plan",
    "merge_radius",
    "merge_topk",
]


@dataclass(frozen=True)
class ShardState:
    """One shard's immutable snapshot: its tree and the id translation.

    This is the unit both execution backends serve from — thread
    workers hold it directly, process workers reassemble it from a
    shared-memory segment (:meth:`from_snapshot` over zero-copy views).
    :meth:`search` is the single compute path, so the two backends are
    bit-identical by construction.
    """

    tree: FlatKdTree
    global_ids: np.ndarray

    def search(
        self, q: np.ndarray, k: int, budget: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Local top-k for a query block, translated to global ids,
        under the serving ladder's engine ``budget``
        (:func:`~repro.kdtree.engine.knn_budgeted`)."""
        return knn_budgeted(self.tree, q, k, budget, self.global_ids)

    def search_radius(
        self, q: np.ndarray, radius: float, k: int | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Local radius rows as a CSR triplet with *global* ids.

        Returns ``(indices, distances, offsets)`` in canonical row
        order, each row capped at its nearest ``k``.  The per-shard cap
        is lossless under the global merge: shard-local ids ascend with
        global ids (both split strategies keep their id arrays sorted),
        so a shard's top-``k``-by-(distance, id) is a superset of the
        global answer's members living on this shard.  Radius requests
        never degrade, so there is no budget parameter.
        """
        from repro.query.radius import radius_batched

        result = radius_batched(self.tree, q, radius, max_neighbors=k)
        return (
            self.global_ids[result.indices],
            result.distances,
            result.offsets,
        )

    def snapshot(self) -> Snapshot:
        """Portable form (disk file or shared-memory payload)."""
        return Snapshot.from_flat(
            self.tree.flat(), extra={"global_ids": self.global_ids}
        )

    @classmethod
    def from_snapshot(cls, snap: Snapshot) -> "ShardState":
        if "global_ids" not in snap.extras:
            raise ValueError("snapshot carries no global_ids side array")
        return cls(
            tree=snap.to_flat(),
            global_ids=np.asarray(snap.extras["global_ids"], dtype=np.int64),
        )


@dataclass(frozen=True)
class ShardPlan:
    """Disjoint global point-id sets, one per shard."""

    strategy: str
    global_ids: tuple[np.ndarray, ...]

    @property
    def n_shards(self) -> int:
        return len(self.global_ids)

    @property
    def n_points(self) -> int:
        return sum(ids.size for ids in self.global_ids)

    def describe(self) -> dict:
        sizes = [int(ids.size) for ids in self.global_ids]
        return {
            "strategy": self.strategy,
            "n_shards": self.n_shards,
            "n_points": self.n_points,
            "min_shard_points": min(sizes),
            "max_shard_points": max(sizes),
        }


def make_plan(xyz: np.ndarray, n_shards: int, strategy: str) -> ShardPlan:
    """Partition ``(N, 3)`` points into ``n_shards`` disjoint id sets."""
    n = xyz.shape[0]
    if n_shards < 1:
        raise ValueError("n_shards must be positive")
    if n < n_shards:
        raise ValueError(f"cannot split {n} points into {n_shards} shards")
    split = STRATEGIES.resolve(strategy)
    return ShardPlan(strategy=strategy, global_ids=split(xyz, n_shards))


@STRATEGIES.register("round-robin")
def _round_robin_split(xyz: np.ndarray, n_shards: int) -> tuple[np.ndarray, ...]:
    """Point ``i`` goes to shard ``i % S`` — balanced by construction."""
    n = xyz.shape[0]
    return tuple(np.arange(s, n, n_shards, dtype=np.int64) for s in range(n_shards))


@STRATEGIES.register("spatial")
def _spatial_split(xyz: np.ndarray, n_shards: int) -> tuple[np.ndarray, ...]:
    """Recursive median cuts: split the largest cell at its widest axis."""
    cells: list[np.ndarray] = [np.arange(xyz.shape[0], dtype=np.int64)]
    while len(cells) < n_shards:
        largest = max(range(len(cells)), key=lambda c: cells[c].size)
        ids = cells.pop(largest)
        coords = xyz[ids]
        axis = int(np.argmax(coords.max(axis=0) - coords.min(axis=0)))
        order = np.argsort(coords[:, axis], kind="stable")
        half = ids.size // 2
        cells.append(np.sort(ids[order[:half]]))
        cells.append(np.sort(ids[order[half:]]))
    return tuple(cells)


def merge_radius(
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    n_rows: int,
    k: int | None,
):
    """Merge per-shard radius CSR triplets into one global result.

    Each part is a ``(indices, distances, offsets)`` triplet over the
    same ``n_rows`` queries with global ids.  Shards partition the
    points, so the merge is pure concatenation funneled through the
    one canonical CSR sort (ascending distance, ties by ascending id)
    with the ``k`` cap applied *after* — per-shard caps are supersets
    (see :meth:`ShardState.search_radius`), so the merged rows are
    bit-identical to an unsharded :func:`repro.query.radius.
    radius_batched` for any shard count.
    """
    from repro.query.result import build_ragged

    qids, idxs, dsts = [], [], []
    for indices, distances, offsets in parts:
        counts = np.diff(np.asarray(offsets, dtype=np.int64))
        qids.append(np.repeat(np.arange(n_rows, dtype=np.int64), counts))
        idxs.append(np.asarray(indices, dtype=np.int64))
        dsts.append(np.asarray(distances, dtype=np.float64))
    qid = np.concatenate(qids) if qids else np.empty(0, dtype=np.int64)
    idx = np.concatenate(idxs) if idxs else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.float64)
    return build_ragged(qid, idx, dst, n_rows, max_neighbors=k)
