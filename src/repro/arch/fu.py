"""Functional Units: the distance-compare datapath of Figure 4.

A Functional Unit (FU) holds one query point and a running sorted list
of the k best candidates seen so far, in the repo's one neighbour order
(:class:`~repro.kdtree.ranking.RunningTopK`: ascending distance, ties
by ascending index).  Reference points are broadcast
to all FUs one per cycle; each FU computes the squared distance and
conditionally inserts into its list.  The same FU design is shared by
the linear architecture (scanning whole frames) and QuickNN's TSearch
(scanning single buckets).

:class:`FunctionalUnit` is the bit-true functional model (used in tests
to prove the datapath matches numpy); :func:`fu_batch_cycles` is the
cycle model: a batch of up to ``n_fus`` queries scans ``n_candidates``
points in ``n_candidates`` cycles plus a fixed pipeline fill/drain.
"""

from __future__ import annotations

import numpy as np

from repro.kdtree.ranking import RunningTopK

#: Pipeline depth of the FU datapath: subtract, square, accumulate,
#: compare/insert stages.
FU_PIPELINE_DEPTH = 8


class FunctionalUnit:
    """Running top-k list for one query point."""

    def __init__(self, query: np.ndarray, k: int):
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (3,):
            raise ValueError("query must have shape (3,)")
        if k < 1:
            raise ValueError("k must be positive")
        self.query = query
        self.k = k
        self._best = RunningTopK(k)

    def process(self, index: int, point: np.ndarray) -> None:
        """Consume one broadcast reference point."""
        diff = np.asarray(point, dtype=np.float64) - self.query
        self._best.push([index], [float(np.sqrt((diff * diff).sum()))])

    def process_batch(self, indices: np.ndarray, points: np.ndarray) -> None:
        for i, p in zip(indices, points):
            self.process(int(i), p)

    def results(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, distances), padded with -1/inf to length k."""
        return self._best.rows()


def fu_batch_cycles(n_queries: int, n_candidates: int, n_fus: int) -> int:
    """Cycles for an FU array to scan ``n_candidates`` broadcast points.

    Queries beyond ``n_fus`` require additional passes over the
    candidate stream, exactly like the linear architecture's outer loop.
    """
    if n_fus < 1:
        raise ValueError("n_fus must be positive")
    if n_queries < 0 or n_candidates < 0:
        raise ValueError("counts must be non-negative")
    if n_queries == 0 or n_candidates == 0:
        return 0
    passes = -(-n_queries // n_fus)
    return passes * (n_candidates + FU_PIPELINE_DEPTH)
