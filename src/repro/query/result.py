"""Ragged (CSR) result container shared by every radius-query path.

A radius query has no fixed ``k``: each query row returns however many
reference points fall inside its ball.  :class:`RaggedResult` stores
the batch answer in CSR form — one flat ``indices`` / ``distances``
pair plus an ``offsets`` array of row boundaries — the same layout the
engine's bucket membership uses, so rows are zero-copy slices and the
whole batch serializes as three dense arrays.

Row order is canonical everywhere: ascending distance, ties broken by
ascending reference index.  Every producer in the repo (the batched
kernel, the reference loop, brute force, the blocked router, the
sharded serve merge) builds its rows with :func:`build_ragged`, which
ranks them in the one neighbour order of :mod:`repro.kdtree.ranking`;
that makes the bit-identity guarantees testable with
``assert_array_equal``.

Dtype stability is part of the contract: ``indices`` and ``offsets``
are always ``int64`` and ``distances`` ``float64``, including through
the :meth:`as_dict` / :meth:`from_dict` round trip — ``np.asarray``
over a Python list would otherwise pick the platform default int and
silently narrow offsets on 32-bit-int platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kdtree.ranking import rank_pairs


@dataclass(frozen=True)
class RaggedResult:
    """Radius-search neighbors for a batch of queries, in CSR form.

    Row ``i`` is ``indices[offsets[i]:offsets[i+1]]`` (reference point
    ids) with matching Euclidean ``distances``, sorted by ascending
    distance then ascending index.  Construction coerces the arrays to
    the contract dtypes (int64 / float64 / int64) and validates the
    CSR structure.
    """

    indices: np.ndarray
    distances: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        distances = np.asarray(self.distances, dtype=np.float64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if indices.ndim != 1 or distances.ndim != 1 or offsets.ndim != 1:
            raise ValueError("RaggedResult arrays must be 1-D")
        if indices.shape != distances.shape:
            raise ValueError("indices and distances must have the same length")
        if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != indices.size:
            raise ValueError(
                "offsets must run from 0 to len(indices) inclusive"
            )
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "distances", distances)
        object.__setattr__(self, "offsets", offsets)

    @property
    def n_queries(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def n_pairs(self) -> int:
        """Total (query, neighbor) pairs across all rows."""
        return self.indices.shape[0]

    def counts(self) -> np.ndarray:
        """Neighbors found per query, shape ``(n_queries,)``."""
        return np.diff(self.offsets)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, distances)`` views of one query's neighbors."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.indices[lo:hi], self.distances[lo:hi]

    # -- serialization --------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-ready view (the repo-wide stats convention)."""
        return {
            "indices": self.indices.tolist(),
            "distances": self.distances.tolist(),
            "offsets": self.offsets.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RaggedResult":
        """Inverse of :meth:`as_dict`; restores the contract dtypes."""
        return cls(
            indices=np.asarray(payload["indices"], dtype=np.int64),
            distances=np.asarray(payload["distances"], dtype=np.float64),
            offsets=np.asarray(payload["offsets"], dtype=np.int64),
        )


#: Pair count above which a capped build pre-reduces heavy rows before
#: the canonical sort.  Below this one sort of every pair is cheap.
_PRECAP_PAIRS = 1_000_000


def _precap_rows(
    qid: np.ndarray,
    indices: np.ndarray,
    distances: np.ndarray,
    n_queries: int,
    max_neighbors: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shrink over-full rows to their cap-candidates before sorting.

    Sorting millions of pairs only to discard all but ``max_neighbors``
    per row is the dominant cost of a capped dense-radius build.  One
    stable sort groups pairs by row; each over-full row is cut at its
    ``max_neighbors``-th smallest distance (``np.partition``), keeping
    every pair at or below that threshold.  Boundary ties survive the
    cut — the canonical rank cap downstream resolves them by ascending
    index exactly as before — so the final result is unchanged, only
    computed on far fewer pairs.
    """
    counts = np.bincount(qid, minlength=n_queries).astype(np.int64)
    if int(counts.max(initial=0)) <= max_neighbors:
        return qid, indices, distances
    grouped = np.argsort(qid, kind="stable")
    qid = qid[grouped]
    indices = indices[grouped]
    distances = distances[grouped]
    starts = np.cumsum(counts) - counts
    keep = np.ones(qid.size, dtype=bool)
    for row in np.flatnonzero(counts > max_neighbors):
        lo = int(starts[row])
        hi = lo + int(counts[row])
        seg = distances[lo:hi]
        kth = np.partition(seg, max_neighbors - 1)[max_neighbors - 1]
        keep[lo:hi] = seg <= kth
    return qid[keep], indices[keep], distances[keep]


def build_ragged(
    qid: np.ndarray,
    indices: np.ndarray,
    distances: np.ndarray,
    n_queries: int,
    *,
    max_neighbors: int | None = None,
) -> RaggedResult:
    """Assemble a canonical :class:`RaggedResult` from loose pairs.

    ``qid`` / ``indices`` / ``distances`` are parallel arrays of
    (query row, reference id, distance) triples in any order.  The
    pairs are put in canonical order — grouped by query, each row
    ascending by (distance, index) — by
    :func:`~repro.kdtree.ranking.rank_pairs`, and the optional
    ``max_neighbors`` cap keeps each row's first ``max_neighbors``
    entries, i.e. its nearest ones.  On large capped batches a pre-cap
    pass first trims each over-full row to its nearest candidates so
    the canonical sort never sees the pairs the cap would discard.
    """
    if max_neighbors is not None and max_neighbors < 1:
        raise ValueError("max_neighbors must be positive")
    qid = np.asarray(qid, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
    if max_neighbors is not None and qid.size > _PRECAP_PAIRS:
        qid, indices, distances = _precap_rows(
            qid, indices, distances, n_queries, max_neighbors
        )
    order, counts = rank_pairs(
        qid, indices, distances, n_queries, max_neighbors
    )
    offsets = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return RaggedResult(
        indices=indices[order], distances=distances[order], offsets=offsets
    )
