"""The one neighbour order every kNN path reports.

A kNN row lists its neighbours by ascending distance, equal distances
by ascending point id, and padding (``-1`` id, ``inf`` distance) last.
Distances come from one exact float64 kernel whichever path computed
them, so with this rule the ids are as deterministic as the distances:
the batched engine, the per-query loops, a sharded or blocked index
and a brute-force ranking by ``lexsort((id, distance))`` all give the
same rows, duplicate coordinates included.

The rule has three forms, like the paper's datapath (Figure 4), where
each functional unit keeps one running sorted top-k list per query as
points stream past:

* :func:`top_k` ranks dense rows of candidates at once: the engine's
  re-derived rows and the cross-shard and cross-block merges
  (:func:`merge_topk`);
* :func:`rank_pairs` ranks loose ``(row, id, distance)`` triples into
  ragged rows, each capped at its first ``cap``: every radius answer
  (:func:`repro.query.result.build_ragged`) and the exact engine's
  backtracking merge;
* :class:`RunningTopK` is the same order as a running list, fed one
  candidate at a time by the per-query loop searches and the FU model.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

#: Index reported where a row holds fewer than ``k`` neighbours.
PAD_INDEX = -1


def _key(ids: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """The canonical sort key: distance as the real part, id as the
    imaginary part.  NumPy orders complex numbers lexicographically, so
    one sort on the key ranks by distance, then id, with no tie repair.
    Ids are exact in the float64 imaginary part below ``2**53``.
    """
    key = np.empty(dists.shape, dtype=np.complex128)
    key.real = dists
    key.imag = ids
    return key


def rank(ids: np.ndarray, dists: np.ndarray):
    """Sort ``(R, C)`` rows of candidates into the canonical order.

    Returns ``(order, indices, distances)``: the per-row permutation
    and the rows it gives, full width, from one sort on the canonical
    key.
    """
    order = np.argsort(_key(ids, dists), axis=1)
    rows = np.arange(dists.shape[0])[:, None]
    return order, ids[rows, order], dists[rows, order]


def rank_pairs(
    rows: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    n_rows: int,
    cap: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Group loose ``(row, id, distance)`` triples into ranked rows.

    Returns ``(order, counts)``: the permutation that lists the triples
    row by row (rows ascending), each row in the canonical order and
    cut to its first ``cap`` (all of it when ``cap`` is ``None``), and
    the ``(n_rows,)`` number of triples kept per row.  One sort on the
    canonical key, then a stable sort on the row, which keeps the key
    order within each row.
    """
    order = np.argsort(_key(ids, dists))
    order = order[np.argsort(rows[order], kind="stable")]
    counts = np.bincount(rows, minlength=n_rows)
    if cap is not None and counts.max(initial=0) > cap:
        starts = np.cumsum(counts) - counts
        slot = np.arange(order.size) - np.repeat(starts, counts)
        order = order[slot < cap]
        counts = np.minimum(counts, cap)
    return order, counts


def top_k(ids: np.ndarray, dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k`` of each row of candidates, in the canonical order.

    ``ids`` and ``dists`` are matching ``(R, C)`` (or ``(C,)``) arrays,
    ``-1`` / ``inf`` where a slot holds no candidate.  Returns
    ``(indices, distances)`` of shape ``(R, k)`` (or ``(k,)``), padded
    when a row holds fewer than ``k``; an ``inf`` distance always
    reports ``PAD_INDEX``.
    """
    one = dists.ndim == 1
    if one:
        ids, dists = ids[None], dists[None]
    _, idx, dst = rank(ids, dists)
    if dst.shape[1] < k:
        pad = k - dst.shape[1]
        idx = np.pad(idx, ((0, 0), (0, pad)), constant_values=PAD_INDEX)
        dst = np.pad(dst, ((0, 0), (0, pad)), constant_values=np.inf)
    idx, dst = idx[:, :k], dst[:, :k]
    idx[np.isinf(dst)] = PAD_INDEX
    return (idx[0], dst[0]) if one else (idx, dst)


def merge_topk(
    indices_parts: list[np.ndarray],
    distances_parts: list[np.ndarray],
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise k-smallest merge of per-part top-k lists.

    Inputs are ``(M, k_s)`` point indices (``-1`` padding) and matching
    float64 distances (``inf`` padding), one pair per part: the shards
    of a sharded index or the blocks of a blocked one.  Parts partition
    the points, so no id appears twice, and the merged rows are the
    :func:`top_k` of their concatenation: whenever each part list is
    its own canonical top-k, the merge is the global one, bit for bit,
    for any number of parts.
    """
    idx, dst = top_k(
        np.concatenate(indices_parts, axis=1),
        np.concatenate(distances_parts, axis=1),
        k,
    )
    return np.ascontiguousarray(idx), np.ascontiguousarray(dst)


class RunningTopK:
    """One query's running top-k list, kept in the canonical order.

    The per-query searches offer candidates as they scan buckets;
    :meth:`worst` is the pruning bound (``inf`` until ``k`` are held).
    A candidate enters when it ranks before the current ``k``-th, so
    an equal distance with a smaller id displaces a larger one.
    """

    __slots__ = ("k", "_best")

    def __init__(self, k: int):
        self.k = k
        self._best: list[tuple[float, int]] = []

    def push(self, ids, dists) -> None:
        """Offer candidates one at a time, in the order given."""
        best, k = self._best, self.k
        for i, d in zip(np.asarray(ids).tolist(), np.asarray(dists).tolist()):
            entry = (d, i)
            if len(best) == k:
                if entry >= best[-1]:
                    continue
                best.pop()
            bisect.insort(best, entry)

    def worst(self) -> float:
        """The current ``k``-th distance, ``inf`` while fewer are held."""
        return self._best[-1][0] if len(self._best) == self.k else math.inf

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, distances)`` of length ``k``, ``-1`` / ``inf`` padded."""
        idx = np.full(self.k, PAD_INDEX, dtype=np.int64)
        dst = np.full(self.k, np.inf)
        if self._best:
            held = len(self._best)
            dst[:held], idx[:held] = zip(*self._best)
        return idx, dst
