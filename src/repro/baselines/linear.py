"""Exact linear (brute-force) kNN search.

The reference method of Section 2.1: every query is compared against
every reference point.  Chunked so the pairwise distance matrix never
exceeds a fixed memory budget, which keeps the 30k x 30k successive-
frame workload tractable.

This function doubles as the ground truth for all accuracy metrics.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import PointCloud
from repro.kdtree.ranking import top_k
from repro.kdtree.search import PAD_INDEX, QueryResult


def knn_bruteforce(
    reference: PointCloud | np.ndarray,
    queries: PointCloud | np.ndarray,
    k: int,
    *,
    chunk_size: int = 1024,
) -> QueryResult:
    """Exact kNN by exhaustive distance computation.

    Parameters
    ----------
    reference, queries:
        Point sets of shapes ``(N, 3)`` and ``(M, 3)``.
    k:
        Number of neighbors; results are padded if ``k > N``.
    chunk_size:
        Queries processed per chunk.  Peak memory is about
        ``2 * chunk_size * N`` float64 values: the chunk's score matrix
        plus the copy ``np.partition`` makes of it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    ref = reference.xyz if isinstance(reference, PointCloud) else np.asarray(reference, dtype=np.float64)
    qry = queries.xyz if isinstance(queries, PointCloud) else np.asarray(queries, dtype=np.float64)
    qry = np.atleast_2d(qry)
    if ref.ndim != 2 or ref.shape[1] != 3 or qry.shape[1] != 3:
        raise ValueError("reference and queries must have shape (*, 3)")
    n, m = ref.shape[0], qry.shape[0]
    if n == 0:
        raise ValueError("reference set is empty")

    take = min(k, n)
    indices = np.full((m, k), PAD_INDEX, dtype=np.int64)
    distances = np.full((m, k), np.inf)

    ref_sq = (ref * ref).sum(axis=1)
    for start in range(0, m, chunk_size):
        stop = min(start + chunk_size, m)
        block = qry[start:stop]
        # Squared distances via the expansion |q - r|^2 = |q|^2 - 2 q.r + |r|^2,
        # evaluated as (|q|^2 - (2q).r) + |r|^2 inside the matmul's output.
        d2 = (2.0 * block) @ ref.T
        np.subtract((block * block).sum(axis=1)[:, None], d2, out=d2)
        np.add(d2, ref_sq[None, :], out=d2)
        np.maximum(d2, 0.0, out=d2)
        # Keep every column tied with (or, after the square root, equal
        # to) a row's take-th score, so the canonical order picks among
        # ties by id; the widening covers the root's rounding.  The
        # copy frees the partitioned matrix before the mask is built.
        if n > take:
            kth = np.partition(d2, take - 1, axis=1)[:, take - 1].copy()
            d2_max = kth + 4.0 * np.finfo(np.float64).eps * kth
        else:
            d2_max = np.full(stop - start, np.inf)
        row, col = np.nonzero(d2 <= d2_max[:, None])
        counts = np.bincount(row, minlength=stop - start)
        cell = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
        cand_i = np.full((stop - start, int(counts.max())), PAD_INDEX, dtype=np.int64)
        cand_d = np.full(cand_i.shape, np.inf)
        cand_i[row, cell] = col
        cand_d[row, cell] = np.sqrt(d2[row, col])
        indices[start:stop], distances[start:stop] = top_k(cand_i, cand_d, k)

    return QueryResult(indices=indices, distances=distances)
