"""Locality-sensitive hashing for approximate kNN.

The "Approx. LSH" row of Table 1.  A classic random-projection E2LSH
scheme: ``n_tables`` hash tables, each hashing a point through
``n_projections`` quantized random projections; a query scans the union
of its matching buckets.

LSH was designed for high-dimensional data where space partitioning
trees degrade; the paper's point — reproduced by the Table 1 harness —
is that in 3D its fixed, data-oblivious partitioning is far *worse*
than a k-d tree at equal search cost (18.4% accuracy in the paper).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.geometry import PointCloud
from repro.modality import UnsupportedQueryMixin
from repro.kdtree.ranking import PAD_INDEX, top_k
from repro.kdtree.search import QueryResult


@dataclass(frozen=True)
class LshConfig:
    """Random-projection LSH parameters.

    ``bucket_width`` is the quantization step ``w`` of each projection;
    small widths fragment the space (fast, inaccurate), large widths
    degenerate toward linear search.
    """

    n_tables: int = 1
    n_projections: int = 8
    bucket_width: float = 0.5
    max_candidates: int | None = None

    def __post_init__(self):
        if self.n_tables < 1:
            raise ValueError("n_tables must be positive")
        if self.n_projections < 1:
            raise ValueError("n_projections must be positive")
        if self.bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be positive when given")


class LshIndex(UnsupportedQueryMixin):
    """An LSH index over a fixed reference set.

    Radius / FPS queries raise the typed
    :class:`~repro.index.protocol.UnsupportedQuery`.
    """

    name = "lsh"

    def __init__(
        self,
        reference: PointCloud | np.ndarray,
        config: LshConfig | None = None,
        *,
        rng: np.random.Generator | None = None,
    ):
        self.config = config or LshConfig()
        rng = rng or np.random.default_rng(0)
        self.points = (
            reference.xyz if isinstance(reference, PointCloud)
            else np.asarray(reference, dtype=np.float64)
        )
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("reference must have shape (N, 3)")
        if self.points.shape[0] == 0:
            raise ValueError("reference set is empty")

        cfg = self.config
        # One (projections, offsets) pair per table.
        self._projections = rng.normal(size=(cfg.n_tables, cfg.n_projections, 3))
        self._offsets = rng.uniform(0.0, cfg.bucket_width, size=(cfg.n_tables, cfg.n_projections))
        self._tables: list[dict[tuple, np.ndarray]] = []
        for t in range(cfg.n_tables):
            keys = self._hash(self.points, t)
            table: dict[tuple, list[int]] = defaultdict(list)
            for i, key in enumerate(map(tuple, keys)):
                table[key].append(i)
            self._tables.append(
                {key: np.asarray(v, dtype=np.int64) for key, v in table.items()}
            )

    def build(self, reference: PointCloud | np.ndarray) -> "LshIndex":
        """Rebuild the hash tables over a new reference cloud; returns self."""
        self.__init__(reference, self.config)
        return self

    def stats(self) -> dict:
        return {
            "n_reference": int(self.points.shape[0]),
            "n_tables": self.config.n_tables,
            "n_projections": self.config.n_projections,
            "bucket_width": self.config.bucket_width,
            "mean_bucket_size": self.mean_bucket_size(),
        }

    def _hash(self, pts: np.ndarray, table: int) -> np.ndarray:
        cfg = self.config
        projected = pts @ self._projections[table].T + self._offsets[table]
        return np.floor(projected / cfg.bucket_width).astype(np.int64)

    def query(self, queries: PointCloud | np.ndarray, k: int) -> QueryResult:
        """Scan the union of matching buckets across all tables."""
        if k < 1:
            raise ValueError("k must be positive")
        q = queries.xyz if isinstance(queries, PointCloud) else np.asarray(queries, dtype=np.float64)
        q = np.atleast_2d(q)
        m = q.shape[0]
        indices = np.full((m, k), PAD_INDEX, dtype=np.int64)
        distances = np.full((m, k), np.inf)
        keys_per_table = [self._hash(q, t) for t in range(self.config.n_tables)]
        for i in range(m):
            candidates = self._candidates(keys_per_table, i)
            if candidates.size == 0:
                continue
            diffs = self.points[candidates] - q[i]
            dists = np.sqrt((diffs * diffs).sum(axis=1))
            indices[i], distances[i] = top_k(candidates, dists, k)
        return QueryResult(indices=indices, distances=distances)

    def _candidates(self, keys_per_table: list[np.ndarray], i: int) -> np.ndarray:
        gathered = []
        for t, table in enumerate(self._tables):
            bucket = table.get(tuple(keys_per_table[t][i]))
            if bucket is not None:
                gathered.append(bucket)
        if not gathered:
            return np.empty(0, dtype=np.int64)
        candidates = np.unique(np.concatenate(gathered))
        limit = self.config.max_candidates
        if limit is not None and candidates.size > limit:
            candidates = candidates[:limit]
        return candidates

    def mean_bucket_size(self) -> float:
        """Average bucket occupancy across tables, for tuning diagnostics."""
        sizes = [b.size for table in self._tables for b in table.values()]
        return float(np.mean(sizes)) if sizes else 0.0
