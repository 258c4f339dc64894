"""Uniform-grid (voxel hash) kNN search.

The other practical spatial index for 3D data: points are hashed into
cubic cells, and a query scans cells in expanding rings around its own
cell until the k-th best distance is closed out by the ring bound —
which makes the search *exact*.  Grids excel on uniform densities and
degrade on LiDAR's highly non-uniform frames (empty far-field rings,
overstuffed near-field cells), the trade-off the extension Table 1 row
quantifies against the k-d tree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.geometry import PointCloud
from repro.modality import UnsupportedQueryMixin
from repro.kdtree.ranking import PAD_INDEX, RunningTopK
from repro.kdtree.search import QueryResult


@dataclass(frozen=True)
class GridConfig:
    """Cell size of the hash grid.

    A good cell size puts O(k) points in a 3x3x3 neighborhood; too
    small and rings multiply, too large and cells degenerate to linear
    scans.
    """

    cell_size: float = 2.0

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")


class GridIndex(UnsupportedQueryMixin):
    """An exact expanding-ring kNN index over a voxel hash.

    Radius / FPS queries raise the typed
    :class:`~repro.index.protocol.UnsupportedQuery`.
    """

    name = "grid"

    def __init__(self, reference: PointCloud | np.ndarray, config: GridConfig | None = None):
        self.config = config or GridConfig()
        self.build(reference)

    def build(self, reference: PointCloud | np.ndarray) -> "GridIndex":
        """(Re)hash a reference cloud into the grid; returns self."""
        self.points = (
            reference.xyz if isinstance(reference, PointCloud)
            else np.asarray(reference, dtype=np.float64)
        )
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("reference must have shape (N, 3)")
        if self.points.shape[0] == 0:
            raise ValueError("reference set is empty")
        cells = np.floor(self.points / self.config.cell_size).astype(np.int64)
        table: dict[tuple[int, int, int], list[int]] = defaultdict(list)
        for i, key in enumerate(map(tuple, cells)):
            table[key].append(i)
        self._cells = {key: np.asarray(v, dtype=np.int64) for key, v in table.items()}
        return self

    def stats(self) -> dict:
        n_cells, mean_occ, max_occ = self.occupancy_stats()
        return {
            "n_reference": int(self.points.shape[0]),
            "cell_size": self.config.cell_size,
            "n_cells": n_cells,
            "mean_cell_occupancy": mean_occ,
            "max_cell_occupancy": max_occ,
        }

    # ------------------------------------------------------------------
    def query(self, queries: PointCloud | np.ndarray, k: int) -> QueryResult:
        """Exact kNN by expanding-ring cell scans."""
        if k < 1:
            raise ValueError("k must be positive")
        q = queries.xyz if isinstance(queries, PointCloud) else np.asarray(queries, dtype=np.float64)
        q = np.atleast_2d(q)
        m = q.shape[0]
        indices = np.full((m, k), PAD_INDEX, dtype=np.int64)
        distances = np.full((m, k), np.inf)
        for i in range(m):
            indices[i], distances[i] = self._query_single(q[i], k)
        return QueryResult(indices=indices, distances=distances)

    def _query_single(self, point: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        size = self.config.cell_size
        home = tuple(np.floor(point / size).astype(np.int64))
        best = RunningTopK(k)
        ring = 0
        # The largest possible ring: enough to cover the whole data.
        max_ring = 1 + int(
            max(np.abs(self.points / size - np.asarray(home)).max(axis=0).max(), 1)
        )
        while ring <= max_ring:
            # Once k candidates are held, a further ring can only help if
            # its nearest face is closer than the current k-th distance.
            if (ring - 1) * size > best.worst():
                break
            for key in self._ring_cells(home, ring):
                members = self._cells.get(key)
                if members is None:
                    continue
                diffs = self.points[members] - point
                best.push(members, np.sqrt((diffs * diffs).sum(axis=1)))
            ring += 1
        return best.rows()

    @staticmethod
    def _ring_cells(home: tuple[int, int, int], ring: int):
        """Cells at Chebyshev distance exactly ``ring`` from ``home``."""
        hx, hy, hz = home
        if ring == 0:
            yield home
            return
        span = range(-ring, ring + 1)
        for dx in span:
            for dy in span:
                for dz in span:
                    if max(abs(dx), abs(dy), abs(dz)) == ring:
                        yield (hx + dx, hy + dy, hz + dz)

    def occupancy_stats(self) -> tuple[int, float, int]:
        """(n_cells, mean points/cell, max points/cell) — balance diagnostics."""
        sizes = [v.size for v in self._cells.values()]
        return len(sizes), float(np.mean(sizes)), int(max(sizes))
