"""Answer checks against ``scipy.spatial.cKDTree``, independent of the program.

Checks run after the timed window, so they add nothing to the timings.
A row is wrong when any reported neighbour is not where the exact answer
says it should be.  Distances may differ from the oracle's by ``TOL``,
because the two compute them in a different order.  Among neighbours
tied within ``TOL`` any choice is accepted.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

TOL = 1e-9


class Oracle:
    """Exact answers over one reference cloud."""

    def __init__(self, reference: np.ndarray):
        self.reference = np.asarray(reference, dtype=np.float64)
        self._tree = cKDTree(self.reference)

    def _true_dist(self, queries: np.ndarray, indices: np.ndarray) -> np.ndarray:
        diff = self.reference[indices] - queries[:, None, :]
        return np.sqrt((diff * diff).sum(axis=-1))

    def knn_wrong_rows(self, queries, indices, distances, k: int) -> int:
        """Rows whose ``k`` reported neighbours are not a true top-k."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        idx = np.asarray(indices)
        dst = np.asarray(distances, dtype=np.float64)
        if idx.shape != (q.shape[0], k) or dst.shape != idx.shape:
            return q.shape[0]
        exact, _ = self._tree.query(q, k=k)
        exact = np.asarray(exact).reshape(q.shape[0], k)
        in_range = ((idx >= 0) & (idx < len(self.reference))).all(axis=1)
        safe = np.where(in_range[:, None], idx, 0)
        ok = in_range
        ok &= np.abs(dst - exact).max(axis=1) <= TOL
        ok &= np.abs(self._true_dist(q, safe) - dst).max(axis=1) <= TOL
        ok &= (np.diff(np.sort(safe, axis=1), axis=1) > 0).all(axis=1)
        return int(np.count_nonzero(~ok))

    def radius_wrong_rows(self, queries, indices, distances, offsets,
                          radius: float, cap: int) -> int:
        """Rows whose reported ball is not the nearest ``cap`` within ``radius``."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        offsets = np.asarray(offsets, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        distances = np.asarray(distances, dtype=np.float64)
        if offsets.shape != (q.shape[0] + 1,):
            return q.shape[0]
        wrong = 0
        for row, point in enumerate(q):
            got = indices[offsets[row]:offsets[row + 1]]
            got_d = distances[offsets[row]:offsets[row + 1]]
            if not self._radius_row_ok(point, got, got_d, radius, cap):
                wrong += 1
        return wrong

    def _radius_row_ok(self, point, got, got_d, radius, cap) -> bool:
        n = len(self.reference)
        if got.size and (got.min() < 0 or got.max() >= n):
            return False
        if np.unique(got).size != got.size or got.size > cap:
            return False
        true_got = self._true_dist(point[None, :], got[None, :])[0]
        if got.size and (np.abs(true_got - got_d).max() > TOL
                         or true_got.max() > radius + TOL):
            return False
        ball = np.asarray(self._tree.query_ball_point(point, radius + TOL), dtype=np.int64)
        ball_d = self._true_dist(point[None, :], ball[None, :])[0]
        sure = ball[ball_d < radius - TOL]
        if ball.size <= cap:
            # Everything surely inside must be reported; boundary ties may go either way.
            return bool(np.isin(sure, got).all())
        if got.size != cap:
            return False
        cap_d = np.sort(ball_d)[cap - 1]
        return bool(true_got.max() <= cap_d + TOL)

    def inconsistent_rows(self, queries, indices, distances) -> int:
        """Rows whose reported distances are not those of the reported ids,
        or not ascending: a check that also holds for approximate answers."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        idx = np.asarray(indices)
        dst = np.asarray(distances, dtype=np.float64)
        in_range = ((idx >= 0) & (idx < len(self.reference))).all(axis=1)
        safe = np.where(in_range[:, None], idx, 0)
        ok = in_range & (np.abs(self._true_dist(q, safe) - dst).max(axis=1) <= TOL)
        ok &= (np.diff(dst, axis=1) >= 0).all(axis=1)
        return int(np.count_nonzero(~ok))

    def recall(self, queries, indices, k: int) -> tuple[int, int]:
        """``(hits, total)``: reported ids that are among the exact top-k."""
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        _, exact = self._tree.query(q, k=k)
        exact = np.asarray(exact).reshape(q.shape[0], k)
        idx = np.asarray(indices)
        hits = sum(np.intersect1d(a, b).size for a, b in zip(idx, exact))
        return int(hits), int(q.shape[0] * k)
