"""Request kinds: the steps of the serve path that differ by query kind.

:class:`~repro.serve.server.KnnServer` runs one request path for every
kind of query.  Each entry of :data:`KINDS`, keyed by the
``ServeRequest.kind`` string (which is also what a process-backend task
carries), supplies the five steps that differ:

* ``charge(request)`` — the admission cost in queue rows;
* ``plan(request, level, approx_budget)`` — ``(args, served)``: the
  hashable engine arguments (requests with equal kind and ``args``
  share one engine call; ``args[0]`` is the row cap ``k``) and the
  label the response carries;
* ``search(shard, q, args)`` — one shard's answer, in global ids;
* ``merge(parts, n_rows, args)`` — the shards' answers, canonically;
* ``respond(merged, job, request, row0, row1, now)`` — one request's
  response, from rows ``row0:row1``.

``counters`` names the ``serve.*`` counters an admitted request bumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kdtree.search import QueryResult
from repro.serve.sharding import merge_radius, merge_topk


def as_queries(queries) -> np.ndarray:
    """Query rows as a contiguous float64 ``(m, 3)`` array, or ``ValueError``.

    The serving boundary's one input check: at least one row, three
    coordinates, all finite.  A NaN or infinite row has no nearest
    neighbour, and refusing it here keeps it out of the micro-batch it
    would otherwise share.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.ndim != 2 or q.shape[1] != 3 or q.shape[0] == 0:
        raise ValueError("queries must have shape (m, 3) with m >= 1")
    if not np.isfinite(q).all():
        raise ValueError("queries must have finite coordinates (no NaN/inf)")
    return np.ascontiguousarray(q)


def as_reference(points) -> np.ndarray:
    """Reference points as a contiguous float64 ``(N, 3)`` array, or ``ValueError``.

    The serving boundary's check on every cloud it indexes: three
    coordinates per point, all finite.  One NaN or infinite point would
    make its bucket's centre non-finite, and with it every distance
    scored in that bucket.
    """
    xyz = np.asarray(points, dtype=np.float64)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError("reference points must have shape (N, 3)")
    if not np.isfinite(xyz).all():
        raise ValueError(
            "reference points must have finite coordinates (no NaN/inf)"
        )
    return np.ascontiguousarray(xyz)


@dataclass(frozen=True)
class ServeResponse:
    """One answered request, with the conditions it was answered under.

    ``indices`` holds *global* reference-point ids (``-1`` padding),
    ``distances`` the exact float64 distances from the engine kernel.
    ``served`` names the search actually run (``"exact"``,
    ``"approx"``, or ``"degraded"`` when load tightened the budget or
    downgraded an opted-in exact request); ``budget`` is the
    ``max_visits`` it ran with (``None`` = unbounded exact).
    """

    indices: np.ndarray
    distances: np.ndarray
    mode: str               # what the caller asked for
    served: str             # what actually ran
    degrade_level: int
    budget: int | None
    latency_s: float
    generation: int
    request_id: int = -1    # the trace id assigned at admission

    @property
    def degraded(self) -> bool:
        return self.served == "degraded"

    def as_query_result(self) -> QueryResult:
        return QueryResult(indices=self.indices, distances=self.distances)


@dataclass(frozen=True)
class RadiusServeResponse:
    """One answered radius request: ragged CSR rows, always exact.

    ``indices`` / ``distances`` are the flat per-pair arrays and
    ``offsets`` the row boundaries — the same layout as
    :class:`~repro.query.result.RaggedResult` (:meth:`as_ragged`
    wraps them).  Rows are in the canonical order (ascending distance,
    ties by ascending global id), each capped at its nearest
    ``max_neighbors``.  Radius requests never ride the degradation
    ladder — a partial radius answer has no honest meaning — so
    ``served`` is always ``"exact"``; overload protection is admission
    control alone, with each row charged ``max_neighbors`` queue rows.
    """

    indices: np.ndarray
    distances: np.ndarray
    offsets: np.ndarray
    radius: float
    max_neighbors: int
    degrade_level: int
    latency_s: float
    generation: int
    request_id: int = -1
    served: str = "exact"

    def as_ragged(self):
        from repro.query.result import RaggedResult

        return RaggedResult(
            indices=self.indices,
            distances=self.distances,
            offsets=self.offsets,
        )


class _Knn:
    """Top-k rows; ``args`` is ``(k, budget)``."""

    counters = ("serve.requests",)

    def charge(self, request) -> int:
        return request.n_rows

    def plan(self, request, level: int, approx_budget: int):
        """The degradation ladder (see :mod:`repro.serve.server`)."""
        b = approx_budget
        if request.mode == "approx":
            budget = (b, b // 2, b // 4, 0)[level]
            served = "approx" if budget == b else "degraded"
            return (request.k, budget), served
        if not request.allow_degraded or level == 0:
            return (request.k, None), "exact"
        return (request.k, (None, 4 * b, b, 0)[level]), "degraded"

    def search(self, shard, q, args):
        k, budget = args
        return shard.search(q, k, budget)

    def merge(self, parts, n_rows: int, args):
        indices, distances = zip(*parts)
        return merge_topk(list(indices), list(distances), args[0])

    def respond(self, merged, job, request, row0: int, row1: int, now: float):
        # Copies, not views: a kept response must not pin its batch.
        indices, distances = merged
        return ServeResponse(
            indices=indices[row0:row1].copy(),
            distances=distances[row0:row1].copy(),
            mode=request.mode,
            served=request.served,
            degrade_level=job.degrade_level,
            budget=job.args[1],
            latency_s=now - request.arrival,
            generation=job.generation,
            request_id=request.request_id,
        )


class _Radius:
    """Ragged CSR rows within a ball, capped; ``args`` is ``(k, radius)``.

    A row can return up to ``k`` (its ``max_neighbors``) pairs, so it
    is charged ``k`` queue rows — which is why a served radius request
    must carry a finite cap: admission tracks the worst-case answer
    size.  Radius rows never degrade — a truncated ball has no honest
    meaning, and each row prepaid its worst case at admission.
    """

    counters = ("serve.requests", "serve.radius_requests")

    def charge(self, request) -> int:
        return request.n_rows * request.k

    def plan(self, request, level: int, approx_budget: int):
        return (request.k, request.radius), "exact"

    def search(self, shard, q, args):
        k, radius = args
        return shard.search_radius(q, radius, k)

    def merge(self, parts, n_rows: int, args):
        return merge_radius(parts, n_rows, args[0])

    def respond(self, merged, job, request, row0: int, row1: int, now: float):
        lo = int(merged.offsets[row0])
        hi = int(merged.offsets[row1])
        return RadiusServeResponse(
            indices=merged.indices[lo:hi].copy(),
            distances=merged.distances[lo:hi].copy(),
            offsets=merged.offsets[row0 : row1 + 1] - lo,
            radius=job.args[1],
            max_neighbors=job.args[0],
            # Always 0: reporting the queue-pressure ladder level here
            # would read as a truncated ball.
            degrade_level=0,
            latency_s=now - request.arrival,
            generation=job.generation,
            request_id=request.request_id,
        )


#: Every request kind the serve path runs, keyed by ``ServeRequest.kind``.
KINDS = {"knn": _Knn(), "radius": _Radius()}
