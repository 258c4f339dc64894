"""Micro-batching intake: bounded queue, work-conserving batch formation.

The batcher is the serving layer's front door.  ``submit`` applies
admission control synchronously — a request either enters the bounded
queue or is shed with :class:`~repro.serve.errors.Overloaded` before it
costs anything.  The dispatcher side calls ``next_batch``, which blocks
until a batch is *ready*: either ``max_batch_size`` query rows have
accumulated, or the oldest queued request has waited ``max_delay_s``
**and** the backend has an idle replica (the ``idle`` signal).  While
every replica is busy, requests coalesce in the queue; the server calls
``wake`` when a job drains, and the next batch ships at once.  So the
backend sets the batch size — as the QuickNN read-gather cache
(:mod:`repro.arch.gather`) flushes a slot when it fills, is evicted or
the stream drains.  ``max_delay_s`` is how long a non-full batch waits
for company while a replica sits idle: the server's default (0.5 ms)
lets one client's back-to-back submits share a batch.  With 0, a
request that finds a replica free ships alone at once, and which
requests of a burst share a batch depends on when the dispatcher
thread gets the GIL.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from concurrent.futures import Future

import numpy as np

from repro.serve.errors import Overloaded, ServerClosed
from repro.serve.kinds import KINDS


@dataclass
class ServeRequest:
    """One admitted unit of work: a few query rows plus routing flags.

    ``kind`` keys the :data:`~repro.serve.kinds.KINDS` table: ``"knn"``
    (the default top-k path) or ``"radius"`` (batched range search
    returning ragged CSR rows).  A radius request stores its
    ``max_neighbors`` cap in ``k`` and its radius in ``radius``; it is
    always served exact.
    """

    xyz: np.ndarray                 # (m, 3) float64 query rows
    k: int
    mode: str                       # "exact" | "approx"
    allow_degraded: bool
    kind: str = "knn"               # "knn" | "radius"
    radius: float = 0.0             # ball radius for kind == "radius"
    future: Future = field(default_factory=Future)
    arrival: float = 0.0            # monotonic admission time
    deadline: float | None = None   # monotonic; None = no timeout
    served: str = "exact"           # what actually ran (set at dispatch)
    request_id: int = -1            # server-assigned trace id (set at submit)

    @property
    def n_rows(self) -> int:
        return self.xyz.shape[0]

    @property
    def cost_rows(self) -> int:
        """Queue-accounting weight in answer rows (the kind's charge)."""
        return KINDS[self.kind].charge(self)


class MicroBatcher:
    """Bounded request queue with work-conserving batch formation.

    Thread-safe: any number of submitters, any number of dispatchers
    (the server runs one).  ``max_queue`` is measured in query *rows*
    (a multi-row request occupies its row count), so admission pressure
    tracks actual work, not request count.  ``idle`` is called under the
    batcher's lock and must not block; whoever flips it to true calls
    :meth:`wake`.  The default (always idle) is the plain size/deadline
    rule.
    """

    def __init__(
        self,
        *,
        max_batch_size: int,
        max_delay_s: float,
        max_queue: int,
        clock=time.monotonic,
        idle=lambda: True,
    ):
        self.max_batch_size = max_batch_size
        self.max_delay_s = max_delay_s
        self.max_queue = max_queue
        self._clock = clock
        self._idle = idle
        self._queue: list[ServeRequest] = []
        self._rows_queued = 0
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._closed = False

    # -- submitter side ------------------------------------------------
    def submit(self, request: ServeRequest) -> None:
        """Admit ``request`` or shed it; never blocks on a full queue."""
        with self._ready:
            if self._closed:
                raise ServerClosed("cannot submit: batcher is closed")
            if self._rows_queued + request.cost_rows > self.max_queue:
                raise Overloaded(self._rows_queued, self.max_queue)
            request.arrival = self._clock()
            self._queue.append(request)
            self._rows_queued += request.cost_rows
            # Only a new oldest request (its deadline) or a full batch
            # changes what the dispatcher waits for; a request joining a
            # queue that is not yet ready leaves it asleep.
            if (len(self._queue) == 1
                    or self._rows_queued >= self.max_batch_size):
                self._ready.notify()

    def depth(self) -> int:
        """Queued query rows right now (the admission/degradation signal)."""
        with self._lock:
            return self._rows_queued

    def fill_fraction(self) -> float:
        """Queue occupancy in [0, 1] — the degradation ladder's input."""
        with self._lock:
            return self._rows_queued / self.max_queue

    # -- dispatcher side -----------------------------------------------
    def wake(self) -> None:
        """Re-check readiness now: the ``idle`` signal may have flipped.

        Only a queued batch that is already due can become ready this
        way; with none, or with every replica still busy, the
        dispatcher is left asleep.
        """
        with self._ready:
            if (self._queue
                    and self._clock() - self._queue[0].arrival >= self.max_delay_s
                    and self._idle()):
                self._ready.notify_all()

    def next_batch(self, timeout: float | None = None) -> list[ServeRequest] | None:
        """Block until a batch is ready; ``None`` on timeout or closed-empty.

        Ready means full (``max_batch_size`` rows queued), or due (the
        oldest request has waited ``max_delay_s``) while ``idle()``
        holds, or closed.  A due batch facing a busy backend sleeps
        until a submit, a :meth:`wake` or ``timeout`` — it never spins.

        A batch is a prefix of the queue holding at most
        ``max_batch_size`` rows — except that a single oversized request
        always ships alone (the engine handles any batch size; splitting
        a request would split its future).
        """
        give_up = None if timeout is None else self._clock() + timeout
        with self._ready:
            while True:
                now = self._clock()
                if self._queue:
                    wait = self.max_delay_s - (now - self._queue[0].arrival)
                    if (
                        self._rows_queued >= self.max_batch_size
                        or (wait <= 0 and self._idle())
                        or self._closed
                    ):
                        return self._pop_batch_locked()
                    if wait <= 0:
                        wait = None     # due but busy: only a wake-up helps
                elif self._closed:
                    return None
                else:
                    wait = None
                if give_up is not None:
                    left = give_up - now
                    wait = left if wait is None else min(wait, left)
                if wait is not None and wait <= 0:
                    return None
                self._ready.wait(wait)

    def _pop_batch_locked(self) -> list[ServeRequest]:
        batch: list[ServeRequest] = []
        rows = 0
        while self._queue:
            nxt = self._queue[0].cost_rows
            if batch and rows + nxt > self.max_batch_size:
                break
            batch.append(self._queue.pop(0))
            rows += nxt
        self._rows_queued -= rows
        return batch

    def expire(self, now: float) -> list[ServeRequest]:
        """Remove and return queued requests whose deadline has passed.

        Called by the server's monitor so a doomed request frees its
        queue rows (and gets its typed timeout) without waiting for its
        batch to form.
        """
        with self._ready:
            expired = [
                r for r in self._queue
                if r.deadline is not None and now >= r.deadline
            ]
            if expired:
                self._queue = [
                    r for r in self._queue
                    if not (r.deadline is not None and now >= r.deadline)
                ]
                self._rows_queued = sum(r.cost_rows for r in self._queue)
                self._ready.notify_all()
            return expired

    # -- shutdown ------------------------------------------------------
    def close(self) -> list[ServeRequest]:
        """Refuse new submissions; return (and drop) whatever is queued.

        The caller owns failing the drained requests' futures.
        """
        with self._ready:
            self._closed = True
            drained, self._queue = self._queue, []
            self._rows_queued = 0
            self._ready.notify_all()
            return drained
