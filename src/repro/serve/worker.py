"""Worker-process main loop for the ``process`` execution backend.

One worker serves one shard slot: it pulls tasks off its shard's task
queue, attaches the named shared-memory segment for the task's
generation (cached across tasks — attach is a one-time ``mmap`` plus
header decode, the arrays themselves are zero-copy views), runs the
same per-shard search of the task's request kind
(:data:`~repro.serve.kinds.KINDS`) the thread backend runs, and ships
the result back on its private result pipe.  The pipe has exactly one
writer (this worker) and one reader (a coordinator-side collector
thread), so there is no shared lock a SIGKILLed sibling could take to
its grave — and the pipe's EOF doubles as the worker's death notice.
All policy — degradation, hedging, retries, timeouts, merge — stays in
the coordinator; a worker is a pure compute loop.

Observability: when the coordinator runs with profiling on it passes
``obs_config`` and the worker enables its own live
:class:`~repro.obs.registry.MetricsRegistry` (labelled
``quicknn-worker-<id>``) before touching any instrumented code, so
every ``engine.*`` counter and histogram the search path emits lands
worker-side.  Each reply piggybacks the registry's ``flush_delta()``
payload and the farewell carries a final flush, so the coordinator's
registry converges to machine-wide truth — and because a flush rides
on *every* message, a SIGKILLed worker's already-flushed deltas
survive it.  With tracing on, each task executes inside a
``serve.worker.search`` span stamped with the job id and the request
ids it serves, carrying this process's real pid/tid into the merged
Chrome trace.

Robustness rules:

* a task for a segment that cannot be attached (vanished mid-swap,
  corrupt, whatever) produces an ``error`` message, never a worker
  crash — the coordinator's retry/timeout machinery owns the outcome;
* SIGTERM is converted to a clean exit (farewell message with the
  final counters, mappings closed) so ``terminate()`` during shutdown
  does not strand attachments;
* unpicklable exceptions are re-wrapped as
  :class:`~repro.serve.errors.WorkerError` so the error path itself
  can never fail to cross the process boundary.

Per-process counters (cumulative, piggybacked on every message and on
the farewell) surface in the coordinator as ``serve.worker.<id>.*``
gauges: ``tasks``, ``rows``, ``errors``, ``attaches``, ``pid``.
"""

from __future__ import annotations

import os
import pickle
import signal

from repro.serve import shm as shm_mod
from repro.serve.errors import WorkerError
from repro.serve.kinds import KINDS

#: Generations a worker keeps attached (current + one behind, so a
#: hedge or retry of a pre-swap job never pays a re-attach).
KEEP_GENERATIONS = 2


def _portable_exc(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives pickling, else a WorkerError."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return WorkerError(f"{type(exc).__name__}: {exc}")


class _ShardCache:
    """Attached generations of one shard, newest-first eviction."""

    def __init__(self, counters: dict):
        self._counters = counters
        self._states: dict[int, tuple] = {}  # generation -> (state, shm)

    def get(self, generation: int, segment_name: str):
        from repro.kdtree.snapshot import Snapshot
        from repro.serve.sharding import ShardState

        entry = self._states.get(generation)
        if entry is None:
            payload, handle = shm_mod.attach_segment(segment_name)
            state = ShardState.from_snapshot(Snapshot.from_payload(payload))
            self._states[generation] = entry = (state, handle)
            self._counters["attaches"] += 1
            self._evict(keep_from=generation - KEEP_GENERATIONS + 1)
        return entry[0]

    def _evict(self, keep_from: int) -> None:
        for generation in [g for g in self._states if g < keep_from]:
            _, handle = self._states.pop(generation)
            shm_mod.close_attachment(handle)

    def close(self) -> None:
        states, self._states = self._states, {}
        for _, handle in states.values():
            shm_mod.close_attachment(handle)


def _graceful_term(signum, frame):  # pragma: no cover - signal path
    """SIGTERM -> SystemExit, so ``finally`` sends the farewell."""
    raise SystemExit(0)


def _enable_obs(worker_id: str, obs_config: dict | None):
    """Install this worker's live registry when the coordinator profiles.

    Must run before any instrumented code executes — the engine reads
    the active registry per call, so enabling first guarantees every
    ``engine.*`` metric of every task lands in this registry.
    """
    if not obs_config or not obs_config.get("enabled"):
        return None
    from repro.obs.registry import MetricsRegistry, set_registry

    registry = MetricsRegistry(
        trace=bool(obs_config.get("trace")),
        process_label=f"quicknn-worker-{worker_id}",
    )
    set_registry(registry)
    return registry


def worker_main(worker_id: str, slot: int, task_queue, result_conn,
                obs_config: dict | None = None) -> None:
    """Entry point of one shard-replica worker process.

    ``task_queue`` yields ``(job_id, generation, segment_name, q,
    query_kind, args, request_ids)`` tuples, or ``None`` as the
    shutdown sentinel.  ``query_kind`` is a
    :data:`~repro.serve.kinds.KINDS` key and ``args`` that kind's
    engine arguments; the payload is whatever the kind's ``search``
    returns.  Replies on ``result_conn`` (this worker's private pipe)
    are ``(kind, worker_id, job_id, slot, payload, counters, metrics)``
    with kind ``result`` (payload as above), ``error``
    (payload the exception), or ``bye`` (farewell); ``metrics`` is the
    worker registry's ``flush_delta()`` payload, or ``None`` when the
    coordinator is not profiling (``obs_config`` absent/disabled).
    """
    signal.signal(signal.SIGTERM, _graceful_term)
    registry = _enable_obs(worker_id, obs_config)
    counters = {
        "pid": os.getpid(),
        "tasks": 0,
        "rows": 0,
        "errors": 0,
        "attaches": 0,
    }

    def _flush():
        return registry.flush_delta() if registry is not None else None

    cache = _ShardCache(counters)
    try:
        while True:
            task = task_queue.get()
            if task is None:
                return
            (job_id, generation, segment_name, q, query_kind, args,
             request_ids) = task
            try:
                state = cache.get(generation, segment_name)
                search = KINDS[query_kind].search
                if registry is not None:
                    span_args = {"job_id": job_id, "worker": worker_id}
                    if request_ids is not None:
                        span_args["request_ids"] = request_ids
                    with registry.phase("serve.worker.search", args=span_args):
                        payload = search(state, q, args)
                else:
                    payload = search(state, q, args)
            except Exception as exc:
                counters["errors"] += 1
                result_conn.send(
                    ("error", worker_id, job_id, slot,
                     _portable_exc(exc), dict(counters), _flush())
                )
                continue
            counters["tasks"] += 1
            counters["rows"] += int(q.shape[0])
            result_conn.send(
                ("result", worker_id, job_id, slot,
                 payload, dict(counters), _flush())
            )
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        return
    finally:
        cache.close()
        try:
            result_conn.send(
                ("bye", worker_id, None, slot, None, dict(counters), _flush())
            )
        except Exception:  # pragma: no cover - pipe already torn down
            pass
        try:
            result_conn.close()
        except Exception:  # pragma: no cover - best-effort
            pass
