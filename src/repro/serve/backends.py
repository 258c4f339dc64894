"""Execution backends: where shard work runs, behind one registry.

The serving coordinator (:class:`~repro.serve.server.KnnServer`) owns
admission, batch formation, the degradation ladder, failure policy,
and the canonical merge.  What it delegates is *execution*: given a
dispatched batch job and a shard slot, run the job kind's per-shard
search (:data:`~repro.serve.kinds.KINDS`) — the same call for every
kind, under either backend.  An :class:`ExecutionBackend` is that
delegation boundary, and
the registry (:func:`register_backend` / :func:`make_backend`) mirrors
the repo's ``engine=`` / ``builder=`` knob pattern — string-keyed,
validated at config time, every entry bit-identical in its answers.

Two backends ship:

* ``thread`` — shard replicas are daemon threads; a job carries direct
  references to its shard trees.  One process, zero IPC, but
  Python-level work shares one GIL.
* ``process`` — shard replicas are worker processes
  (:mod:`repro.serve.worker`); shard trees live in shared-memory
  segments (:mod:`repro.serve.shm`) created per *generation*, so a
  warm handoff publishes new segments, atomically swaps the serving
  generation, and unlinks the old segments only when the last in-flight
  job that references them finishes (deferred unlink — no worker can
  observe a vanished segment for work it was legitimately given).

Both backends report completion through the same two coordinator
callbacks (``_shard_completed`` / ``_shard_failed``), so hedging,
retries, timeouts, and merge behave identically under either.
"""

from __future__ import annotations

import abc
import itertools
import queue
import secrets
import threading
import weakref
from typing import TYPE_CHECKING, Callable

from repro.obs import get_registry
from repro.registry import Registry
from repro.serve import shm as shm_mod
from repro.serve.errors import WorkerError
from repro.serve.kinds import KINDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serve.server import KnnServer, _BatchJob
    from repro.serve.sharding import ShardState

BACKENDS: Registry[Callable[..., "ExecutionBackend"]] = Registry(
    "execution backend"
)


def register_backend(name: str):
    """Class decorator adding an execution backend to the registry."""

    def _register(cls):
        BACKENDS.add(name, cls)
        cls.name = name
        return cls

    return _register


def available_backends() -> tuple[str, ...]:
    """Registered backend names (what ``ExecutionConfig`` validates)."""
    return BACKENDS.available()


def make_backend(name: str, server: "KnnServer") -> "ExecutionBackend":
    """Instantiate a registered backend bound to ``server``."""
    factory = BACKENDS.resolve(name)
    return factory(server)


class ExecutionBackend(abc.ABC):
    """Lifecycle and dispatch contract between coordinator and workers.

    Call order: :meth:`start` once (with the generation-0 shard
    states), then any number of :meth:`submit` (initial fan-out,
    hedges, retries — all the same call), :meth:`publish` before each
    generation swap and :meth:`retire` when a generation's last
    in-flight job drains, and :meth:`close` exactly once.  ``submit``
    after ``close`` must be a safe no-op.
    """

    name = "abstract"

    def __init__(self, server: "KnnServer"):
        # A proxy, not a reference: the server owns its backend, and a
        # cycle between them would keep a closed server's shard trees
        # alive until the cyclic garbage collector ran.
        self._server = weakref.proxy(server)

    def replicas_per_shard(self) -> int:
        """Shard tasks each shard runs at once (threads or processes)."""
        return self._server.config.n_replicas

    @abc.abstractmethod
    def start(self, shards: tuple["ShardState", ...]) -> None:
        """Bring up workers for generation 0."""

    @abc.abstractmethod
    def submit(self, job: "_BatchJob", slot: int) -> None:
        """Enqueue one shard's share of a job (also hedges/retries)."""

    def publish(self, generation: int, shards: tuple["ShardState", ...]) -> None:
        """Make a new generation's shard states reachable by workers."""

    def retire(self, generation: int) -> None:
        """A generation no longer serves and has no in-flight jobs."""

    @abc.abstractmethod
    def describe(self) -> dict:
        """Operational snapshot for ``KnnServer.stats()``."""

    @abc.abstractmethod
    def close(self) -> None:
        """Stop workers, release every execution resource.  Idempotent."""


# ----------------------------------------------------------------------
# Thread backend
# ----------------------------------------------------------------------
@register_backend("thread")
class ThreadBackend(ExecutionBackend):
    """Shard replicas as daemon threads (the PR 5 execution model).

    Jobs carry direct references to their shard states, so generations
    need no publish/retire bookkeeping — the garbage collector retires
    a generation when its last job drops the tuple.
    """

    def __init__(self, server: "KnnServer"):
        super().__init__(server)
        self._queues: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []
        self._closed = False

    def start(self, shards) -> None:
        n_replicas = self.replicas_per_shard()
        self._queues = [queue.SimpleQueue() for _ in shards]
        for slot in range(len(shards)):
            for replica in range(n_replicas):
                t = threading.Thread(
                    target=self._worker_loop,
                    args=(slot,),
                    name=f"serve-shard{slot}-r{replica}",
                    daemon=True,
                )
                t.start()
                self._threads.append(t)

    def submit(self, job, slot) -> None:
        if self._closed:
            return
        self._queues[slot].put(job)

    def _worker_loop(self, slot: int) -> None:
        shard_queue = self._queues[slot]
        server = self._server
        while True:
            job = shard_queue.get()
            if job is None:
                return
            with job.lock:
                if job.finished or job.shard_done[slot]:
                    continue  # hedge lost the race, or job already failed
            try:
                with get_registry().phase(
                    "serve.worker.search",
                    args={"job_id": job.job_id,
                          "request_ids": job.request_ids,
                          "shard": slot},
                ):
                    payload = KINDS[job.kind].search(
                        job.shards[slot], job.q, job.args
                    )
            except Exception as exc:
                server._shard_failed(job, slot, exc)
                continue
            server._shard_completed(job, slot, payload)

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "n_worker_threads": len(self._threads),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        n_replicas = self.replicas_per_shard()
        for q in self._queues:
            for _ in range(n_replicas):
                q.put(None)
        timeout = self._server.config.execution.join_timeout_s
        for t in self._threads:
            t.join(timeout=timeout)


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------
@register_backend("process")
class ProcessBackend(ExecutionBackend):
    """Shard replicas as worker processes over shared-memory snapshots.

    Topology: every worker owns a private task queue *and* a private
    result pipe.  Both are deliberate SIGKILL containment: a
    ``multiprocessing.Queue`` reader holds the queue's lock while
    blocked (a killed worker sharing a task queue would wedge its
    siblings), and a shared result queue's *write* lock can equally die
    with whichever worker's feeder thread held it mid-send — after
    which no surviving worker can ever deliver a result.  One writer
    and one reader per pipe means no shared lock exists to poison, and
    the pipe's EOF is the worker's death notice.

    A coordinator-side collector thread per worker drains its pipe and
    tracks the worker's outstanding tasks; on EOF the collector fails
    those tasks over through the coordinator's normal retry path, so
    work a dead worker took with it (or that sat unread in its queue)
    is re-routed to a surviving sibling instead of timing out.  Tasks
    name their generation's segment; workers attach segments lazily and
    cache the attachment, so a generation swap needs no control channel
    — new tasks simply carry the new segment name.  Workers are started
    with the ``spawn`` method (the coordinator runs threads, which
    makes ``fork`` hazardous).

    A dead worker is routed around, not respawned.  With every replica
    of a shard dead, submissions fail as shard errors and the
    coordinator's retry budget turns them into typed request failures.
    """

    def __init__(self, server: "KnnServer"):
        super().__init__(server)
        import multiprocessing as mp

        self._ctx = mp.get_context("spawn")
        self._uid = secrets.token_hex(4)
        #: Per shard slot: [{"id", "slot", "queue", "process", "conn",
        #: "thread", "lock", "outstanding", "dead"}].
        self._slot_workers: list[list[dict]] = []
        self._rr: list = []          # per-slot round-robin counters
        self._processes: list = []
        self._segments: dict[int, list] = {}          # generation -> handles
        self._segment_names: dict[tuple[int, int], str] = {}
        self._segment_lock = threading.Lock()
        self._worker_counters: dict[str, dict] = {}
        self._counter_lock = threading.Lock()
        self._late_results = 0
        self._closed = False

    # -- naming --------------------------------------------------------
    def _segment_name(self, generation: int, slot: int) -> str:
        prefix = self._server.config.execution.shm_prefix
        return f"{prefix}-{self._uid}-g{generation}-s{slot}"

    # -- lifecycle -----------------------------------------------------
    def replicas_per_shard(self) -> int:
        config = self._server.config
        return config.execution.processes_per_shard(config.n_replicas)

    def start(self, shards) -> None:
        from repro.serve.worker import worker_main

        per_shard = self.replicas_per_shard()
        # The coordinator's observability choice at start is what the
        # workers inherit — spawn'd children see none of our globals.
        obs = get_registry()
        obs_config = {"enabled": obs.enabled, "trace": obs.trace_enabled}
        try:
            self._slot_workers = [[] for _ in shards]
            self._rr = [itertools.count() for _ in shards]
            self.publish(0, shards)
            for slot in range(len(shards)):
                for replica in range(per_shard):
                    worker_id = f"{slot}-{replica}"
                    task_queue = self._ctx.Queue()
                    recv_conn, send_conn = self._ctx.Pipe(duplex=False)
                    p = self._ctx.Process(
                        target=worker_main,
                        args=(worker_id, slot, task_queue, send_conn,
                              obs_config),
                        name=f"serve-shard{slot}-p{replica}",
                        daemon=True,
                    )
                    p.start()
                    # Drop the parent's copy of the write end so the
                    # pipe hits EOF the moment the worker exits.
                    send_conn.close()
                    worker = {
                        "id": worker_id,
                        "slot": slot,
                        "queue": task_queue,
                        "process": p,
                        "conn": recv_conn,
                        "lock": threading.Lock(),
                        "outstanding": {},   # job_id -> _BatchJob
                        "dead": False,
                    }
                    worker["thread"] = threading.Thread(
                        target=self._collect_worker,
                        args=(worker,),
                        name=f"serve-collect-{worker_id}",
                        daemon=True,
                    )
                    worker["thread"].start()
                    self._slot_workers[slot].append(worker)
                    self._processes.append(p)
        except BaseException:
            self.close()
            raise

    def publish(self, generation: int, shards) -> None:
        handles, names = [], {}
        try:
            for slot, shard in enumerate(shards):
                name = self._segment_name(generation, slot)
                handle = shm_mod.create_segment(
                    name, shard.snapshot().to_payload()
                )
                handles.append(handle)
                names[(generation, slot)] = name
        except BaseException:
            for handle in handles:
                shm_mod.unlink_segment(handle)
            raise
        with self._segment_lock:
            self._segments[generation] = handles
            self._segment_names.update(names)

    def retire(self, generation: int) -> None:
        with self._segment_lock:
            handles = self._segments.pop(generation, [])
            for slot in range(len(handles)):
                self._segment_names.pop((generation, slot), None)
        for handle in handles:
            shm_mod.unlink_segment(handle)

    def submit(self, job, slot) -> None:
        if self._closed:
            return
        with self._segment_lock:
            name = self._segment_names.get((job.generation, slot))
        if name is None:
            # The generation retired: only a finished job's late hedge or
            # retry gets here, and the coordinator ignores it.  Anything
            # else fails through the retry path rather than vanishing
            # while the job counts as in flight.
            self._server._shard_failed(job, slot, WorkerError(
                f"generation {job.generation} retired before its shard "
                f"{slot} task was sent"
            ))
            return
        task = (job.job_id, job.generation, name, job.q, job.kind, job.args,
                job.request_ids)
        workers = self._slot_workers[slot]
        start = next(self._rr[slot])
        for i in range(len(workers)):
            worker = workers[(start + i) % len(workers)]
            if worker["dead"] or not worker["process"].is_alive():
                continue
            # Register before put: if the worker dies with this task
            # unread (or mid-compute), its collector fails it over.
            with worker["lock"]:
                worker["outstanding"][job.job_id] = job
            try:
                worker["queue"].put(task)
                return
            except (ValueError, OSError):  # pragma: no cover - queue closing
                with worker["lock"]:
                    worker["outstanding"].pop(job.job_id, None)
                continue
        self._server._shard_failed(
            job, slot, WorkerError(f"no live worker process for shard {slot}")
        )

    # -- result collection ---------------------------------------------
    def _collect_worker(self, worker: dict) -> None:
        """Drain one worker's result pipe; fail its tasks over on EOF."""
        server = self._server
        conn = worker["conn"]
        try:
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    return  # worker exited (or was killed) — pipe closed
                except Exception:  # pragma: no cover - truncated stream
                    return  # a kill mid-send leaves nothing to resync to
                kind, worker_id, job_id, slot, payload, counters, metrics = msg
                if counters is not None:
                    with self._counter_lock:
                        self._worker_counters[worker_id] = counters
                    server._ingest(counters, prefix=f"serve.worker.{worker_id}")
                if metrics is not None:
                    # Merge before completing the result it rode in on,
                    # so a resolved future implies merged metrics.
                    server._merge_worker_metrics(worker_id, metrics)
                if kind == "bye":
                    continue  # farewell; EOF follows
                with worker["lock"]:
                    worker["outstanding"].pop(job_id, None)
                job = server._job_for(job_id)
                if job is None:
                    with self._counter_lock:
                        self._late_results += 1
                    server._count("serve.worker.late", 1)
                    continue
                if kind == "result":
                    server._count("serve.worker.results", 1)
                    server._shard_completed(job, slot, payload)
                else:  # "error"
                    server._count("serve.worker.errors", 1)
                    server._shard_failed(job, slot, payload)
        finally:
            worker["dead"] = True
            with worker["lock"]:
                orphans = list(worker["outstanding"].values())
                worker["outstanding"].clear()
            if not self._closed:
                exc = WorkerError(
                    f"worker process {worker['id']} "
                    f"(pid {worker['process'].pid}) died"
                )
                for job in orphans:
                    with job.lock:
                        done = job.finished or job.shard_done[worker["slot"]]
                    if not done:
                        server._shard_failed(job, worker["slot"], exc)

    # -- introspection ---------------------------------------------------
    def describe(self) -> dict:
        with self._segment_lock:
            segments = sorted(self._segment_names.values())
        with self._counter_lock:
            counters = dict(self._worker_counters)
            late = self._late_results
        return {
            "backend": self.name,
            "n_worker_processes": len(self._processes),
            "pids": [p.pid for p in self._processes],
            "alive": sum(p.is_alive() for p in self._processes),
            "segments": segments,
            "late_results": late,
            "worker_counters": counters,
        }

    # -- shutdown --------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        execution = self._server.config.execution
        workers = [w for ws in self._slot_workers for w in ws]
        for worker in workers:
            try:
                worker["queue"].put(None)
            except (ValueError, OSError):  # pragma: no cover - closed queue
                pass
        self._reap(execution.join_timeout_s)
        # Worker exit closed each pipe's write end, so every collector
        # sees EOF; join them, then drop the read ends (closing a conn
        # a straggler thread still reads aborts its recv).
        for worker in workers:
            worker["thread"].join(timeout=execution.unlink_timeout_s)
        for worker in workers:
            try:
                worker["conn"].close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        with self._segment_lock:
            generations = list(self._segments)
        for generation in generations:
            self.retire(generation)
        for worker in workers:
            try:
                worker["queue"].cancel_join_thread()
                worker["queue"].close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def _reap(self, join_timeout_s: float) -> None:
        """Join every worker; escalate terminate -> kill on stragglers."""
        deadline = join_timeout_s
        for p in self._processes:
            p.join(timeout=deadline)
        for p in self._processes:
            if p.is_alive():
                p.terminate()
        for p in self._processes:
            if p.is_alive():
                p.join(timeout=1.0)
        for p in self._processes:
            if p.is_alive():  # pragma: no cover - terminate() sufficed so far
                p.kill()
                p.join(timeout=1.0)
