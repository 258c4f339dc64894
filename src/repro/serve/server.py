"""KnnServer: sharded, micro-batched kNN serving with graceful degradation.

The request path, in the order a query row experiences it — one path
for kNN and radius requests, whose differing steps are entries of the
request-kind table :data:`~repro.serve.kinds.KINDS`:

1. **Admission** — ``submit`` / ``submit_radius`` validate the rows
   (:func:`~repro.serve.kinds.as_queries`) and offer them to the
   bounded :class:`~repro.serve.batcher.MicroBatcher`; a full queue
   sheds the request synchronously with
   :class:`~repro.serve.errors.Overloaded` (a typed refusal, never a
   degraded-silently answer).
2. **Batch formation** — the dispatcher thread pulls a batch when it
   fills, or when its deadline lapses and a shard replica is idle;
   while every replica is busy, requests coalesce until a job drains
   and wakes the batcher.  It reads the queue fraction to pick the
   degradation level, drops already-expired requests, plans the rest,
   and groups them by ``(kind, engine args)`` so each group is one
   engine call.
3. **Fan-out** — each group becomes a job holding a snapshot of the
   current shard generation; one task per shard goes to the
   *execution backend* (:mod:`repro.serve.backends`): thread replicas
   computing in-process, or worker processes computing against
   shared-memory snapshots of the shard trees.  Either way the shard
   runs its kind's search through the batched kernels and translates
   local ids to global ids.
4. **Merge** — when the last shard answers, the coordinator merges the
   per-shard answers with the kind's canonical merge
   (:func:`~repro.serve.sharding.merge_topk` or
   :func:`~repro.serve.sharding.merge_radius`) and resolves every
   request's future with its slice of the result.  The merge always
   runs in the coordinator, so exact answers are bit-identical to the
   unsharded engine for any shard count **and either backend**.
5. **Failure handling** — a monitor thread enforces per-request
   deadlines (:class:`~repro.serve.errors.RequestTimeout`), re-submits
   slow shard tasks for hedging (first answer wins), and worker errors
   are retried ``max_retries`` times before the job's requests fail
   with the underlying error.

Degradation ladder for kNN requests (queue fraction against
``degrade_thresholds``; radius requests never degrade):

====== ======================== =====================================
level  approx requests          exact requests with ``allow_degraded``
====== ======================== =====================================
0      budget = ``approx_budget``  unbounded exact
1      budget halved               bounded: ``4 × approx_budget`` visits
2      budget quartered            bounded: ``approx_budget`` visits
3      budget 0 (home leaf only)   budget 0 (home leaf only)
====== ======================== =====================================

Exact requests *without* ``allow_degraded`` are never degraded — they
run the unbounded exact search at every level and rely on admission
control alone.  Every response reports the level and budget it was
served at, so a degraded answer is always labelled as one.

Warm handoff: :meth:`KnnServer.update_reference` rebuilds the shard
trees (PR 4's :func:`~repro.kdtree.flat_build.build_flat`, one build
per shard), *publishes* the new generation to the execution backend
(under the process backend: new generation-stamped shared-memory
segments), and swaps it in atomically.  In-flight jobs keep the
generation they captured at batch formation; a superseded generation's
execution resources are retired only when its last in-flight job
drains (deferred unlink), so no worker ever faces a segment that
vanished mid-query.  The constructor and ``update_reference`` check the
cloud first (:func:`~repro.serve.kinds.as_reference`): a non-finite
point is refused with ``ValueError``, and a refused handoff leaves the
current generation serving.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from repro.kdtree.flat_build import build_flat
from repro.kdtree.snapshot import Snapshot
from repro.obs import get_registry
from repro.serve.backends import make_backend
from repro.serve.batcher import MicroBatcher, ServeRequest
from repro.serve.config import ServeConfig
from repro.serve.errors import RequestTimeout, ServerClosed
from repro.serve.kinds import (
    KINDS,
    RadiusServeResponse,
    ServeResponse,
    as_queries,
    as_reference,
)
from repro.serve.sharding import ShardPlan, ShardState, make_plan

_SNAPSHOT_GLOB = "shard-*.npz"


class _BatchJob:
    """One engine call's worth of coalesced rows, fanned out to shards."""

    __slots__ = (
        "job_id", "requests", "request_ids", "q", "kind", "args", "shards",
        "generation", "degrade_level", "lock", "results", "shard_done",
        "hedged", "attempts", "n_done", "finished", "dispatched_at",
    )

    def __init__(self, job_id, requests, q, kind, args, shards, generation,
                 degrade_level, dispatched_at):
        self.job_id: int = job_id
        self.requests: list[ServeRequest] = requests
        self.request_ids: list[int] = [r.request_id for r in requests]
        self.q = q                       # (rows, 3) concatenated queries
        self.kind: str = kind            # a KINDS key
        self.args: tuple = args          # the kind's engine arguments
        self.shards: tuple[ShardState, ...] = shards
        self.generation = generation
        self.degrade_level = degrade_level
        self.lock = threading.Lock()
        n = len(shards)
        #: Per-shard result payload of the job's kind.
        self.results: list[tuple | None] = [None] * n
        self.shard_done = [False] * n
        self.hedged = [False] * n
        self.attempts = [0] * n
        self.n_done = 0
        self.finished = False
        self.dispatched_at = dispatched_at


def _try_set_result(future: Future, value) -> bool:
    try:
        future.set_result(value)
        return True
    except Exception:       # already resolved (timeout/shutdown won the race)
        return False


def _try_set_exception(future: Future, exc: BaseException) -> bool:
    try:
        future.set_exception(exc)
        return True
    except Exception:
        return False


class KnnServer:
    """Concurrent kNN service over any engine-backed reference cloud.

    Usage::

        with KnnServer(frame_xyz, ServeConfig(n_shards=4)) as server:
            fut = server.submit(rows, k=8)           # Future[ServeResponse]
            resp = server.query(rows, k=8)           # submit + wait

    All public methods are thread-safe.  See the module docstring for
    the request path and the degradation ladder, and
    :class:`~repro.serve.config.ExecutionConfig` for the thread/process
    execution choice.
    """

    def __init__(
        self,
        reference,
        config: ServeConfig | None = None,
        *,
        clock=time.monotonic,
    ):
        self.config = config or ServeConfig()
        self._clock = clock
        xyz = as_reference(reference)
        plan = make_plan(xyz, self.config.n_shards, self.config.sharding)
        shards = tuple(
            ShardState(tree=build_flat(xyz[ids], self.config.tree)[0],
                       global_ids=ids)
            for ids in plan.global_ids
        )
        self._boot(plan, shards)

    @classmethod
    def from_snapshots(cls, directory, config: ServeConfig | None = None,
                       *, clock=time.monotonic) -> "KnnServer":
        """Warm-start from :meth:`save_snapshots` files — no rebuild.

        ``config.n_shards`` must match the snapshot count (the default
        config is widened to the snapshot count automatically when left
        at 1).  Answers are bit-identical to the server that saved the
        snapshots: the flat trees round-trip exactly.
        """
        from dataclasses import replace

        paths = sorted(Path(directory).glob(_SNAPSHOT_GLOB))
        if not paths:
            raise FileNotFoundError(
                f"no {_SNAPSHOT_GLOB} snapshots under {directory}"
            )
        config = config or ServeConfig()
        if config.n_shards == 1 and len(paths) > 1:
            config = replace(config, n_shards=len(paths))
        if config.n_shards != len(paths):
            raise ValueError(
                f"config.n_shards={config.n_shards} but found "
                f"{len(paths)} snapshot shards under {directory}"
            )
        shards = tuple(
            ShardState.from_snapshot(Snapshot.load(path)) for path in paths
        )
        return cls.from_shards(shards, config, clock=clock)

    @classmethod
    def from_shards(cls, shards, config: ServeConfig | None = None,
                    *, clock=time.monotonic) -> "KnnServer":
        """Boot a server over prebuilt :class:`ShardState`s — no build.

        The session layer uses this to promote an incrementally-updated
        tree (or a restored spill snapshot) straight into a serving
        instance.  ``config.n_shards`` must match the shard count (the
        default config is widened automatically when left at 1).
        """
        from dataclasses import replace

        shards = tuple(shards)
        if not shards:
            raise ValueError("from_shards needs at least one shard")
        config = config or ServeConfig()
        if config.n_shards == 1 and len(shards) > 1:
            config = replace(config, n_shards=len(shards))
        if config.n_shards != len(shards):
            raise ValueError(
                f"config.n_shards={config.n_shards} but got "
                f"{len(shards)} prebuilt shards"
            )
        plan = ShardPlan(
            strategy=config.sharding,
            global_ids=tuple(s.global_ids for s in shards),
        )
        self = cls.__new__(cls)
        self.config = config
        self._clock = clock
        self._boot(plan, shards)
        return self

    def _boot(self, plan: ShardPlan, shards: tuple[ShardState, ...]) -> None:
        self._plan = plan
        self._shards = shards
        self._generation = 0
        self._swap_lock = threading.Lock()
        self._rebuild_lock = threading.Lock()
        self._obs_lock = threading.Lock()
        #: Set by ``close()``; also wakes the monitor out of its tick wait.
        self._closed = threading.Event()
        self._inflight: dict[int, _BatchJob] = {}
        self._inflight_lock = threading.Lock()
        self._gen_inflight: dict[int, int] = {}
        self._retired_gens: set[int] = set()
        self._job_ids = itertools.count()
        self._request_ids = itertools.count()
        self._started_at = self._clock()
        #: Always-on internal counters (shed/timeouts/retries/…) — the
        #: structured ``stats()`` surface must not depend on obs being on.
        self._stat_counters: dict[str, float] = {}
        self._backend = make_backend(self.config.execution.backend, self)
        # A replica is idle while fewer jobs are in flight than each
        # shard has replicas.  The predicate closes over the dict, not
        # ``self``: a bound method would tie server and batcher in a
        # reference cycle that only the cycle collector could free.
        inflight = self._inflight
        per_shard = self._backend.replicas_per_shard()
        self._batcher = MicroBatcher(
            max_batch_size=self.config.max_batch_size,
            max_delay_s=self.config.max_delay_s,
            max_queue=self.config.max_queue,
            clock=self._clock,
            idle=lambda: len(inflight) < per_shard,
        )
        self._backend.start(shards)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True,
        )
        self._dispatcher.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="serve-monitor", daemon=True,
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def generation(self) -> int:
        """Bumped by every warm handoff; reported on each response."""
        return self._generation

    def submit(self, queries, k: int, *, mode: str = "exact",
               allow_degraded: bool = False) -> Future:
        """Admit rows for service; returns a ``Future[ServeResponse]``.

        Raises ``ValueError`` for rows that are not a finite ``(m, 3)``
        array, :class:`~repro.serve.errors.Overloaded` synchronously if
        admission control sheds the request, and
        :class:`~repro.serve.errors.ServerClosed` after :meth:`close`.
        """
        if mode not in ("exact", "approx"):
            raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
        if k < 1:
            raise ValueError("k must be positive")
        return self._admit(ServeRequest(
            xyz=as_queries(queries), k=k, mode=mode,
            allow_degraded=allow_degraded,
        ))

    def query(self, queries, k: int, *, mode: str = "exact",
              allow_degraded: bool = False,
              timeout: float | None = None) -> ServeResponse:
        """Blocking :meth:`submit`: wait for and return the response."""
        return self.submit(
            queries, k, mode=mode, allow_degraded=allow_degraded
        ).result(timeout=timeout)

    def submit_radius(self, queries, radius: float, *,
                      max_neighbors: int) -> Future:
        """Admit a batched radius request; ``Future[RadiusServeResponse]``.

        ``max_neighbors`` is mandatory: a radius row's cost is
        unbounded without a cap, and admission control charges each row
        ``max_neighbors`` queue rows so overload pressure tracks the
        worst-case answer size.  Radius requests never degrade — the
        response is always the exact capped answer or a typed refusal.
        """
        radius = float(radius)
        if not radius >= 0.0:
            raise ValueError("radius must be non-negative")
        if max_neighbors < 1:
            raise ValueError(
                "max_neighbors must be a positive row cap (radius "
                "requests are admitted by their worst-case answer size)"
            )
        return self._admit(ServeRequest(
            xyz=as_queries(queries), k=max_neighbors, mode="exact",
            allow_degraded=False, kind="radius", radius=radius,
        ))

    def query_radius(self, queries, radius: float, *, max_neighbors: int,
                     timeout: float | None = None) -> RadiusServeResponse:
        """Blocking :meth:`submit_radius`: wait for and return the response."""
        return self.submit_radius(
            queries, radius, max_neighbors=max_neighbors
        ).result(timeout=timeout)

    def _admit(self, request: ServeRequest) -> Future:
        """Offer a validated request to the batcher, or shed it."""
        request.request_id = next(self._request_ids)
        if self.config.request_timeout_s is not None:
            request.deadline = self._clock() + self.config.request_timeout_s
        try:
            with get_registry().phase(
                "serve.admit",
                args={"request_id": request.request_id,
                      "rows": request.n_rows},
            ):
                self._batcher.submit(request)
        except Exception:
            self._count("serve.shed", 1)
            raise
        for name in KINDS[request.kind].counters:
            self._count(name, 1)
        self._count("serve.rows", request.n_rows)
        return request.future

    def update_reference(self, points) -> dict:
        """Warm handoff: rebuild every shard from ``points``, swap atomically.

        Queries keep being served against the old shard generation
        during the rebuild; the new generation is *published* to the
        execution backend first (under the process backend: fresh
        generation-stamped shared-memory segments), then the swap is
        one tuple assignment.  In-flight jobs finish on the generation
        they captured; the old generation's execution resources are
        retired once its last in-flight job drains.  Returns a summary
        (new generation, shard sizes, rebuild wall time).
        """
        xyz = as_reference(points)
        started = self._clock()
        plan = make_plan(xyz, self.config.n_shards, self.config.sharding)
        obs = get_registry()
        with self._rebuild_lock:
            with self._obs_lock, obs.timer("serve.rebuild"):
                shards = tuple(
                    ShardState(tree=build_flat(xyz[ids], self.config.tree)[0],
                               global_ids=ids)
                    for ids in plan.global_ids
                )
            next_generation = self._swap_in(plan, shards)
        self._maybe_retire(next_generation - 1)
        self._count("serve.rebuilds", 1)
        return {
            "generation": next_generation,
            "n_points": int(xyz.shape[0]),
            "shard_sizes": [int(ids.size) for ids in plan.global_ids],
            "rebuild_s": self._clock() - started,
        }

    def update_reference_shards(self, shards) -> dict:
        """Warm handoff to *prebuilt* shard states — no tree build.

        The generation-stamped swap machinery of :meth:`update_reference`
        without its rebuild: the caller supplies ready
        :class:`ShardState`s (the session layer's incremental
        ``update_tree`` fast path produces them), they are published to
        the execution backend, swapped in atomically, and the superseded
        generation retires when its last in-flight job drains.
        """
        shards = tuple(shards)
        if len(shards) != self.config.n_shards:
            raise ValueError(
                f"config.n_shards={self.config.n_shards} but got "
                f"{len(shards)} prebuilt shards"
            )
        started = self._clock()
        plan = ShardPlan(
            strategy=self.config.sharding,
            global_ids=tuple(s.global_ids for s in shards),
        )
        with self._rebuild_lock:
            next_generation = self._swap_in(plan, shards)
        self._maybe_retire(next_generation - 1)
        self._count("serve.handoffs", 1)
        return {
            "generation": next_generation,
            "n_points": plan.n_points,
            "shard_sizes": [int(ids.size) for ids in plan.global_ids],
            "handoff_s": self._clock() - started,
        }

    def _swap_in(self, plan: ShardPlan, shards: tuple[ShardState, ...]) -> int:
        """Publish-then-swap under ``_rebuild_lock`` (held by caller)."""
        with self._swap_lock:
            next_generation = self._generation + 1
        self._backend.publish(next_generation, shards)
        with self._swap_lock:
            self._plan = plan
            self._shards = shards
            self._generation = next_generation
        return next_generation

    def update_reference_async(self, points) -> Future:
        """Run :meth:`update_reference` on a background thread."""
        future: Future = Future()

        def _run():
            try:
                future.set_result(self.update_reference(points))
            except BaseException as exc:  # surfaced via the future
                future.set_exception(exc)

        threading.Thread(target=_run, name="serve-rebuild", daemon=True).start()
        return future

    def save_snapshots(self, directory) -> list[Path]:
        """Persist every shard tree (plus its global-id map) under ``directory``.

        One ``shard-NNN.npz`` per shard in the
        :class:`~repro.kdtree.snapshot.Snapshot` format with the id
        translation as an extra array; :meth:`from_snapshots` restores
        a server answering bit-identically.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._swap_lock:
            shards = self._shards
        paths = []
        for slot, shard in enumerate(shards):
            path = directory / f"shard-{slot:03d}.npz"
            shard.snapshot().save(path)
            paths.append(path)
        return paths

    def stats(self) -> dict:
        """Structured operational snapshot.

        Always available — the lifetime ``counters`` (requests, rows,
        completions, sheds, timeouts, retries, hedges, errors …) are
        maintained by the server itself, independent of whether the
        observability registry is enabled.  ``execution`` is the
        backend's own :meth:`~repro.serve.backends.ExecutionBackend.
        describe` snapshot (under the process backend it includes
        worker pids, liveness, and per-worker cumulative counters).
        """
        with self._swap_lock:
            plan = self._plan
            generation = self._generation
        with self._inflight_lock:
            inflight = len(self._inflight)
        with self._obs_lock:
            counters = dict(self._stat_counters)
        execution = self._backend.describe()
        return {
            "plan": plan.describe(),
            "generation": generation,
            "queue_rows": self._batcher.depth(),
            "queue_fill": self._batcher.fill_fraction(),
            "inflight_jobs": inflight,
            "degrade_level": self._degrade_level(self._batcher.fill_fraction()),
            "execution": execution,
            "n_worker_threads": execution.get("n_worker_threads", 0),
            "counters": counters,
            "uptime_s": self._clock() - self._started_at,
            "closed": self._closed.is_set(),
        }

    def close(self) -> None:
        """Stop serving: shed the queue, fail in-flight work, stop workers.

        Reliable under either backend: worker processes are reaped
        (join → terminate → kill) and every shared-memory segment is
        unlinked.  Idempotent.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        for request in self._batcher.close():
            _try_set_exception(request.future, ServerClosed())
        with self._inflight_lock:
            jobs = list(self._inflight.values())
            self._inflight.clear()
            self._gen_inflight.clear()
        for job in jobs:
            with job.lock:
                job.finished = True
                requests = list(job.requests)
            for request in requests:
                _try_set_exception(request.future, ServerClosed())
        self._backend.close()
        self._dispatcher.join(timeout=5.0)
        self._monitor.join(timeout=5.0)

    def __enter__(self) -> "KnnServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Degradation policy
    # ------------------------------------------------------------------
    def _degrade_level(self, fill: float) -> int:
        t1, t2, t3 = self.config.degrade_thresholds
        if fill >= t3:
            return 3
        if fill >= t2:
            return 2
        if fill >= t1:
            return 1
        return 0

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch = self._batcher.next_batch(timeout=0.1)
            if batch is None:
                if self._closed.is_set():
                    return
                continue
            if self._closed.is_set():
                for request in batch:
                    _try_set_exception(request.future, ServerClosed())
                return
            try:
                self._dispatch_batch(batch)
            except Exception as exc:  # defensive: never kill the dispatcher
                for request in batch:
                    _try_set_exception(request.future, exc)
                self._count("serve.errors", len(batch))

    def _dispatch_batch(self, batch: list[ServeRequest]) -> None:
        now = self._clock()
        # Pressure at batch formation: the popped rows still count —
        # measuring after the pop would let one large batch drain the
        # signal and mask the very overload it represents.
        batch_rows = sum(r.n_rows for r in batch)
        fill = (batch_rows + self._batcher.depth()) / self.config.max_queue
        level = self._degrade_level(fill)
        obs = get_registry()
        self._count("serve.batches", 1)
        if obs.enabled:
            with self._obs_lock:
                obs.gauge("serve.queue_depth").set(self._batcher.depth())
                obs.gauge("serve.degrade_level").set(level)
                obs.distribution("serve.batch_fill").observe(batch_rows)

        groups: dict[tuple, list[ServeRequest]] = {}
        for request in batch:
            if request.deadline is not None and now >= request.deadline:
                waited = now - request.arrival
                if _try_set_exception(
                    request.future,
                    RequestTimeout(waited, self.config.request_timeout_s),
                ):
                    self._count("serve.timeouts", 1)
                continue
            args, request.served = KINDS[request.kind].plan(
                request, level, self.config.approx_budget
            )
            groups.setdefault((request.kind, args), []).append(request)

        # Every job of the batch is registered before the swap lock drops.
        # A warm handoff retires a generation once none of its jobs is
        # in flight, so it must not slip in between this read and the
        # registration, nor retire the generation when an earlier group
        # of the batch drains before a later one is registered: a job of
        # a retired generation would never run, and the idle signal
        # would count it in flight for good.
        with self._swap_lock:
            shards = self._shards
            generation = self._generation
            jobs = [
                _BatchJob(
                    job_id=next(self._job_ids),
                    requests=requests,
                    q=np.concatenate([r.xyz for r in requests], axis=0),
                    kind=kind,
                    args=args,
                    shards=shards,
                    generation=generation,
                    degrade_level=level,
                    dispatched_at=now,
                )
                for (kind, args), requests in groups.items()
            ]
            with self._inflight_lock:
                for job in jobs:
                    self._inflight[job.job_id] = job
                    self._gen_inflight[generation] = (
                        self._gen_inflight.get(generation, 0) + 1
                    )
        for job in jobs:
            with obs.phase(
                "serve.dispatch",
                args={"job_id": job.job_id,
                      "request_ids": job.request_ids,
                      "rows": int(job.q.shape[0])},
            ):
                for slot in range(len(shards)):
                    self._backend.submit(job, slot)

    # ------------------------------------------------------------------
    # Shard completion (called by the execution backend)
    # ------------------------------------------------------------------
    def _job_for(self, job_id: int) -> _BatchJob | None:
        """In-flight job by id, or ``None`` for a late/duplicate result."""
        with self._inflight_lock:
            return self._inflight.get(job_id)

    def _shard_completed(
        self, job: _BatchJob, slot: int, payload: tuple,
    ) -> None:
        """A shard's local result arrived; merge when it was the last.

        ``payload`` is what the job kind's ``search`` returned.
        """
        last = False
        with job.lock:
            if not job.finished and not job.shard_done[slot]:
                job.shard_done[slot] = True
                job.results[slot] = payload
                job.n_done += 1
                last = job.n_done == len(job.shards)
        if last:
            self._finish_job(job)

    def _shard_failed(self, job: _BatchJob, slot: int, exc: Exception) -> None:
        """A shard computation failed; retry or fail the whole job."""
        with job.lock:
            if job.finished or job.shard_done[slot]:
                return
            job.attempts[slot] += 1
            retry = job.attempts[slot] <= self.config.max_retries
            if not retry:
                job.finished = True
        if retry:
            self._count("serve.retries", 1)
            self._backend.submit(job, slot)
            return
        self._drop_inflight(job)
        for request in job.requests:
            _try_set_exception(request.future, exc)
        self._count("serve.errors", len(job.requests))

    def _finish_job(self, job: _BatchJob) -> None:
        """Merge the per-shard parts and resolve each request's slice."""
        with job.lock:
            if job.finished:
                return
            job.finished = True
        self._drop_inflight(job)
        kind = KINDS[job.kind]
        obs = get_registry()
        with obs.phase(
            "serve.merge",
            args={"job_id": job.job_id, "request_ids": job.request_ids},
        ):
            merged = kind.merge(job.results, int(job.q.shape[0]), job.args)
        now = self._clock()
        row = 0
        for request in job.requests:
            response = kind.respond(
                merged, job, request, row, row + request.n_rows, now
            )
            row += request.n_rows
            if _try_set_result(request.future, response):
                self._count("serve.completed", 1)
                if response.served == "degraded":
                    self._count("serve.degraded", 1)
                if obs.enabled:
                    with self._obs_lock:
                        obs.histogram("serve.latency_ms").observe(
                            response.latency_s * 1e3
                        )

    def _drop_inflight(self, job: _BatchJob) -> None:
        with self._inflight_lock:
            if self._inflight.pop(job.job_id, None) is None:
                return  # close() already swept it
            remaining = self._gen_inflight.get(job.generation, 0) - 1
            if remaining <= 0:
                self._gen_inflight.pop(job.generation, None)
            else:
                self._gen_inflight[job.generation] = remaining
        self._batcher.wake()    # a replica freed: coalesced rows may ship
        self._maybe_retire(job.generation)

    def _maybe_retire(self, generation: int) -> None:
        """Deferred retirement: a superseded generation with no in-flight
        jobs releases its execution resources (process backend: its
        shared-memory segments are unlinked)."""
        with self._swap_lock:
            if generation >= self._generation:
                return
        with self._inflight_lock:
            if self._gen_inflight.get(generation, 0) > 0:
                return
            if generation in self._retired_gens:
                return
            self._retired_gens.add(generation)
        self._backend.retire(generation)

    # ------------------------------------------------------------------
    # Monitor: timeouts and hedging
    # ------------------------------------------------------------------
    def _monitor_tick(self) -> None:
        now = self._clock()
        for request in self._batcher.expire(now):
            if _try_set_exception(
                request.future,
                RequestTimeout(now - request.arrival, self.config.request_timeout_s),
            ):
                self._count("serve.timeouts", 1)
        with self._inflight_lock:
            jobs = list(self._inflight.values())
        for job in jobs:
            for request in job.requests:
                if (
                    request.deadline is not None
                    and now >= request.deadline
                    and not request.future.done()
                ):
                    if _try_set_exception(
                        request.future,
                        RequestTimeout(
                            now - request.arrival, self.config.request_timeout_s
                        ),
                    ):
                        self._count("serve.timeouts", 1)
            hedge_after = self.config.hedge_delay_s
            if hedge_after is None:
                continue
            if now - job.dispatched_at < hedge_after:
                continue
            for slot in range(len(job.shards)):
                fire = False
                with job.lock:
                    if (
                        not job.finished
                        and not job.shard_done[slot]
                        and not job.hedged[slot]
                    ):
                        job.hedged[slot] = True
                        fire = True
                if fire:
                    self._count("serve.hedges", 1)
                    self._backend.submit(job, slot)

    def _monitor_loop(self) -> None:
        horizons = [
            h for h in (self.config.hedge_delay_s, self.config.request_timeout_s)
            if h is not None
        ]
        tick = min(min(horizons) / 4 if horizons else 0.05, 0.05)
        tick = max(tick, 0.001)
        while not self._closed.wait(tick):
            try:
                self._monitor_tick()
            except Exception:  # pragma: no cover - defensive
                pass

    # ------------------------------------------------------------------
    def _count(self, name: str, n: int) -> None:
        obs = get_registry()
        with self._obs_lock:
            self._stat_counters[name] = self._stat_counters.get(name, 0) + n
            if obs.enabled:
                obs.counter(name).inc(n)

    def _ingest(self, mapping: dict, prefix: str) -> None:
        """Record a worker's cumulative counters as ``prefix.*`` gauges."""
        obs = get_registry()
        if obs.enabled:
            with self._obs_lock:
                obs.ingest(mapping, prefix=prefix)

    def _merge_worker_metrics(self, worker_id: str, payload: dict) -> None:
        """Fold one worker's ``flush_delta`` payload into the registry.

        Called by the process backend's collector threads *before* the
        result that carried the payload is completed, so by the time a
        request's future resolves the worker-side metrics behind it are
        already merged.  Each delta lands twice: once on the
        machine-wide names (``engine.*`` totals become backend-agnostic
        truth) and once under ``worker.<id>.*`` for the per-worker
        breakdown.  ``merge_from`` is not internally synchronized, so
        both passes run under the server's obs lock.
        """
        obs = get_registry()
        if not obs.enabled:
            return
        with self._obs_lock:
            obs.merge_from(payload)
            obs.merge_from(payload, prefix=f"worker.{worker_id}")
