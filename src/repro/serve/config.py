"""Serving-layer knobs: batching, sharding, admission, degradation.

One frozen dataclass carries every parameter of a
:class:`~repro.serve.server.KnnServer`, grouped the way the request
path meets them: admission first, then batch formation, then the shard
pool, then the failure-handling and degradation policies.  See
``docs/serving.md`` for how the knobs interact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.kdtree.config import KdTreeConfig

#: Queue-fraction thresholds of the degradation ladder (levels 1..3).
DEFAULT_DEGRADE_THRESHOLDS = (0.5, 0.75, 0.9)

#: Shared-memory segment names must stay portable across platforms:
#: POSIX gives them one flat namespace, so keep them short and plain.
_SHM_PREFIX_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


@dataclass(frozen=True)
class ExecutionConfig:
    """How shard work is executed: the backend and its lifecycle knobs.

    Mirrors the ``engine=`` / ``builder=`` knob pattern: ``backend``
    names an entry in the execution-backend registry
    (:mod:`repro.serve.backends`), and every backend answers
    bit-identically — the choice is purely about *where* the engine
    kernels run.

    Parameters
    ----------
    backend:
        ``"thread"`` — shard replicas are threads in the server
        process; the engine's NumPy/BLAS kernels release the GIL for
        the heavy parts, but Python-level work stays on one core.
        ``"process"`` — shard replicas are worker processes attached to
        shared-memory snapshots of the shard trees (one physical tree
        copy per machine); batches cross a queue, answers come back
        over a result queue, and the canonical top-k merge stays in the
        coordinator.  Pick ``process`` for multi-core throughput on
        frames worth the ~seconds of worker start-up; pick ``thread``
        for tiny frames, single-core machines, or latency-floor
        sensitivity (see ``docs/serving.md``).
    processes:
        Worker processes *per shard* under the process backend (the
        process analogue of ``n_replicas``).  ``None`` inherits
        ``n_replicas``.
    shm_prefix:
        Prefix of the generation-stamped shared-memory segment names
        (``{prefix}-{uid}-g{generation}-s{shard}``).  Letters, digits,
        ``.``, ``_``, ``-`` only.
    join_timeout_s:
        How long shutdown waits for a worker process to exit after its
        sentinel before escalating to ``terminate()`` (and ``kill()``).
    unlink_timeout_s:
        How long shutdown waits for the result collector to drain
        worker farewells (final per-process counters) before segments
        are unlinked regardless.
    """

    backend: str = "thread"
    processes: int | None = None
    shm_prefix: str = "quicknn"
    join_timeout_s: float = 5.0
    unlink_timeout_s: float = 5.0

    def __post_init__(self):
        from repro.serve.backends import BACKENDS

        BACKENDS.check(self.backend)
        if self.processes is not None and self.processes < 1:
            raise ValueError("processes must be positive (or None)")
        if not _SHM_PREFIX_RE.match(self.shm_prefix):
            raise ValueError(
                "shm_prefix must be 1-64 characters of [A-Za-z0-9._-], "
                f"got {self.shm_prefix!r}"
            )
        if self.join_timeout_s <= 0:
            raise ValueError("join_timeout_s must be positive")
        if self.unlink_timeout_s <= 0:
            raise ValueError("unlink_timeout_s must be positive")

    def processes_per_shard(self, n_replicas: int) -> int:
        """Worker processes each shard gets (``None`` = ``n_replicas``)."""
        return self.processes if self.processes is not None else n_replicas


@dataclass(frozen=True)
class ServeConfig:
    """Parameters of a kNN serving instance.

    Parameters
    ----------
    n_shards:
        Number of point shards.  Every query fans out to all shards and
        the per-shard top-k lists are merged, so exact-mode answers are
        shard-count invariant.
    sharding:
        ``"round-robin"`` (interleaved point ids, balanced by
        construction) or ``"spatial"`` (recursive median cuts, keeps
        shards compact so their top-k lists prune well).
    n_replicas:
        Worker threads per shard.  Extra replicas drain the shard queue
        in parallel and give hedged re-submissions somewhere to run.
    max_batch_size:
        Query rows the micro-batcher coalesces into one engine call.
    max_delay_s:
        How long a non-full batch waits for company while a shard
        replica is idle: it ships once its oldest request has waited
        this long *and* a replica is free.  While every replica is
        busy, requests coalesce regardless, and the next batch ships
        when a job drains.  The default, 0.5 ms, is long enough for
        one client's back-to-back submits (tens of microseconds each)
        to share a batch and short next to an engine call.  ``0``
        ships a request that finds a replica free at once, so which
        requests of a burst share a batch then depends on when the
        dispatcher thread gets the GIL.
    max_queue:
        Admission bound, in queued query *rows*.  A submission that
        would exceed it is shed with :class:`~repro.serve.errors.Overloaded`.
    request_timeout_s:
        Per-request deadline measured from admission; a request still
        unanswered past it fails with
        :class:`~repro.serve.errors.RequestTimeout`.  ``None`` disables.
    hedge_delay_s:
        If a shard has not answered a batch after this long, the batch
        is re-enqueued on the same shard's queue for another replica to
        pick up (first answer wins).  ``None`` disables hedging.
    max_retries:
        How many times a failed shard computation is re-enqueued before
        the batch's requests fail with the underlying error.
    approx_budget:
        Extra bucket visits (beyond the home leaf) an approx-mode query
        may spend at load level 0 — the serving analogue of the BBF
        "checks" budget, served through the batched engine's
        ``max_visits``.  The degradation ladder tightens it under load.
    degrade_thresholds:
        Queue-fraction boundaries of degradation levels 1..3.  Below
        the first threshold the server runs at level 0 (full budgets);
        past the last it is one step from shedding.
    tree:
        Per-shard k-d tree build configuration (PR 4's vectorized
        direct-to-flat builder runs per shard).
    execution:
        Execution-backend selection and lifecycle knobs
        (:class:`ExecutionConfig`): thread replicas in-process, or
        worker processes over shared-memory snapshots.
    """

    n_shards: int = 1
    sharding: str = "round-robin"
    n_replicas: int = 1
    max_batch_size: int = 256
    max_delay_s: float = 0.0005
    max_queue: int = 4096
    request_timeout_s: float | None = 5.0
    hedge_delay_s: float | None = None
    max_retries: int = 1
    approx_budget: int = 4
    degrade_thresholds: tuple[float, float, float] = DEFAULT_DEGRADE_THRESHOLDS
    tree: KdTreeConfig = field(default_factory=KdTreeConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be positive")
        from repro.serve.sharding import STRATEGIES

        STRATEGIES.check(self.sharding)
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be positive")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if self.max_queue < 1:
            raise ValueError("max_queue must be positive")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive (or None)")
        if self.hedge_delay_s is not None and self.hedge_delay_s <= 0:
            raise ValueError("hedge_delay_s must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.approx_budget < 0:
            raise ValueError("approx_budget must be non-negative")
        if len(self.degrade_thresholds) != 3 or any(
            not (0.0 < t <= 1.0) for t in self.degrade_thresholds
        ) or list(self.degrade_thresholds) != sorted(self.degrade_thresholds):
            raise ValueError(
                "degrade_thresholds must be three ascending fractions in (0, 1]"
            )
