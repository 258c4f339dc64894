"""Per-tenant streaming sessions: the multi-drive ICP fleet layer.

QuickNN's motivating workload is ICP registration over *streaming*
LiDAR frames — one drive, one evolving reference index, incremental
updates instead of rebuilds (Section 4.4 of the paper).  The serving
analogue of "millions of users" is millions of concurrent drives, far
more than fit in RAM.  :class:`SessionManager` hosts that fleet on a
bounded budget:

* **Create** — a tenant's first frame builds its tree once
  (:func:`~repro.kdtree.build.build_tree`, the *only* full build the
  session ever performs) and boots an unsharded
  :class:`~repro.serve.server.KnnServer` over it via
  :meth:`~repro.serve.server.KnnServer.from_shards`.
* **Incremental update** — each subsequent frame is (optionally)
  ICP-registered against the session's current reference through a
  no-rebuild frozen index, then folded in with
  :func:`repro.kdtree.incremental.update_tree` — the merge/split fast
  path — and swapped into the session's server through the
  generation-stamped warm handoff
  (:meth:`~repro.serve.server.KnnServer.update_reference_shards`).
  ``build.incremental.*`` counters prove no rebuild happened.
* **Spill / restore** — idle sessions are evicted: the session's flat
  tree alone is written as one :class:`~repro.kdtree.snapshot.Snapshot`;
  the next frame or query loads those arrays verbatim, rebuilds the
  node view over them with
  :meth:`KdTree.from_flat <repro.kdtree.node.KdTree.from_flat>` (what
  later incremental updates read), and boots the server as a create
  does, so a restored session answers bit-identically to one that was
  never evicted.
* **Evict** — residency is bounded by session count and optionally by
  bytes; victims are chosen by a registered eviction policy (``"lru"``
  or ``"cost-aware"``), never a session with in-flight rows.

Admission is **per-tenant fair**: the manager accounts outstanding
query rows globally and per tenant, and a tenant is shed
(:class:`~repro.serve.errors.Overloaded`) once it holds its quota
(``tenant_share`` of the global budget) even when the machine has
capacity left.  Each session's server also runs its own PR 5
degradation ladder over a quota-sized queue, so a hot tenant's requests
*degrade* (tightened engine budgets) and then shed before it can starve
anyone else — observable through ``serve.tenant.*`` metrics, which flow
through the PR 7 cross-process aggregation like every other counter.
"""

from __future__ import annotations

import re
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.icp.icp import IcpConfig, icp_register
from repro.kdtree.build import build_tree
from repro.kdtree.incremental import update_tree
from repro.kdtree.node import KdTree
from repro.kdtree.snapshot import FLAT_FIELDS, Snapshot
from repro.eviction import EVICTION
from repro.obs import get_registry
from repro.serve.config import ServeConfig
from repro.serve.errors import Overloaded
from repro.serve.kinds import ServeResponse, as_queries, as_reference
from repro.serve.server import KnnServer
from repro.serve.sharding import ShardState

#: Tenant ids become metric names and spill file names, so keep them in
#: the same safe alphabet as shared-memory prefixes.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: The shared eviction-policy registry (``"lru"`` / ``"cost-aware"``),
#: re-exported from :mod:`repro.eviction` where the blocked index also
#: resolves it.  Policies key off ``Session.last_active`` and
#: ``Session.nbytes``; victims are evicted in ascending key order.


@dataclass(frozen=True)
class SessionConfig:
    """Knobs of a :class:`SessionManager`.

    Parameters
    ----------
    serve:
        Per-session :class:`~repro.serve.config.ServeConfig` template.
        Sessions are unsharded (``n_shards`` must stay 1 — each tenant
        already is a shard of the fleet); the template's ``max_queue``
        is overridden with the tenant quota so each session's
        degradation ladder fills exactly when the tenant approaches its
        fair share.
    max_resident:
        Resident-session bound; beyond it, idle sessions spill to disk.
    max_resident_bytes:
        Optional byte bound over resident flat trees (cost-aware cap on
        top of the count cap).
    idle_evict_s:
        Sessions idle longer than this are evicted by :meth:`sweep`.
        ``None`` disables idle eviction.
    spill_dir:
        Where spill snapshots live.  ``None`` creates a managed
        temporary directory (cleaned up on :meth:`SessionManager.close`).
    eviction:
        Victim-selection policy, from the :data:`EVICTION` registry.
    max_outstanding_rows:
        Global in-flight query-row budget across all tenants.
    tenant_share:
        Fraction of the global budget one tenant may hold (its quota).
        The fairness invariant: a tenant at quota is shed while the
        others' full quotas remain available.
    register_frames:
        If true, each ``observe_frame`` ICP-registers the new frame
        onto the session's current reference before the incremental
        update — the paper's streaming pipeline.  Registration runs
        against the session's *existing* tree through a frozen index,
        so it never triggers a rebuild.
    icp:
        ICP parameters when ``register_frames`` is set.
    lower_bound / upper_bound:
        Bucket-occupancy bounds for the incremental update; ``None``
        uses the defaults derived from ``serve.tree.bucket_capacity``.
    """

    serve: ServeConfig = field(default_factory=ServeConfig)
    max_resident: int = 8
    max_resident_bytes: int | None = None
    idle_evict_s: float | None = None
    spill_dir: str | Path | None = None
    eviction: str = "lru"
    max_outstanding_rows: int = 4096
    tenant_share: float = 0.5
    register_frames: bool = False
    icp: IcpConfig | None = None
    lower_bound: int | None = None
    upper_bound: int | None = None

    def __post_init__(self):
        if self.serve.n_shards != 1:
            raise ValueError(
                "sessions are unsharded: SessionConfig.serve.n_shards must "
                f"be 1, got {self.serve.n_shards}"
            )
        if self.max_resident < 1:
            raise ValueError("max_resident must be positive")
        if self.max_resident_bytes is not None and self.max_resident_bytes < 1:
            raise ValueError("max_resident_bytes must be positive (or None)")
        if self.idle_evict_s is not None and self.idle_evict_s <= 0:
            raise ValueError("idle_evict_s must be positive (or None)")
        EVICTION.check(self.eviction)
        if self.max_outstanding_rows < 1:
            raise ValueError("max_outstanding_rows must be positive")
        if not (0.0 < self.tenant_share <= 1.0):
            raise ValueError("tenant_share must be in (0, 1]")

    @property
    def quota_rows(self) -> int:
        """Outstanding-row quota of a single tenant."""
        return max(1, int(self.max_outstanding_rows * self.tenant_share))


class _FrozenIndex:
    """A :class:`~repro.index.NeighborIndex` over an existing flat tree
    whose ``build`` is a no-op.

    ``icp_register`` rebinds a prebuilt index to the target cloud with
    ``build(target)``; for a session the target *is* the tree we
    already hold, so rebinding must not rebuild — that would break the
    fleet's zero-full-rebuild guarantee.  ``build`` asserts it is
    handed the same cloud and returns ``self``.
    """

    name = "session-frozen"

    def __init__(self, flat, n_reference: int):
        self._flat = flat
        self._n_reference = n_reference

    def build(self, reference) -> "_FrozenIndex":
        return self

    def query(self, queries, k: int):
        from repro.kdtree.engine import knn_approx_batched

        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return knn_approx_batched(self._flat, q, k)

    def stats(self) -> dict:
        return {"backend": self.name, "n_reference": self._n_reference}


@dataclass
class Session:
    """One tenant's lifecycle state (internal to the manager)."""

    tenant: str
    state: str                      # "resident" | "spilled"
    tree: KdTree | None
    server: KnnServer | None
    created_at: float
    last_active: float
    n_frames: int = 1
    outstanding_rows: int = 0
    nbytes: int = 0

    @property
    def resident(self) -> bool:
        return self.state == "resident"


def _flat_nbytes(flat) -> int:
    return int(sum(getattr(flat, name).nbytes for name in FLAT_FIELDS))


def _shard_for(tree: KdTree) -> ShardState:
    """The session's single shard: its flat tree with identity ids."""
    flat = tree.flat()
    return ShardState(
        tree=flat,
        global_ids=np.arange(flat.points.shape[0], dtype=np.int64),
    )


class SessionManager:
    """Bounded-memory host for per-tenant streaming kNN sessions.

    Thread-safe: all lifecycle transitions run under one re-entrant
    lock — coarse-grained on purpose (session churn is rare next to
    query work, and queries only touch the lock for row accounting; the
    engine work inside each session's server runs outside it).

    Usage::

        with SessionManager(SessionConfig(max_resident=16)) as fleet:
            fleet.observe_frame("drive-0", frame0_xyz)   # create
            fleet.observe_frame("drive-0", frame1_xyz)   # incremental
            resp = fleet.query("drive-0", rows, k=8)
    """

    def __init__(self, config: SessionConfig | None = None, *,
                 clock=time.monotonic):
        self.config = config or SessionConfig()
        self._clock = clock
        self._lock = threading.RLock()
        self._sessions: dict[str, Session] = {}
        self._outstanding_rows = 0
        self._closed = False
        self._stat_counters: dict[str, float] = {}
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if self.config.spill_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="quicknn-spill-")
            self._spill_dir = Path(self._tmpdir.name)
        else:
            self._spill_dir = Path(self.config.spill_dir)
            self._spill_dir.mkdir(parents=True, exist_ok=True)
        self._session_serve = replace(
            self.config.serve, max_queue=self.config.quota_rows
        )

    # ------------------------------------------------------------------
    # Frame path: create / incremental update / warm handoff
    # ------------------------------------------------------------------
    def observe_frame(self, tenant: str, points) -> dict:
        """Fold one frame into ``tenant``'s session (creating it).

        The first frame builds the tree (the session's only full
        build); every later frame runs the incremental ``update_tree``
        fast path and warm-hands the result into the session's server.
        Returns a summary: whether the session was created or restored,
        the new generation, and the incremental-update trace.
        """
        xyz = as_reference(points)
        with self._lock:
            self._check_open()
            now = self._clock()
            if tenant not in self._sessions:
                session = self._create(tenant, xyz, now)
                self._enforce_residency(now, keep=tenant)
                return {
                    "tenant": tenant, "created": True, "restored": False,
                    "generation": 0, "n_points": int(xyz.shape[0]),
                    "update": None, "icp": None,
                }
            session, restored = self._resident(tenant, now)
            icp_summary = None
            if self.config.register_frames:
                xyz, icp_summary = self._register(session, xyz)
            new_tree, trace = update_tree(
                session.tree, xyz, self.config.serve.tree,
                lower_bound=self.config.lower_bound,
                upper_bound=self.config.upper_bound,
            )
            shard = _shard_for(new_tree)
            handoff = session.server.update_reference_shards((shard,))
            session.tree = new_tree
            session.nbytes = _flat_nbytes(shard.tree)
            session.n_frames += 1
            session.last_active = self._clock()
            self._count(f"serve.tenant.{tenant}.frames", 1)
            self._enforce_residency(session.last_active, keep=tenant)
            return {
                "tenant": tenant, "created": False, "restored": restored,
                "generation": handoff["generation"],
                "n_points": int(xyz.shape[0]),
                "update": trace.as_dict(), "icp": icp_summary,
            }

    def _create(self, tenant: str, xyz: np.ndarray, now: float) -> Session:
        if not _TENANT_RE.match(tenant):
            raise ValueError(
                "tenant ids must be 1-64 characters of [A-Za-z0-9._-] "
                f"starting alphanumeric, got {tenant!r}"
            )
        tree, _ = build_tree(xyz, self.config.serve.tree)
        server, nbytes = self._boot(tree)
        session = Session(
            tenant=tenant, state="resident", tree=tree, server=server,
            created_at=now, last_active=now, nbytes=nbytes,
        )
        self._sessions[tenant] = session
        self._count("serve.sessions.created", 1)
        self._gauge_resident()
        return session

    def _boot(self, tree: KdTree) -> tuple[KnnServer, int]:
        """An unsharded server over ``tree``, and its flat tree's bytes."""
        shard = _shard_for(tree)
        server = KnnServer.from_shards(
            (shard,), self._session_serve, clock=self._clock
        )
        return server, _flat_nbytes(shard.tree)

    def _register(
        self, session: Session, xyz: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        """ICP-register ``xyz`` onto the session's current reference."""
        flat = session.tree.flat()
        frozen = _FrozenIndex(flat, session.tree.n_points)
        icp_cfg = self.config.icp or IcpConfig()
        result = icp_register(xyz, session.tree.points,
                              replace(icp_cfg, knn=frozen))
        registered = result.transform.apply(xyz)
        return registered, {
            "iterations": result.iterations,
            "converged": result.converged,
            "rms_error": result.rms_error,
        }

    # ------------------------------------------------------------------
    # Query path: per-tenant fair admission
    # ------------------------------------------------------------------
    def submit(self, tenant: str, queries, k: int, *, mode: str = "exact",
               allow_degraded: bool = False):
        """Admit rows for ``tenant``; returns a ``Future[ServeResponse]``.

        Sheds with :class:`~repro.serve.errors.Overloaded` when the
        *global* outstanding-row budget is exhausted, when ``tenant``
        is at its quota (fair-share shed — other tenants are
        unaffected), or when the session's own queue is full.
        """
        q = as_queries(queries)
        rows = int(q.shape[0])
        quota = self.config.quota_rows
        with self._lock:
            self._check_open()
            if tenant not in self._sessions:
                raise KeyError(f"unknown tenant {tenant!r}; observe a frame first")
            now = self._clock()
            self._count(f"serve.tenant.{tenant}.requests", 1)
            self._count(f"serve.tenant.{tenant}.rows", rows)
            session = self._sessions[tenant]
            if self._outstanding_rows + rows > self.config.max_outstanding_rows:
                self._count(f"serve.tenant.{tenant}.shed", 1)
                raise Overloaded(self._outstanding_rows,
                                 self.config.max_outstanding_rows)
            if session.outstanding_rows + rows > quota:
                self._count(f"serve.tenant.{tenant}.shed", 1)
                raise Overloaded(session.outstanding_rows, quota)
            session, _ = self._resident(tenant, now)
            try:
                future = session.server.submit(
                    q, k, mode=mode, allow_degraded=allow_degraded
                )
            except Overloaded:
                self._count(f"serve.tenant.{tenant}.shed", 1)
                raise
            session.outstanding_rows += rows
            self._outstanding_rows += rows
            session.last_active = now
        future.add_done_callback(
            lambda fut: self._settle(tenant, rows, fut)
        )
        return future

    def query(self, tenant: str, queries, k: int, *, mode: str = "exact",
              allow_degraded: bool = False,
              timeout: float | None = None) -> ServeResponse:
        """Blocking :meth:`submit`."""
        return self.submit(
            tenant, queries, k, mode=mode, allow_degraded=allow_degraded
        ).result(timeout=timeout)

    def _settle(self, tenant: str, rows: int, future) -> None:
        """Release row accounting and classify the outcome."""
        with self._lock:
            self._outstanding_rows = max(0, self._outstanding_rows - rows)
            session = self._sessions.get(tenant)
            if session is not None:
                session.outstanding_rows = max(
                    0, session.outstanding_rows - rows
                )
            exc = future.exception()
            if exc is None:
                self._count(f"serve.tenant.{tenant}.completed", 1)
                if future.result().degraded:
                    self._count(f"serve.tenant.{tenant}.degraded", 1)
            else:
                from repro.serve.errors import RequestTimeout

                kind = ("timeouts" if isinstance(exc, RequestTimeout)
                        else "errors")
                self._count(f"serve.tenant.{tenant}.{kind}", 1)

    # ------------------------------------------------------------------
    # Residency: spill / restore / evict
    # ------------------------------------------------------------------
    def _resident(self, tenant: str, now: float) -> tuple[Session, bool]:
        """The tenant's session, restored from spill if needed."""
        session = self._sessions[tenant]
        if session.resident:
            return session, False
        # The node view sits over the spilled arrays verbatim, so the
        # restored shard is byte-for-byte the one that was spilled and
        # answers match a never-evicted twin exactly.
        snap = Snapshot.load(self._spill_path(tenant))
        session.tree = KdTree.from_flat(snap.to_flat())
        session.server, session.nbytes = self._boot(session.tree)
        session.state = "resident"
        session.last_active = now
        self._count("serve.sessions.restored", 1)
        self._gauge_resident()
        self._enforce_residency(now, keep=tenant)
        return session, True

    def _spill(self, session: Session) -> None:
        # Uncompressed: a spill is read back by the next restore, where
        # inflating it would cost several times the ~30% it saves on disk.
        Snapshot.from_flat(session.tree.flat()).save(
            self._spill_path(session.tenant), compressed=False
        )
        session.server.close()
        session.server = None
        session.tree = None
        session.state = "spilled"
        session.nbytes = 0
        self._count("serve.sessions.spilled", 1)
        self._count("serve.sessions.evicted", 1)
        self._gauge_resident()

    def _spill_path(self, tenant: str) -> Path:
        return self._spill_dir / f"{tenant}.npz"

    def _enforce_residency(self, now: float, *, keep: str | None = None) -> None:
        policy = EVICTION.resolve(self.config.eviction)
        while True:
            resident = [s for s in self._sessions.values() if s.resident]
            over_count = len(resident) > self.config.max_resident
            over_bytes = (
                self.config.max_resident_bytes is not None
                and sum(s.nbytes for s in resident)
                > self.config.max_resident_bytes
            )
            if not (over_count or over_bytes):
                return
            victims = sorted(
                (
                    s for s in resident
                    if s.outstanding_rows == 0 and s.tenant != keep
                ),
                key=lambda s: policy(s, now),
            )
            if not victims:
                return      # everyone is busy; stay temporarily over budget
            self._spill(victims[0])

    def sweep(self) -> list[str]:
        """Idle eviction plus residency re-enforcement; returns evictees.

        Residency bounds are normally enforced at frame and restore
        events; when every resident session had in-flight rows at its
        last event the manager can sit temporarily over budget.  A
        periodic ``sweep`` from a maintenance thread converges it, and
        additionally evicts sessions idle past ``idle_evict_s``.
        """
        evicted = []
        with self._lock:
            now = self._clock()
            if self.config.idle_evict_s is not None:
                for session in self._sessions.values():
                    if (
                        session.resident
                        and session.outstanding_rows == 0
                        and now - session.last_active >= self.config.idle_evict_s
                    ):
                        self._spill(session)
                        evicted.append(session.tenant)
            before = {
                s.tenant for s in self._sessions.values() if not s.resident
            }
            self._enforce_residency(now)
            evicted.extend(
                s.tenant
                for s in self._sessions.values()
                if not s.resident and s.tenant not in before
                and s.tenant not in evicted
            )
        return evicted

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._sessions))

    def stats(self) -> dict:
        """Structured fleet snapshot (always on, like ``KnnServer.stats``)."""
        with self._lock:
            resident = [s for s in self._sessions.values() if s.resident]
            return {
                "n_sessions": len(self._sessions),
                "n_resident": len(resident),
                "n_spilled": len(self._sessions) - len(resident),
                "resident_bytes": int(sum(s.nbytes for s in resident)),
                "outstanding_rows": self._outstanding_rows,
                "quota_rows": self.config.quota_rows,
                "counters": dict(self._stat_counters),
                "sessions": {
                    s.tenant: {
                        "state": s.state,
                        "n_frames": s.n_frames,
                        "outstanding_rows": s.outstanding_rows,
                        "nbytes": s.nbytes,
                        "generation": (
                            s.server.generation if s.server is not None else -1
                        ),
                    }
                    for s in self._sessions.values()
                },
            }

    def close(self) -> None:
        """Close every session's server and the managed spill dir."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for session in self._sessions.values():
                if session.server is not None:
                    session.server.close()
                    session.server = None
            self._sessions.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            from repro.serve.errors import ServerClosed

            raise ServerClosed()

    def _count(self, name: str, n: int) -> None:
        # Always-on dict for stats(); obs counter when enabled, so the
        # tenant fairness metrics ride the PR 7 aggregation unchanged.
        self._stat_counters[name] = self._stat_counters.get(name, 0) + n
        obs = get_registry()
        if obs.enabled:
            obs.counter(name).inc(n)

    def _gauge_resident(self) -> None:
        obs = get_registry()
        if obs.enabled:
            obs.gauge("serve.sessions.resident").set(
                sum(1 for s in self._sessions.values() if s.resident)
            )
