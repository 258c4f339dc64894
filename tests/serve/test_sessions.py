"""Per-tenant sessions: lifecycle, zero-rebuild, spill identity, fairness."""

import numpy as np
import pytest

from repro.kdtree.snapshot import FLAT_FIELDS, Snapshot
from repro.obs import MetricsRegistry, use_registry
from repro.serve.config import ServeConfig
from repro.serve.errors import Overloaded, ServerClosed
from repro.serve.sessions import EVICTION, SessionConfig, SessionManager


def _frame(seed: int, n: int = 400) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(scale=5.0, size=(n, 3))


def _queries(seed: int, n: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(scale=5.0, size=(n, 3))


def _fast(**kwargs) -> SessionConfig:
    kwargs.setdefault("serve", ServeConfig(max_delay_s=0.0))
    return SessionConfig(**kwargs)


def _older_spill_extras(tree) -> dict:
    """The side arrays spill files once carried beside the flat tree:
    identity ``global_ids`` and the node tree as ``tree_*`` arrays."""
    flat = tree.flat()
    extras = {
        "global_ids": np.arange(tree.n_points, dtype=np.int64),
        "tree_version": np.array([1], dtype=np.int64),
        "tree_points": tree.points,
        "tree_bucket_offsets": flat.bucket_offsets,
        "tree_bucket_members": flat.bucket_members,
    }
    for name in ("parent", "depth", "dim", "threshold", "left", "right",
                 "bucket_id"):
        extras["tree_" + name] = np.array([getattr(n, name) for n in tree.nodes])
    return extras


class TestConfig:
    def test_rejects_sharded_template(self):
        with pytest.raises(ValueError, match="unsharded"):
            SessionConfig(serve=ServeConfig(n_shards=2))

    def test_rejects_unknown_eviction_policy_listing_choices(self):
        with pytest.raises(ValueError, match="unknown eviction policy"):
            SessionConfig(eviction="mru")
        with pytest.raises(ValueError, match="cost-aware.*lru"):
            SessionConfig(eviction="mru")

    def test_eviction_alias_folds(self):
        assert EVICTION.canonical("cost") == "cost-aware"

    def test_quota_rows(self):
        cfg = SessionConfig(max_outstanding_rows=100, tenant_share=0.25)
        assert cfg.quota_rows == 25

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SessionConfig(max_resident=0)
        with pytest.raises(ValueError):
            SessionConfig(tenant_share=0.0)
        with pytest.raises(ValueError):
            SessionConfig(tenant_share=1.5)


class TestLifecycle:
    def test_create_then_incremental_updates(self):
        with SessionManager(_fast()) as m:
            first = m.observe_frame("t0", _frame(0))
            assert first["created"] and first["generation"] == 0
            assert first["update"] is None
            second = m.observe_frame("t0", _frame(1, n=80))
            assert not second["created"]
            assert second["generation"] == 1
            assert second["n_points"] == 80
            assert "n_merges" in second["update"]
            resp = m.query("t0", _queries(2), k=4)
            assert resp.indices.shape == (16, 4)
            assert resp.generation == 1

    def test_rejects_bad_tenant_names_and_unknown_tenants(self):
        with SessionManager(_fast()) as m:
            with pytest.raises(ValueError, match="tenant ids"):
                m.observe_frame("bad/name", _frame(0))
            with pytest.raises(KeyError, match="unknown tenant"):
                m.submit("ghost", _queries(0), k=2)

    def test_rejects_non_finite_query_rows(self):
        with SessionManager(_fast()) as m:
            m.observe_frame("t0", _frame(0))
            bad = _queries(1)
            bad[2, 0] = np.nan
            with pytest.raises(ValueError, match="finite"):
                m.submit("t0", bad, k=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_frames(self, bad):
        with SessionManager(_fast()) as m:
            first = _frame(0)
            first[5, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                m.observe_frame("t0", first)
            assert m.tenants() == ()
            m.observe_frame("t0", _frame(0))
            later = _frame(1)
            later[3, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                m.observe_frame("t0", later)
            assert m.stats()["sessions"]["t0"]["generation"] == 0
            assert m.stats()["sessions"]["t0"]["n_frames"] == 1

    def test_closed_manager_refuses(self):
        m = SessionManager(_fast())
        m.observe_frame("t0", _frame(0))
        m.close()
        with pytest.raises(ServerClosed):
            m.observe_frame("t0", _frame(1))

    def test_zero_rebuild_counters(self):
        registry = MetricsRegistry()
        with use_registry(registry), SessionManager(_fast()) as m:
            for i in range(4):
                m.observe_frame("t0", _frame(i, n=200))
            counters = registry.as_dict()
        assert counters["build.calls"] == 1
        assert counters["build.incremental.calls"] == 3


class TestSpillRestore:
    def test_residency_bound_spills_lru(self):
        with SessionManager(_fast(max_resident=2)) as m:
            for i, t in enumerate(("a", "b", "c")):
                m.observe_frame(t, _frame(i))
            stats = m.stats()
            assert stats["n_resident"] == 2
            assert stats["sessions"]["a"]["state"] == "spilled"
            # Touching the spilled session restores it (and evicts the
            # now-least-recent resident).
            m.query("a", _queries(9), k=2)
            stats = m.stats()
            assert stats["sessions"]["a"]["state"] == "resident"
            assert stats["n_resident"] == 2
            assert stats["counters"]["serve.sessions.restored"] == 1

    def test_restored_session_answers_bit_identical_to_never_evicted_twin(self):
        frames = {t: [_frame(i * 10 + j, n=300) for j in range(3)]
                  for i, t in enumerate(("a", "b"))}
        churn = SessionManager(_fast(max_resident=1))
        calm = SessionManager(_fast(max_resident=8))
        try:
            for j in range(3):
                for t in ("a", "b"):
                    churn.observe_frame(t, frames[t][j])
                    calm.observe_frame(t, frames[t][j])
            counters = churn.stats()["counters"]
            assert counters["serve.sessions.spilled"] >= 3
            assert counters["serve.sessions.restored"] >= 3
            for t in ("a", "b"):
                q = _queries(hash(t) % 1000, n=32)
                got = churn.query(t, q, k=8)
                want = calm.query(t, q, k=8)
                np.testing.assert_array_equal(got.indices, want.indices)
                np.testing.assert_array_equal(got.distances, want.distances)
        finally:
            churn.close()
            calm.close()

    def test_spill_dir_round_trip_survives_manager_restart(self, tmp_path):
        cfg = _fast(max_resident=8, spill_dir=tmp_path)
        with SessionManager(cfg) as m:
            m.observe_frame("t0", _frame(0))
            m.observe_frame("t0", _frame(1, n=100))
            before = m.query("t0", _queries(3), k=4)
            m.sweep()  # nothing idle-configured; keeps residency valid
            m._spill(m._sessions["t0"])  # force the disk round trip
            after = m.query("t0", _queries(3), k=4)
        np.testing.assert_array_equal(before.indices, after.indices)
        np.testing.assert_array_equal(before.distances, after.distances)
        assert (tmp_path / "t0.npz").exists()

    def test_spill_file_holds_only_the_flat_snapshot(self, tmp_path):
        with SessionManager(_fast(spill_dir=tmp_path)) as m:
            m.observe_frame("t0", _frame(0))
            m.observe_frame("t0", _frame(1, n=100))
            m._spill(m._sessions["t0"])
            with np.load(tmp_path / "t0.npz") as payload:
                names = set(payload.files)
        assert names == {"flat_version", *FLAT_FIELDS}

    def test_spill_file_with_older_side_arrays_restores_identically(
        self, tmp_path
    ):
        with SessionManager(_fast(spill_dir=tmp_path)) as m:
            m.observe_frame("t0", _frame(0))
            m.observe_frame("t0", _frame(1, n=100))
            want = m.query("t0", _queries(3), k=4)
            session = m._sessions["t0"]
            tree = session.tree
            m._spill(session)
            Snapshot.from_flat(tree.flat(), extra=_older_spill_extras(tree)).save(
                tmp_path / "t0.npz"
            )
            got = m.query("t0", _queries(3), k=4)
            assert m.stats()["counters"]["serve.sessions.restored"] == 1
            m.observe_frame("t0", _frame(2, n=120))
            assert m.query("t0", _queries(4), k=4).generation == 1
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.distances, want.distances)

    def test_restored_session_continues_incremental(self):
        registry = MetricsRegistry()
        with use_registry(registry), \
                SessionManager(_fast(max_resident=1)) as m:
            m.observe_frame("a", _frame(0))
            m.observe_frame("b", _frame(1))      # evicts a
            out = m.observe_frame("a", _frame(2, n=60))  # restores a
            assert out["restored"]
            counters = registry.as_dict()
        # The restore itself must not rebuild: two creates, one
        # incremental update, zero extra builds.
        assert counters["build.calls"] == 2
        assert counters["build.incremental.calls"] == 1

    def test_idle_sweep_with_fake_clock(self):
        now = [0.0]
        cfg = _fast(max_resident=8, idle_evict_s=10.0)
        with SessionManager(cfg, clock=lambda: now[0]) as m:
            m.observe_frame("a", _frame(0))
            m.observe_frame("b", _frame(1))
            assert m.sweep() == []
            now[0] = 30.0
            assert sorted(m.sweep()) == ["a", "b"]
            assert m.stats()["n_resident"] == 0
            # Queries transparently restore.
            resp = m.query("a", _queries(5), k=2)
            assert resp.indices.shape == (16, 2)

    def test_sweep_converges_over_budget_residency(self):
        with SessionManager(_fast(max_resident=1)) as m:
            m.observe_frame("a", _frame(0))
            m.observe_frame("b", _frame(1))
            # Simulate the busy-at-last-event state: b holds in-flight
            # rows while a is restored, so both end up resident.
            m._sessions["b"].outstanding_rows = 1
            m._resident("a", 0.0)
            m._sessions["b"].outstanding_rows = 0
            assert m.stats()["n_resident"] == 2
            evicted = m.sweep()
            assert len(evicted) == 1
            assert m.stats()["n_resident"] == 1

    def test_cost_aware_policy_prefers_big_idle_sessions(self):
        lru = EVICTION.resolve("lru")
        cost = EVICTION.resolve("cost-aware")

        class S:
            def __init__(self, last_active, nbytes):
                self.last_active = last_active
                self.nbytes = nbytes

        small_old = S(last_active=0.0, nbytes=10)
        big_newer = S(last_active=50.0, nbytes=10_000)
        now = 100.0
        # LRU evicts the older session; cost-aware the bigger idle one.
        assert lru(small_old, now) < lru(big_newer, now)
        assert cost(big_newer, now) < cost(small_old, now)


class TestFairness:
    def _config(self) -> SessionConfig:
        # quota = 16 rows; a slow batch-formation deadline keeps
        # submitted rows outstanding long enough to observe admission.
        return SessionConfig(
            serve=ServeConfig(
                max_delay_s=0.2, max_batch_size=512, request_timeout_s=None
            ),
            max_outstanding_rows=64,
            tenant_share=0.25,
        )

    def test_hot_tenant_sheds_at_quota_without_starving_others(self):
        registry = MetricsRegistry()
        with use_registry(registry), SessionManager(self._config()) as m:
            for t in ("hot", "cold"):
                m.observe_frame(t, _frame(ord(t[0])))
            futures = []
            # Hot fills its 16-row quota (2 x 8), then gets shed even
            # though the global 64-row budget has plenty left.
            for i in range(2):
                futures.append(
                    m.submit("hot", _queries(i, n=8), k=2, mode="approx")
                )
            with pytest.raises(Overloaded):
                m.submit("hot", _queries(2, n=8), k=2, mode="approx")
            # The cold tenant is admitted at the same moment.
            futures.append(
                m.submit("cold", _queries(3, n=2), k=2, mode="approx")
            )
            responses = [f.result(timeout=10.0) for f in futures]

            hot_responses = responses[:2]
            cold_response = responses[2]
            # The hot tenant's own quota-sized queue was full at batch
            # formation, so its answers degraded first; the cold
            # tenant's nearly-empty session served at full budget.
            assert all(r.degraded for r in hot_responses)
            assert not cold_response.degraded

            counters = m.stats()["counters"]
            assert counters["serve.tenant.hot.shed"] == 1
            assert counters.get("serve.tenant.cold.shed", 0) == 0
            assert counters["serve.tenant.hot.degraded"] == 2
            assert counters.get("serve.tenant.cold.degraded", 0) == 0
            # The same per-tenant counters flow through the obs
            # registry (and thus the cross-process aggregation).
            metrics = registry.as_dict()
            assert metrics["serve.tenant.hot.shed"] == 1
            assert "serve.tenant.cold.shed" not in metrics

    def test_global_budget_sheds_any_tenant(self):
        cfg = SessionConfig(
            serve=ServeConfig(
                max_delay_s=0.2, max_batch_size=512, request_timeout_s=None
            ),
            max_outstanding_rows=8,
            tenant_share=1.0,
        )
        with SessionManager(cfg) as m:
            for t in ("a", "b"):
                m.observe_frame(t, _frame(ord(t[0])))
            f = m.submit("a", _queries(0, n=8), k=2)
            with pytest.raises(Overloaded):
                m.submit("b", _queries(1, n=1), k=2)
            f.result(timeout=10.0)
