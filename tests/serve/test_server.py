"""KnnServer end-to-end: identity, degradation, failure handling, handoff."""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_cloud
from repro.kdtree import build_flat, knn_approx_batched, knn_exact_batched
from repro.obs import MetricsRegistry, use_registry
from repro.query import radius_batched
from repro.serve import (
    ExecutionConfig,
    KnnServer,
    Overloaded,
    RequestTimeout,
    ServeConfig,
    ServerClosed,
)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(99)
    ref = uniform_cloud(4_000, rng=rng).xyz
    queries = uniform_cloud(256, rng=rng).xyz
    return ref, queries


#: A config that stalls dispatch long enough to pile a whole test's
#: submissions into one batch, with a queue sized to hit level 3.
def _pressure_config(**overrides):
    defaults = dict(
        max_queue=100, max_delay_s=0.3, max_batch_size=4096, approx_budget=4
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestExactIdentity:
    @pytest.mark.parametrize("n_shards", [1, 3])
    @pytest.mark.parametrize("sharding", ["round-robin", "spatial"])
    def test_bit_identical_to_engine(self, cloud, n_shards, sharding):
        ref, queries = cloud
        flat, _ = build_flat(ref)
        truth, _ = knn_exact_batched(flat, queries, 8)
        config = ServeConfig(n_shards=n_shards, sharding=sharding)
        with KnnServer(ref, config) as server:
            response = server.query(queries, 8)
        assert np.array_equal(response.indices, truth.indices)
        assert np.array_equal(response.distances, truth.distances)
        assert response.served == "exact"
        assert response.degrade_level == 0
        assert response.budget is None

    def test_off_origin_identity(self, cloud):
        ref, queries = cloud
        ref, queries = ref + 1e5, queries + 1e5
        flat, _ = build_flat(ref)
        truth, _ = knn_exact_batched(flat, queries, 8)
        with KnnServer(ref, ServeConfig(n_shards=4)) as server:
            response = server.query(queries, 8)
        assert np.array_equal(response.indices, truth.indices)
        assert np.array_equal(response.distances, truth.distances)

    def test_concurrent_submitters_all_identical(self, cloud):
        ref, queries = cloud
        flat, _ = build_flat(ref)
        truth, _ = knn_exact_batched(flat, queries, 4)
        with KnnServer(ref, ServeConfig(n_shards=2)) as server:
            futures = [
                server.submit(queries[i:i + 8], 4) for i in range(0, 256, 8)
            ]
            for i, future in zip(range(0, 256, 8), futures):
                response = future.result(timeout=10)
                assert np.array_equal(response.indices, truth.indices[i:i + 8])
                assert np.array_equal(
                    response.distances, truth.distances[i:i + 8]
                )

    def test_submit_validation(self, cloud):
        ref, _ = cloud
        with KnnServer(ref) as server:
            with pytest.raises(ValueError, match="mode"):
                server.submit(np.zeros((1, 3)), 4, mode="fuzzy")
            with pytest.raises(ValueError, match="k"):
                server.submit(np.zeros((1, 3)), 0)
            with pytest.raises(ValueError, match="shape"):
                server.submit(np.zeros((1, 4)), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_refused_without_harming_batch_mates(
        self, cloud, bad
    ):
        ref, queries = cloud
        flat, _ = build_flat(ref)
        clean = queries[:8]
        truth, _ = knn_exact_batched(flat, clean, 4)
        poisoned = clean.copy()
        poisoned[3, 1] = bad
        # The 0.3 s deadline would put both requests in one micro-batch.
        with KnnServer(ref, ServeConfig(max_delay_s=0.3)) as server:
            future = server.submit(clean, 4)
            with pytest.raises(ValueError, match="finite"):
                server.submit(poisoned, 4)
            with pytest.raises(ValueError, match="finite"):
                server.submit_radius(poisoned, 1.0, max_neighbors=4)
            response = future.result(timeout=10)
        assert np.array_equal(response.indices, truth.indices)
        assert np.array_equal(response.distances, truth.distances)


class TestResponseOwnership:
    def test_responses_own_exactly_their_rows(self, cloud):
        # The 0.3 s deadline puts each kind's four requests in one
        # micro-batch; a response viewing the batch would pin all of it.
        ref, queries = cloud
        flat, _ = build_flat(ref)
        truth, _ = knn_exact_batched(flat, queries[:32], 4)
        balls = radius_batched(flat, queries[:32], 4.0, max_neighbors=6)
        starts = range(0, 32, 8)
        with KnnServer(ref, ServeConfig(max_delay_s=0.3)) as server:
            knn = [server.submit(queries[i:i + 8], 4) for i in starts]
            radius = [
                server.submit_radius(queries[i:i + 8], 4.0, max_neighbors=6)
                for i in starts
            ]
            knn = [future.result(timeout=10) for future in knn]
            radius = [future.result(timeout=10) for future in radius]
        for i, response in zip(starts, knn):
            assert response.indices.base is None
            assert response.distances.base is None
            assert np.array_equal(response.indices, truth.indices[i:i + 8])
            assert np.array_equal(response.distances, truth.distances[i:i + 8])
        for i, response in zip(starts, radius):
            lo, hi = balls.offsets[i], balls.offsets[i + 8]
            assert response.indices.base is None
            assert response.distances.base is None
            assert np.array_equal(response.offsets, balls.offsets[i:i + 9] - lo)
            assert np.array_equal(response.indices, balls.indices[lo:hi])
            assert np.array_equal(response.distances, balls.distances[lo:hi])


class TestReferenceValidation:
    """A non-finite reference point is refused, never indexed.

    One NaN point makes its bucket's centre NaN, and so every distance
    scored in that bucket."""

    @staticmethod
    def _poisoned(ref, bad):
        poisoned = ref.copy()
        poisoned[17, 2] = bad
        return poisoned

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_refuses_non_finite_reference(self, cloud, bad):
        ref, _ = cloud
        with pytest.raises(ValueError, match="finite"):
            KnnServer(self._poisoned(ref, bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refused_handoff_keeps_current_generation_serving(self, cloud, bad):
        ref, queries = cloud
        flat, _ = build_flat(ref)
        truth, _ = knn_exact_batched(flat, queries, 8)
        poisoned = self._poisoned(ref, bad)
        with KnnServer(ref) as server:
            with pytest.raises(ValueError, match="finite"):
                server.update_reference(poisoned)
            with pytest.raises(ValueError, match="finite"):
                server.update_reference_async(poisoned).result(timeout=10)
            assert server.generation == 0
            response = server.query(queries, 8)
        assert response.generation == 0
        assert np.array_equal(response.indices, truth.indices)
        assert np.array_equal(response.distances, truth.distances)


class TestOverload:
    def test_typed_shed_never_wrong_answers(self, cloud):
        ref, queries = cloud
        config = ServeConfig(max_queue=32, max_delay_s=0.5, max_batch_size=4096)
        with KnnServer(ref, config) as server:
            futures, shed = [], 0
            for i in range(80):
                try:
                    futures.append(server.submit(queries[i % 256][None, :], 4))
                except Overloaded as exc:
                    shed += 1
                    assert exc.queue_depth <= exc.max_queue
            assert shed > 0
            # Every admitted request still gets a correct, typed answer.
            for future in futures:
                response = future.result(timeout=10)
                assert response.indices.shape == (1, 4)


class TestDegradation:
    def test_approx_budget_tightens_to_zero(self, cloud):
        ref, queries = cloud
        with KnnServer(ref, _pressure_config()) as server:
            futures = [
                server.submit(queries[:10], 4, mode="approx")
                for _ in range(10)  # 100 rows: queue full, level 3
            ]
            responses = [f.result(timeout=10) for f in futures]
        assert all(r.degrade_level == 3 for r in responses)
        assert all(r.budget == 0 and r.served == "degraded" for r in responses)

    def test_exact_without_optin_never_degrades(self, cloud):
        ref, queries = cloud
        flat, _ = build_flat(ref)
        truth, _ = knn_exact_batched(flat, queries[:10], 4)
        with KnnServer(ref, _pressure_config()) as server:
            futures = [
                server.submit(queries[:10], 4, mode="exact") for _ in range(10)
            ]
            responses = [f.result(timeout=10) for f in futures]
        for r in responses:
            assert r.served == "exact"
            assert r.budget is None
            assert r.degrade_level == 3  # under pressure, yet still exact
            assert np.array_equal(r.indices, truth.indices)
            assert np.array_equal(r.distances, truth.distances)

    def test_exact_with_optin_degrades_with_label(self, cloud):
        ref, queries = cloud
        with KnnServer(ref, _pressure_config()) as server:
            futures = [
                server.submit(
                    queries[:10], 4, mode="exact", allow_degraded=True
                )
                for _ in range(10)
            ]
            responses = [f.result(timeout=10) for f in futures]
        assert all(r.served == "degraded" and r.budget == 0 for r in responses)

    def test_level3_approx_equals_engine_approx(self, cloud):
        ref, queries = cloud
        approx = knn_approx_batched(build_flat(ref)[0], queries[:10], 4)
        with KnnServer(ref, _pressure_config()) as server:
            futures = [
                server.submit(queries[:10], 4, mode="approx")
                for _ in range(10)
            ]
            responses = [f.result(timeout=10) for f in futures]
        # Single shard at budget 0 is the engine's single-bucket answer
        # (canonical merge order: distances must match exactly).
        assert np.array_equal(responses[0].distances, approx.distances)

    def test_partial_pressure_intermediate_level(self, cloud):
        ref, queries = cloud
        config = _pressure_config(approx_budget=8)
        with KnnServer(ref, config) as server:
            futures = [
                server.submit(queries[:10], 4, mode="approx")
                for _ in range(6)  # 60/100 rows: level 1
            ]
            responses = [f.result(timeout=10) for f in futures]
        assert {r.degrade_level for r in responses} == {1}
        assert {r.budget for r in responses} == {4}  # halved from 8


class TestWorkConservingBatches:
    def test_rows_coalesce_while_the_replica_is_busy(self, cloud):
        # Hold the single replica inside a first request; a burst that
        # arrives meanwhile must stay queued past max_delay_s and then
        # run as one batch once the replica frees.
        ref, queries = cloud
        flat, _ = build_flat(ref)
        truth, _ = knn_exact_batched(flat, queries[:36], 4)
        server = KnnServer(ref, ServeConfig())
        original = server._shards[0].tree
        entered, gate = threading.Event(), threading.Event()

        class GatedTree:
            def __getattr__(self, name):
                return getattr(original, name)

            def flat(self):
                entered.set()
                gate.wait(timeout=10)
                return original.flat()

        object.__setattr__(server._shards[0], "tree", GatedTree())
        try:
            blocker = server.submit(queries[:4], 4)
            assert entered.wait(timeout=5)
            burst = [server.submit(queries[i:i + 4], 4) for i in range(4, 36, 4)]
            time.sleep(0.05)  # far past max_delay_s
            stats = server.stats()
            assert stats["queue_rows"] == 32
            batches = stats["counters"]["serve.batches"]
            gate.set()
            responses = [f.result(timeout=10) for f in [blocker] + burst]
            assert server.stats()["counters"]["serve.batches"] == batches + 1
        finally:
            gate.set()
            server.close()
        for i, response in zip(range(0, 36, 4), responses):
            assert np.array_equal(response.indices, truth.indices[i:i + 4])
            assert np.array_equal(response.distances, truth.distances[i:i + 4])


class TestTimeout:
    def test_queued_request_times_out_promptly(self, cloud):
        ref, queries = cloud
        config = ServeConfig(
            request_timeout_s=0.05, max_delay_s=5.0, max_batch_size=10**6
        )
        with KnnServer(ref, config) as server:
            future = server.submit(queries[:4], 4)
            start = time.perf_counter()
            with pytest.raises(RequestTimeout) as excinfo:
                future.result(timeout=5)
            assert time.perf_counter() - start < 1.0
            assert excinfo.value.timeout_s == 0.05


class TestFailureHandling:
    def test_retry_recovers_from_transient_shard_failure(self, cloud):
        ref, queries = cloud
        server = KnnServer(ref, ServeConfig(max_retries=1, max_delay_s=0.001))
        original = server._shards[0].tree
        state = {"failures_left": 1}

        class FlakyTree:
            def __getattr__(self, name):
                return getattr(original, name)

            def flat(self):
                if state["failures_left"] > 0:
                    state["failures_left"] -= 1
                    raise RuntimeError("injected")
                return original.flat()

        object.__setattr__(server._shards[0], "tree", FlakyTree())
        try:
            response = server.query(queries[:4], 4, timeout=10)
            assert response.indices.shape == (4, 4)
        finally:
            server.close()

    def test_exhausted_retries_surface_the_error(self, cloud):
        ref, queries = cloud
        server = KnnServer(ref, ServeConfig(max_retries=0, max_delay_s=0.001))

        class DeadTree:
            def flat(self):
                raise RuntimeError("shard is dead")

        object.__setattr__(server._shards[0], "tree", DeadTree())
        try:
            with pytest.raises(RuntimeError, match="shard is dead"):
                server.query(queries[:4], 4, timeout=10)
        finally:
            server.close()

    def test_hedge_beats_a_stalled_replica(self, cloud):
        ref, queries = cloud
        config = ServeConfig(
            n_shards=2, n_replicas=2, hedge_delay_s=0.05, max_delay_s=0.001
        )
        server = KnnServer(ref, config)
        original = server._shards[0].tree
        lock = threading.Lock()
        calls = {"n": 0}

        class SlowOnceTree:
            def __getattr__(self, name):
                return getattr(original, name)

            def flat(self):
                with lock:
                    calls["n"] += 1
                    first = calls["n"] == 1
                if first:
                    time.sleep(0.5)
                return original.flat()

        object.__setattr__(server._shards[0], "tree", SlowOnceTree())
        try:
            start = time.perf_counter()
            response = server.query(queries[:4], 4, timeout=10)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.4  # hedge answered before the 0.5s stall
            assert response.indices.shape == (4, 4)
        finally:
            server.close()


class TestWarmHandoff:
    def test_swap_changes_answers_atomically(self, cloud):
        ref, queries = cloud
        rng = np.random.default_rng(7)
        new_ref = uniform_cloud(3_000, rng=rng).xyz
        truth_new, _ = knn_exact_batched(build_flat(new_ref)[0], queries, 4)
        with KnnServer(ref, ServeConfig(n_shards=2)) as server:
            before = server.query(queries, 4)
            info = server.update_reference(new_ref)
            after = server.query(queries, 4)
        assert before.generation == 0
        assert after.generation == 1
        assert info["generation"] == 1
        assert info["n_points"] == 3_000
        assert np.array_equal(after.indices, truth_new.indices)
        assert np.array_equal(after.distances, truth_new.distances)

    def test_async_rebuild_serves_during_build(self, cloud):
        ref, queries = cloud
        rng = np.random.default_rng(8)
        new_ref = uniform_cloud(3_000, rng=rng).xyz
        with KnnServer(ref, ServeConfig(n_shards=2)) as server:
            rebuild = server.update_reference_async(new_ref)
            # Queries keep flowing while the rebuild runs.
            during = server.query(queries, 4)
            assert during.indices.shape == (256, 4)
            info = rebuild.result(timeout=30)
            assert info["generation"] == 1
            assert server.query(queries, 4).generation == 1


class TestSnapshots:
    def test_roundtrip_bit_identical(self, cloud, tmp_path):
        ref, queries = cloud
        with KnnServer(ref, ServeConfig(n_shards=3)) as server:
            paths = server.save_snapshots(tmp_path)
            original = server.query(queries, 4)
        assert [p.name for p in paths] == [
            "shard-000.npz", "shard-001.npz", "shard-002.npz"
        ]
        with KnnServer.from_snapshots(tmp_path) as restored:
            assert restored.n_shards == 3
            answer = restored.query(queries, 4)
        assert np.array_equal(answer.indices, original.indices)
        assert np.array_equal(answer.distances, original.distances)

    def test_shard_count_mismatch_rejected(self, cloud, tmp_path):
        ref, _ = cloud
        with KnnServer(ref, ServeConfig(n_shards=2)) as server:
            server.save_snapshots(tmp_path)
        with pytest.raises(ValueError, match="n_shards"):
            KnnServer.from_snapshots(tmp_path, ServeConfig(n_shards=3))

    def test_missing_snapshots_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            KnnServer.from_snapshots(tmp_path)


class TestLifecycle:
    def test_close_fails_pending_and_rejects_new(self, cloud):
        ref, queries = cloud
        config = ServeConfig(
            max_delay_s=5.0, max_batch_size=10**6, request_timeout_s=None
        )
        server = KnnServer(ref, config)
        future = server.submit(queries[:4], 4)
        server.close()
        with pytest.raises(ServerClosed):
            future.result(timeout=1)
        with pytest.raises(ServerClosed):
            server.submit(queries[:4], 4)
        server.close()  # idempotent

    def test_close_right_after_boot_returns_promptly(self, cloud):
        # The monitor ticks every 50 ms; close() must wake it, not wait
        # out its tick, or every session spill pays a tick.
        ref, _ = cloud
        started = time.perf_counter()
        for _ in range(20):
            server = KnnServer(ref[:500], ServeConfig())
            server.close()
        assert not server._monitor.is_alive()
        assert time.perf_counter() - started < 0.5

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_closed_server_is_freed_without_the_cycle_collector(self, cloud, backend):
        # A closed server dropped by its owner (a session spill) must
        # release its shard trees at once, not at the next gc pass.
        ref, queries = cloud
        config = ServeConfig(execution=ExecutionConfig(backend=backend))
        server = KnnServer(ref[:500], config)
        server.query(queries[:2], 4)
        server.close()
        alive = weakref.ref(server)
        gc.disable()
        try:
            del server
            assert alive() is None
        finally:
            gc.enable()

    def test_stats_shape(self, cloud):
        ref, _ = cloud
        with KnnServer(ref, ServeConfig(n_shards=2)) as server:
            stats = server.stats()
        assert stats["plan"]["n_shards"] == 2
        assert stats["generation"] == 0
        assert stats["queue_rows"] == 0
        assert stats["degrade_level"] == 0


class TestMetrics:
    def test_serve_counters_and_latency_histogram(self, cloud):
        ref, queries = cloud
        with use_registry(MetricsRegistry()) as registry:
            with KnnServer(ref, ServeConfig(n_shards=2)) as server:
                for i in range(8):
                    server.query(queries[i:i + 4], 4)
                try:
                    # Force at least one shed for the counter.
                    tiny = ServeConfig(
                        max_queue=1, max_delay_s=0.5, max_batch_size=4096
                    )
                    with KnnServer(ref, tiny) as tiny_server:
                        tiny_server.submit(queries[:1], 4)
                        tiny_server.submit(queries[:1], 4)
                except Overloaded:
                    pass
            metrics = registry.as_dict()
        assert metrics["serve.requests"] == 9
        assert metrics["serve.completed"] == 8
        assert metrics["serve.shed"] == 1
        assert metrics["serve.batches"] >= 1
        assert metrics["serve.latency_ms.count"] == 8
        assert metrics["serve.latency_ms.p99"] > 0
