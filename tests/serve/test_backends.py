"""Execution backends: registry, config surface, process/thread parity.

The process backend's contract is *bit-identity*: for any shard count,
any degradation budget, and any cloud (ties, off-origin frames), its
responses must equal the thread backend's — the compute path is the
same :meth:`ShardState.search` and the merge never leaves the
coordinator.  The lifecycle contract is *no leaks*: after ``close()``
(even with a SIGKILLed worker) no worker process and no shared-memory
segment survives.
"""

import glob
import os
import secrets
import signal
import time

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_cloud
from repro.serve import (
    ExecutionConfig,
    KnnServer,
    ServeConfig,
    WorkerError,
    available_backends,
)

@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(42)
    ref = uniform_cloud(3_000, rng=rng).xyz
    queries = uniform_cloud(128, rng=rng).xyz
    return ref, queries


def _unique_prefix() -> str:
    return f"qnnt-{secrets.token_hex(4)}"


def _segments(prefix: str) -> list[str]:
    return glob.glob(f"/dev/shm/{prefix}*")


def _process_config(prefix: str, **overrides) -> ServeConfig:
    defaults = dict(
        execution=ExecutionConfig(
            backend="process", processes=1, shm_prefix=prefix
        )
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestRegistry:
    def test_both_backends_registered(self):
        assert set(available_backends()) >= {"thread", "process"}

    def test_unknown_backend_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            ExecutionConfig(backend="bogus")

    def test_execution_config_validation(self):
        with pytest.raises(ValueError, match="processes"):
            ExecutionConfig(processes=0)
        with pytest.raises(ValueError, match="shm_prefix"):
            ExecutionConfig(shm_prefix="bad/name")
        with pytest.raises(ValueError, match="join_timeout_s"):
            ExecutionConfig(join_timeout_s=0)

    def test_processes_per_shard_inherits_replicas(self):
        assert ExecutionConfig().processes_per_shard(3) == 3
        assert ExecutionConfig(processes=2).processes_per_shard(3) == 2


class TestBackendEquivalence:
    """Process answers must be bit-identical to thread answers."""

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_bit_identical_across_shard_counts(self, cloud, n_shards):
        ref, queries = cloud
        with KnnServer(ref, ServeConfig(n_shards=n_shards)) as server:
            expected = server.query(queries, 8)
        prefix = _unique_prefix()
        config = _process_config(prefix, n_shards=n_shards)
        with KnnServer(ref, config) as server:
            got = server.query(queries, 8, timeout=60)
        assert np.array_equal(expected.indices, got.indices)
        assert np.array_equal(expected.distances, got.distances)
        assert not _segments(prefix)

    def test_bit_identical_on_duplicate_tie_cloud(self):
        # Exact duplicate points create distance ties; the canonical
        # merge must resolve them identically under both backends.
        rng = np.random.default_rng(3)
        base = uniform_cloud(500, rng=rng).xyz
        ref = np.concatenate([base, base, base], axis=0)
        queries = base[:64] + rng.normal(scale=1e-3, size=(64, 3))
        with KnnServer(ref, ServeConfig(n_shards=3)) as server:
            expected = server.query(queries, 6)
        prefix = _unique_prefix()
        with KnnServer(ref, _process_config(prefix, n_shards=3)) as server:
            got = server.query(queries, 6, timeout=60)
        assert np.array_equal(expected.indices, got.indices)
        assert np.array_equal(expected.distances, got.distances)

    def test_bit_identical_off_origin(self, cloud):
        # UTM-style coordinates: large offsets stress float cancellation,
        # results must still match bit for bit.
        ref, queries = cloud
        ref, queries = ref + 1e5, queries + 1e5
        with KnnServer(ref, ServeConfig(n_shards=2)) as server:
            expected = server.query(queries, 8)
        prefix = _unique_prefix()
        with KnnServer(ref, _process_config(prefix, n_shards=2)) as server:
            got = server.query(queries, 8, timeout=60)
        assert np.array_equal(expected.indices, got.indices)
        assert np.array_equal(expected.distances, got.distances)

    def test_approx_budget_identical(self, cloud):
        ref, queries = cloud
        with KnnServer(ref, ServeConfig(n_shards=2)) as server:
            expected = server.query(queries, 8, mode="approx")
        prefix = _unique_prefix()
        with KnnServer(ref, _process_config(prefix, n_shards=2)) as server:
            got = server.query(queries, 8, mode="approx", timeout=60)
        assert got.served == expected.served == "approx"
        assert got.budget == expected.budget
        assert np.array_equal(expected.indices, got.indices)
        assert np.array_equal(expected.distances, got.distances)


class TestProcessLifecycle:
    def test_warm_handoff_and_deferred_unlink(self, cloud):
        ref, queries = cloud
        rng = np.random.default_rng(11)
        ref2 = uniform_cloud(2_500, rng=rng).xyz
        prefix = _unique_prefix()
        with KnnServer(ref, _process_config(prefix, n_shards=2)) as server:
            before = server.query(queries, 8, timeout=60)
            assert before.generation == 0
            info = server.update_reference(ref2)
            assert info["generation"] == 1
            after = server.query(queries, 8, timeout=60)
            assert after.generation == 1
            # The new generation's answers match a fresh thread server
            # over the same points.
            with KnnServer(ref2, ServeConfig(n_shards=2)) as fresh:
                expected = fresh.query(queries, 8)
            assert np.array_equal(after.indices, expected.indices)
            assert np.array_equal(after.distances, expected.distances)
            # Generation 0 had no in-flight jobs left, so its segments
            # are already retired; generation 1's are live.
            deadline = time.time() + 10
            while _has_generation(prefix, 0) and time.time() < deadline:
                time.sleep(0.05)
            assert not _has_generation(prefix, 0)
            assert _has_generation(prefix, 1)
        assert not _segments(prefix)

    def test_handoff_mid_dispatch_strands_no_job(self, cloud):
        # One batch, two jobs (k=4 and k=5).  A warm handoff lands while
        # the dispatcher sends the first, and the first drains before the
        # second is sent.  Generation 0 must outlive the second job, or
        # that job never runs and the idle signal counts it in flight.
        ref, queries = cloud
        ref2 = uniform_cloud(2_500, rng=np.random.default_rng(11)).xyz
        prefix = _unique_prefix()
        config = _process_config(prefix, n_shards=1, max_delay_s=0.2)
        with KnnServer(ref, config) as server:
            backend = server._backend
            send = backend.submit
            sent = []

            def submit(job, slot):
                send(job, slot)
                if not sent:
                    sent.append(job)
                    server.update_reference(ref2)
                    for request in job.requests:
                        request.future.result(timeout=60)

            backend.submit = submit
            first = server.submit(queries[:4], 4)
            second = server.submit(queries[4:8], 5)
            answers = [first.result(timeout=30), second.result(timeout=30)]
            del backend.submit
            assert server.stats()["counters"]["serve.batches"] == 1
            assert [a.generation for a in answers] == [0, 0]
            assert server.stats()["inflight_jobs"] == 0
            later = server.query(queries[8:9], 4, timeout=30)
            assert later.generation == 1
            with KnnServer(ref, ServeConfig()) as fresh:
                expected = [fresh.query(queries[:4], 4),
                            fresh.query(queries[4:8], 5)]
            with KnnServer(ref2, ServeConfig()) as fresh:
                expected.append(fresh.query(queries[8:9], 4))
        for got, want in zip(answers + [later], expected):
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.distances, want.distances)
        assert not _segments(prefix)

    def test_task_for_a_retired_generation_fails_and_drains(self, cloud):
        # Should a task ever name a retired generation, it fails through
        # the retry path as a typed error instead of vanishing while its
        # job counts as in flight.
        ref, queries = cloud
        prefix = _unique_prefix()
        with KnnServer(ref, _process_config(prefix, n_shards=1)) as server:
            server._backend.retire(0)
            with pytest.raises(WorkerError, match="retired"):
                server.query(queries[:1], 4, timeout=30)
            assert server.stats()["inflight_jobs"] == 0
            server.update_reference(ref)
            later = server.query(queries[:1], 4, timeout=30)
        assert later.generation == 1
        assert later.indices.shape == (1, 4)
        assert not _segments(prefix)

    def test_close_reaps_processes_and_segments(self, cloud):
        ref, queries = cloud
        prefix = _unique_prefix()
        server = KnnServer(ref, _process_config(prefix, n_shards=2))
        server.query(queries, 8, timeout=60)
        pids = server.stats()["execution"]["pids"]
        assert pids and _segments(prefix)
        server.close()
        server.close()  # idempotent
        for pid in pids:
            assert not _pid_alive(pid)
        assert not _segments(prefix)

    def test_killed_worker_does_not_leak_or_wedge(self, cloud):
        # SIGKILL one replica; the surviving replica on the same shard
        # keeps serving, and close() still reaps and unlinks everything.
        ref, queries = cloud
        prefix = _unique_prefix()
        config = ServeConfig(
            n_shards=1,
            execution=ExecutionConfig(
                backend="process", processes=2, shm_prefix=prefix
            ),
        )
        with KnnServer(ref, config) as server:
            server.query(queries, 8, timeout=60)
            victim = server.stats()["execution"]["pids"][0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.time() + 10
            while _pid_alive(victim) and time.time() < deadline:
                time.sleep(0.05)
            response = server.query(queries, 8, timeout=60)
            assert response.indices.shape == (queries.shape[0], 8)
            pids = server.stats()["execution"]["pids"]
        for pid in pids:
            assert not _pid_alive(pid)
        assert not _segments(prefix)

    def test_worker_counters_surface_in_stats(self, cloud):
        ref, queries = cloud
        prefix = _unique_prefix()
        with KnnServer(ref, _process_config(prefix, n_shards=1)) as server:
            server.query(queries, 8, timeout=60)
            deadline = time.time() + 10
            counters = {}
            while not counters and time.time() < deadline:
                counters = server.stats()["execution"]["worker_counters"]
                time.sleep(0.02)
        assert counters, "no worker counters arrived"
        worker = next(iter(counters.values()))
        assert worker["tasks"] >= 1
        assert worker["rows"] >= queries.shape[0]
        assert worker["attaches"] >= 1
        assert worker["pid"] > 0


def _has_generation(prefix: str, generation: int) -> bool:
    return any(f"-g{generation}-" in path for path in _segments(prefix))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    return True
