"""End-to-end serving observability: cross-process metric aggregation,
request tracing, and the live stats surface.

The acceptance bar: under the process backend the coordinator's
registry must report the *same* worker-side ``engine.*`` totals the
thread backend produces for the same workload (the compute path is
identical, only the process boundary differs), and a traced run must
produce one Chrome trace whose spans come from at least two distinct
pids, linked by request id.
"""

import os
import re
import secrets
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.datasets.synthetic import uniform_cloud
from repro.serve import (
    ExecutionConfig,
    KnnServer,
    ServeConfig,
    SessionConfig,
    SessionManager,
)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(7)
    ref = uniform_cloud(3_000, rng=rng).xyz
    queries = uniform_cloud(96, rng=rng).xyz
    return ref, queries


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    obs.disable()


def _config(backend: str, **overrides) -> ServeConfig:
    defaults = dict(
        n_shards=2,
        request_timeout_s=60.0,
        execution=ExecutionConfig(
            backend=backend,
            processes=1,
            shm_prefix=f"qnnt-{secrets.token_hex(4)}",
        ),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _run_workload(backend: str, cloud, *, trace: bool = False):
    """One deterministic workload; returns (registry, responses)."""
    ref, queries = cloud
    registry = obs.enable(trace=trace)
    try:
        with KnnServer(ref, _config(backend)) as server:
            exact = server.query(queries, 8, timeout=60)
            approx = server.query(queries[:16], 4, mode="approx", timeout=60)
    finally:
        obs.set_registry(None)
    return registry, (exact, approx)


class TestCrossProcessAggregation:
    def test_engine_counters_match_thread_backend(self, cloud):
        """The acceptance criterion: machine-wide engine.* truth."""
        thread_reg, thread_resp = _run_workload("thread", cloud)
        process_reg, process_resp = _run_workload("process", cloud)
        # Bit-identical answers first (the backend contract) ...
        for t, p in zip(thread_resp, process_resp):
            np.testing.assert_array_equal(t.indices, p.indices)
            np.testing.assert_array_equal(t.distances, p.distances)
        # ... then identical worker-side counter totals: every engine
        # counter the thread run recorded arrived over the pipes.
        thread_counters = {
            n: c.value for n, c in thread_reg._counters.items()
            if n.startswith("engine.")
        }
        process_counters = {
            n: c.value for n, c in process_reg._counters.items()
            if n.startswith("engine.")
        }
        assert thread_counters, "thread run recorded no engine counters"
        assert process_counters == thread_counters

    def test_per_worker_breakdown_present(self, cloud):
        registry, _ = _run_workload("process", cloud)
        flat = registry.as_dict()
        worker_ids = {
            name.split(".")[1]
            for name in flat
            if name.startswith("worker.")
        }
        assert len(worker_ids) == 2          # one worker per shard
        for worker_id in worker_ids:
            per_worker = {
                n: v for n, v in flat.items()
                if n.startswith(f"worker.{worker_id}.engine.")
            }
            assert per_worker, f"worker {worker_id} contributed no engine.*"
        # The per-worker engine.* query counts sum to the machine total.
        total = sum(
            v for n, v in flat.items()
            if n.startswith("worker.") and n.endswith("engine.exact.queries")
        )
        assert total == flat["engine.exact.queries"]

    def test_worker_histograms_merge(self, cloud):
        """Distribution/histogram state crosses the pipe, not just counters."""
        registry, _ = _run_workload("process", cloud)
        dists = {
            n for n in registry._distributions
            if n.startswith("engine.") or n.startswith("worker.")
        }
        assert any(n.startswith("engine.") for n in dists)

    def test_flushed_metrics_survive_sigkill(self, cloud):
        """A dead worker's already-flushed deltas persist; nothing hangs."""
        ref, queries = cloud
        registry = obs.enable()
        config = _config("process", n_shards=1)
        with KnnServer(ref, config) as server:
            server.query(queries, 8, timeout=60)
            # The reply that answered the query carried a flush; the
            # counters it shipped are merged before the future resolves.
            before = {
                n: c.value for n, c in registry._counters.items()
                if n.startswith("engine.")
            }
            assert before, "no worker metrics flushed before the kill"
            victim = server.stats()["execution"]["pids"][0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.time() + 10
            while _pid_alive(victim) and time.time() < deadline:
                time.sleep(0.05)
            after = {
                n: c.value for n, c in registry._counters.items()
                if n.startswith("engine.")
            }
            assert after == before           # flushed deltas survived
        # close() returned: no hang, and the registry is still intact.
        assert {
            n: c.value for n, c in registry._counters.items()
            if n.startswith("engine.")
        } == before


class TestRequestTracing:
    def test_trace_spans_from_two_pids_linked_by_request_id(
        self, cloud, tmp_path
    ):
        """One request's fan-out renders across >=2 processes."""
        registry, (exact, _) = _run_workload("process", cloud, trace=True)
        path = tmp_path / "serve.trace.json"
        obs.write_chrome_trace(path, registry)
        import json

        doc = json.loads(path.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        rid = exact.request_id
        linked = [
            e for e in spans
            if "args" in e and (
                e["args"].get("request_id") == rid
                or rid in e["args"].get("request_ids", [])
            )
        ]
        pids = {e["pid"] for e in linked}
        assert len(pids) >= 2, f"spans for request {rid} span pids {pids}"
        names = {e["name"] for e in linked}
        assert {"serve.admit", "serve.dispatch",
                "serve.worker.search", "serve.merge"} <= names
        # Every process that contributed spans is labelled.
        meta_pids = {
            e["pid"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {e["pid"] for e in spans} <= meta_pids

    def test_thread_backend_traces_the_same_stages(self, cloud):
        registry, (exact, _) = _run_workload("thread", cloud, trace=True)
        names = {
            e["name"] for e in registry.events
            if e["ph"] == "X" and "args" in e and (
                e["args"].get("request_id") == exact.request_id
                or exact.request_id in e["args"].get("request_ids", [])
            )
        }
        assert {"serve.admit", "serve.dispatch",
                "serve.worker.search", "serve.merge"} <= names

    def test_request_ids_are_distinct_and_reported(self, cloud):
        ref, queries = cloud
        with KnnServer(ref, _config("thread")) as server:
            a = server.query(queries[:4], 2, timeout=60)
            b = server.query(queries[:4], 2, timeout=60)
        assert a.request_id != b.request_id
        assert a.request_id >= 0 and b.request_id >= 0


class TestStatsSurface:
    def test_counters_live_without_observability(self, cloud):
        """stats() counters are server-maintained, not registry-backed."""
        ref, queries = cloud
        assert not obs.get_registry().enabled
        with KnnServer(ref, _config("thread")) as server:
            server.query(queries, 8, timeout=60)
            server.query(queries[:8], 4, timeout=60)
            stats = server.stats()
        counters = stats["counters"]
        assert counters["serve.requests"] == 2
        assert counters["serve.completed"] == 2
        assert counters["serve.rows"] == queries.shape[0] + 8
        assert counters["serve.batches"] >= 1
        assert stats["uptime_s"] > 0
        assert 0.0 <= stats["queue_fill"] <= 1.0


def _documented_serve_names() -> list[re.Pattern]:
    """The ``serve.`` row of docs/observability.md "Metric names".

    ``<id>`` matches one name component and a trailing ``.*`` matches
    the name itself and anything under it.  Parenthesised remarks are
    prose, not names.
    """
    doc = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
    table = doc.read_text().split("## Metric names", 1)[1]
    row = next(
        line for line in table.splitlines() if line.startswith("| `serve.` |")
    )
    cell = re.sub(r"\([^)]*\)", "", row.split("|")[2])
    wild = {"<id>": r"[^.]+", ".*": r"(\..+)?"}
    return [
        re.compile("".join(
            wild.get(part, re.escape(part))
            for part in re.split(r"(<id>|\.\*$)", "serve." + entry)
        ))
        for entry in re.findall(r"`([^`]+)`", cell)
    ]


class TestMetricNames:
    def test_every_emitted_serve_name_is_documented(self, cloud):
        ref, queries = cloud
        registry = obs.enable()
        with KnnServer(ref, _config("thread")) as server:
            server.query(queries, 8)
            server.query(queries[:16], 4, mode="approx")
            server.query_radius(queries[:16], 2.0, max_neighbors=4)
            server.update_reference(ref[::-1])
            server.update_reference_shards(server._shards)
        with KnnServer(ref, _config("process")) as server:
            server.query(queries[:8], 4, timeout=60)
            server.query_radius(queries[:8], 2.0, max_neighbors=4, timeout=60)
        sessions = SessionConfig(
            max_resident=1, serve=ServeConfig(max_delay_s=0.0)
        )
        with SessionManager(sessions) as fleet:
            fleet.observe_frame("t0", ref[:400])      # create
            fleet.observe_frame("t0", ref[400:800])   # incremental update
            fleet.observe_frame("t1", ref[800:1200])  # spills t0
            fleet.query("t0", queries[:8], k=4)       # restores t0
        snapshot = registry.snapshot()
        emitted = {
            name
            for kind in ("counters", "gauges", "distributions", "histograms")
            for name in snapshot[kind]
            if name.startswith("serve.")
        }
        assert "serve.radius_requests" in emitted
        assert "serve.sessions.restored" in emitted
        documented = _documented_serve_names()
        undocumented = sorted(
            name for name in emitted
            if not any(p.fullmatch(name) for p in documented)
        )
        assert not undocumented, (
            f"emitted but missing from docs/observability.md: {undocumented}"
        )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    return True
