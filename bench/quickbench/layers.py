"""Per-layer metrics of a traced run, read from the program's registry.

Counters and timers are read as deltas over the measured window, so
set-up work does not leak into them; ``build.flat_ms`` is the exception,
because the full builds a workload runs happen during set-up.
"""

from __future__ import annotations

import time

from quickbench import catalog
from quickbench.common import median


class Window:
    """The measured window: its start time and registry deltas across it."""

    def __init__(self, registry):
        self.registry = registry
        self.start = time.perf_counter()
        self._before = registry.snapshot() if registry is not None else None
        self._after = None

    def close(self) -> None:
        if self.registry is not None:
            self._after = self.registry.snapshot()

    def counter(self, name: str) -> float:
        if self._after is None:
            return 0.0
        return (self._after["counters"].get(name, 0)
                - self._before["counters"].get(name, 0))

    def dist(self, name: str, *, whole_run: bool = False) -> tuple[int, float]:
        """``(count, total)`` of a distribution over the window (or the run)."""
        if self._after is None:
            return 0, 0.0
        after = self._after["distributions"].get(name, {})
        before = {} if whole_run else self._before["distributions"].get(name, {})
        return (after.get("count", 0) - before.get("count", 0),
                after.get("total", 0.0) - before.get("total", 0.0))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def program_metrics(window: Window, events) -> dict[str, float]:
    """Every per-layer metric, zero-filled, with the registry-derived ones set."""
    m = {name: 0.0 for name in catalog.PER_LAYER}
    c = window.counter
    _, approx_s = window.dist("engine.approx.seconds")
    _, exact_s = window.dist("engine.exact.seconds")
    _, radius_s = window.dist("engine.radius.seconds")
    m["engine.approx_us_per_row"] = _ratio(approx_s, c("engine.approx.queries"), 1e6)
    m["engine.exact_us_per_row"] = _ratio(exact_s, c("engine.exact.queries"), 1e6)
    m["engine.exact.unsettled_share"] = _ratio(
        c("engine.exact.unsettled"), c("engine.exact.queries"))
    m["engine.exact.scans_per_row"] = _ratio(
        c("engine.exact.bucket_scans"), c("engine.exact.queries"))
    m["engine.rows_per_call"] = _ratio(
        c("engine.approx.queries") + c("engine.exact.queries"),
        c("engine.approx.calls") + c("engine.exact.calls"))
    m["radius.us_per_row"] = _ratio(radius_s, c("engine.radius.queries"), 1e6)
    m["radius.pairs_per_row"] = _ratio(c("engine.radius.pairs"), c("engine.radius.queries"))
    m["radius.scans_per_row"] = _ratio(
        c("engine.radius.bucket_scans"), c("engine.radius.queries"))
    m["incremental.rebuilt_share"] = _ratio(
        c("build.incremental.points_rebuilt"), c("build.incremental.points"))
    m["incremental.merges"] = c("build.incremental.merges")
    m["incremental.splits"] = c("build.incremental.splits")
    builds, build_s = window.dist("build.vectorized.seconds", whole_run=True)
    m["build.flat_ms"] = _ratio(build_s, builds, 1e3)
    fills, fill_rows = window.dist("serve.batch_fill")
    m["batcher.batch_rows_mean"] = _ratio(fill_rows, fills)
    m["batcher.batches"] = c("serve.batches")
    m["batcher.shed"] = c("serve.shed")
    m["backend.retries"] = c("serve.retries")
    m["backend.hedges"] = c("serve.hedges")
    m["backend.timeouts"] = c("serve.timeouts")
    if events is not None:
        m["backend.dispatch_ms_p50"] = median(
            events.durations_ms("serve.dispatch", after=window.start))
        m["backend.search_ms_p50"] = median(
            events.durations_ms("serve.worker.search", after=window.start))
    return m


def request_metrics(m: dict, events, requests) -> list:
    """Fill the request-path metrics from per-request program spans.

    ``requests`` yields ``(request_id, due, sent, returned, kind)`` for
    every answered request.  Returns each request's
    :class:`~quickbench.tracing.RequestStages`, in order.
    """
    from quickbench.tracing import request_stages

    submit, queue, ipc, all_stages = [], [], [], []
    # One merge serves every request of its batch: count each span once.
    merges: dict[str, dict[tuple, float]] = {"knn": {}, "radius": {}}
    for request_id, due, sent, returned, kind in requests:
        stages = request_stages(events, request_id, due, sent, kind)
        all_stages.append(stages)
        submit.append((returned - sent) * 1e3)
        if stages.queue_wait_s is not None:
            queue.append(stages.queue_wait_s * 1e3)
        if stages.ipc_s is not None:
            ipc.append(stages.ipc_s * 1e3)
        for layer, start, end in stages.intervals:
            if layer == "serve.sharding":
                merges[kind][(start, end)] = (end - start) * 1e3
    m["batcher.submit_ms_p50"] = median(submit)
    m["batcher.queue_wait_ms_p50"] = median(queue)
    m["backend.ipc_ms_p50"] = median(ipc)
    m["merge.knn_ms_p50"] = median(merges["knn"].values())
    m["merge.radius_ms_p50"] = median(merges["radius"].values())
    return all_stages
