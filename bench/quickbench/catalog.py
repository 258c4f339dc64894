"""Every metric the benchmark emits: name, unit, and which way is better.

``BENCHMARK.json`` at the repository root must list exactly these names
(``bench/tests`` checks it).  End-to-end metrics apply to every
workload, so each run reports all of them; what each one counts on a
given workload is in ``bench/README.md``.  Per-layer metrics are grouped
by the program module (the layer) whose public calls they time; a layer
a workload bypasses reports 0.
"""

from __future__ import annotations

import re

#: Metric and workload names: what ``BENCHMARK.json`` accepts.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS = ("frame-stream", "serve-knn", "serve-mixed", "fleet-churn")

#: name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "latency_ms_p50": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "rss_peak_mb": ("MB", "lower"),
}

#: layer (program module, or the benchmark's own load generator) ->
#: [(name, unit, better)]
LAYERS: dict[str, list[tuple[str, str, str]]] = {
    "loadgen": [
        ("loadgen.late_ms_p99", "ms", "lower"),
        ("loadgen.offered", "count", "higher"),
    ],
    "serve.batcher": [
        ("batcher.submit_ms_p50", "ms", "lower"),
        ("batcher.queue_wait_ms_p50", "ms", "lower"),
        ("batcher.batch_rows_mean", "rows", "higher"),
        ("batcher.batches", "count", "lower"),
        ("batcher.queue_rows_max", "rows", "lower"),
        ("batcher.shed", "count", "lower"),
    ],
    "serve.backends": [
        ("backend.dispatch_ms_p50", "ms", "lower"),
        ("backend.ipc_ms_p50", "ms", "lower"),
        ("backend.search_ms_p50", "ms", "lower"),
        ("backend.retries", "count", "lower"),
        ("backend.hedges", "count", "lower"),
        ("backend.timeouts", "count", "lower"),
    ],
    "serve.sharding": [
        ("merge.knn_ms_p50", "ms", "lower"),
        ("merge.radius_ms_p50", "ms", "lower"),
    ],
    "kdtree.engine": [
        ("engine.approx_us_per_row", "us/row", "lower"),
        ("engine.exact_us_per_row", "us/row", "lower"),
        ("engine.exact.unsettled_share", "share", "lower"),
        ("engine.exact.scans_per_row", "scans/row", "lower"),
        ("engine.rows_per_call", "rows", "higher"),
    ],
    "query.radius": [
        ("radius.us_per_row", "us/row", "lower"),
        ("radius.pairs_per_row", "pairs/row", "lower"),
        ("radius.scans_per_row", "scans/row", "lower"),
    ],
    "kdtree.incremental": [
        ("incremental.update_ms_p50", "ms", "lower"),
        ("incremental.flatten_ms_p50", "ms", "lower"),
        ("incremental.rebuilt_share", "share", "lower"),
        ("incremental.merges", "count", "lower"),
        ("incremental.splits", "count", "lower"),
    ],
    "kdtree.flat_build": [
        ("build.flat_ms", "ms", "lower"),
        ("build.handoff_ms_p50", "ms", "lower"),
    ],
    "serve.sessions": [
        ("sessions.hit_share", "share", "higher"),
        ("sessions.resident_frame_ms_p50", "ms", "lower"),
        ("sessions.restored_frame_ms_p50", "ms", "lower"),
        ("sessions.spills", "count", "lower"),
        ("sessions.restores", "count", "lower"),
        ("sessions.spill_kb_per_session", "KB", "lower"),
        ("sessions.resident_mb_max", "MB", "lower"),
    ],
    # Not a layer: the traced run's own end-to-end reading (compare it
    # with the untraced latency_ms_p50 for the tracing overhead) and the
    # share of end-to-end time no layer span covers.
    "trace": [
        ("trace.latency_ms_p50", "ms", "lower"),
        ("trace.unattributed_share", "share", "lower"),
    ],
}

PER_LAYER: dict[str, tuple[str, str]] = {
    name: (unit, better)
    for metrics in LAYERS.values()
    for name, unit, better in metrics
}

#: Program layers whose self time the traced run attributes.
TIMED_LAYERS = tuple(layer for layer in LAYERS if layer != "trace")
