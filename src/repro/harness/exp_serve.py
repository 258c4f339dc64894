"""Serving-layer load experiment: micro-batching and sharding throughput.

Not a figure from the paper — QuickNN's evaluation stops at the
accelerator — but the serving question its throughput architecture
implies: given concurrent queriers over one 30k-point frame, how much
does coalescing their queries into engine-sized batches buy, and does
sharding the tree change the answers?  Three closed-loop arms over the
same frame, plus a deliberately overloaded open-loop arm to show that
admission control sheds typed rejections instead of degrading answers
silently.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import lidar_frame
from repro.harness.result import ExperimentResult
from repro.kdtree import build_flat, knn_exact_batched
from repro.serve import KnnServer, ServeConfig, run_closed_loop, run_open_loop


def serve_fleet(
    n_tenants: int = 16,
    n_frames: int = 3,
    points_per_frame: int = 2000,
    queries_per_frame: int = 32,
    max_resident: int | None = None,
    *,
    seed: int = 0,
) -> ExperimentResult:
    """Many concurrent drives on one bounded machine, zero rebuilds.

    Replays ``n_tenants`` synthetic drives through the per-tenant
    session layer with residency capped at half the fleet, so sessions
    must spill to disk and restore mid-drive.  The shape checks are the
    session layer's contract: every frame after a session's first goes
    through the incremental fast path (``build.calls`` stays at one per
    tenant), spilled sessions come back and keep serving, and no
    request errors.
    """
    from repro.obs import MetricsRegistry, use_registry
    from repro.serve.fleet import FleetConfig, run_fleet
    from repro.serve.sessions import SessionConfig

    if max_resident is None:
        max_resident = max(1, n_tenants // 2)
    config = FleetConfig(
        n_tenants=n_tenants,
        n_frames=n_frames,
        points_per_frame=points_per_frame,
        queries_per_frame=queries_per_frame,
        seed=seed,
        distinct_drives=min(4, n_tenants),
        session=SessionConfig(max_resident=max_resident),
    )
    with use_registry(MetricsRegistry()):
        report = run_fleet(config)

    agg = report.aggregate()
    counters = report.manager_stats["counters"]
    spills = int(counters.get("serve.sessions.spilled", 0))
    restores = int(counters.get("serve.sessions.restored", 0))
    rows = [
        ["tenants", n_tenants],
        ["frames per tenant", n_frames],
        ["max resident sessions", max_resident],
        ["frames observed", report.frames_observed],
        ["requests completed", agg["completed"]],
        ["requests shed", agg["shed"]],
        ["request errors", agg["errors"]],
        ["full tree builds", int(report.full_builds)],
        ["incremental updates", int(report.incremental_updates)],
        ["sessions spilled", spills],
        ["sessions restored", restores],
        ["wall seconds", round(report.duration_s, 2)],
    ]
    return ExperimentResult(
        exp_id="serve-fleet",
        title="Session fleet: concurrent drives, incremental updates, "
        "spill/restore",
        headers=["metric", "value"],
        rows=rows,
        paper_says=(
            "QuickNN keeps one evolving index per LiDAR stream and updates "
            "it incrementally instead of rebuilding (Sec 4.4); hosting many "
            "such streams on one machine must preserve that property per "
            "stream"
        ),
        notes=(
            f"residency capped at {max_resident}/{n_tenants}; spill/restore "
            f"churn {spills}/{restores}"
        ),
        shape_checks={
            "one full build per tenant, none after": report.zero_rebuild
            is True,
            "every frame observed": report.frames_observed
            == n_tenants * n_frames,
            "zero errored requests": agg["errors"] == 0
            and report.frame_errors == 0,
            "residency pressure forced spills": spills > 0,
            "spilled sessions restored and kept serving": restores > 0,
        },
    )


def serve_load(
    n_points: int = 30_000,
    n_queries: int = 2048,
    k: int = 8,
    concurrency: int = 64,
    n_shards: int = 4,
    *,
    seed: int = 0,
) -> ExperimentResult:
    """Throughput of one-at-a-time vs micro-batched vs sharded serving.

    Every arm drives the same exact-mode queries through a
    :class:`~repro.serve.server.KnnServer`; only the submission pattern
    and shard count change.  The identity check compares the sharded
    server's answers bit-for-bit against the unsharded engine's
    ``knn_exact_batched`` ground truth — sharding and serving must not
    change exact answers.
    """
    reference = lidar_frame(n_points, seed=seed).xyz
    rng = np.random.default_rng(seed + 1)
    queries = (
        reference[rng.permutation(reference.shape[0])[:n_queries]]
        + rng.normal(scale=0.05, size=(n_queries, 3))
    )

    flat, _ = build_flat(reference)
    truth, _ = knn_exact_batched(flat, queries, k)

    rows = []
    throughput = {}
    errors_total = 0
    identical = True
    for label, shards, conc in (
        ("one-at-a-time", 1, 1),
        ("micro-batched", 1, concurrency),
        (f"sharded x{n_shards}", n_shards, concurrency),
    ):
        config = ServeConfig(n_shards=shards, max_queue=max(4096, n_queries))
        with KnnServer(reference, config) as server:
            report = run_closed_loop(server, queries, k, concurrency=conc)
            check = server.query(queries, k)
        identical &= bool(
            np.array_equal(check.indices, truth.indices)
            and np.array_equal(check.distances, truth.distances)
        )
        throughput[label] = report.throughput_qps
        errors_total += report.errors
        rows.append(
            [
                label,
                shards,
                conc,
                report.completed,
                report.shed,
                report.errors,
                round(report.throughput_qps),
                round(report.percentile(50), 2),
                round(report.percentile(99), 2),
            ]
        )

    # Overload arm: offer far beyond capacity into a small queue; the
    # server must answer what it admits and shed the rest as typed
    # Overloaded rejections — the errors column stays zero.
    overload_config = ServeConfig(n_shards=1, max_queue=64, request_timeout_s=None)
    with KnnServer(reference, overload_config) as server:
        overload = run_open_loop(
            server, queries, k, rate_qps=20_000.0, duration_s=0.5, seed=seed
        )
    errors_total += overload.errors
    rows.append(
        [
            "overloaded",
            1,
            "open-loop",
            overload.completed,
            overload.shed,
            overload.errors,
            round(overload.throughput_qps),
            round(overload.percentile(50), 2),
            round(overload.percentile(99), 2),
        ]
    )

    speedup = throughput["micro-batched"] / max(throughput["one-at-a-time"], 1e-9)
    return ExperimentResult(
        exp_id="serve-load",
        title="Serving throughput: micro-batching and sharding on one frame",
        headers=[
            "arm", "shards", "clients", "completed", "shed", "errors",
            "rows/s", "p50 ms", "p99 ms",
        ],
        rows=rows,
        paper_says=(
            "QuickNN's throughput comes from batching parallel queries "
            "against a shared tree; the software serving analogue should "
            "show the same coalescing win without changing exact answers"
        ),
        notes=f"micro-batched vs one-at-a-time speedup: {speedup:.1f}x",
        shape_checks={
            "micro-batching >= 3x one-at-a-time throughput": speedup >= 3.0,
            "zero errored requests in every arm": errors_total == 0,
            "sharded serving bit-identical to unsharded exact engine": identical,
            "overload sheds typed rejections": overload.shed > 0,
            "overload still answers admitted requests": overload.completed > 0,
        },
    )
