"""``quicknn-serve``: drive a KnnServer against a synthetic LiDAR frame.

Three subcommands:

* ``bench`` — closed-loop throughput comparison: one-at-a-time
  (``concurrency=1``) versus concurrent submission through the same
  micro-batching server.  The speedup column is the serving layer's
  reason to exist; the acceptance bar is >= 3x on the paper's
  30k-point operating frame.  With ``--backend process`` a thread
  reference arm also runs, so the report carries
  ``process_speedup_vs_thread``; ``--bench-json`` writes a
  trajectory record (``quicknn-bench-serve/v1`` schema) with
  machine-normalized numbers and honesty notes.
* ``load`` — open-loop Poisson arrivals at a fixed offered rate;
  reports latency percentiles and typed shed/timeout counts.  With
  ``--fail-on-errors`` the exit code asserts a clean run (the CI
  serve-smoke job, which runs it under both execution backends).
* ``smoke`` — a fast preset of ``load`` sized for CI (~seconds).
* ``fleet`` — N concurrent synthetic drives through the per-tenant
  session layer (:mod:`repro.serve.sessions`): every tenant's first
  frame builds its index once, every later frame takes the incremental
  fast path and warm-hands over, idle sessions spill to disk and
  restore bit-identically.  ``--fail-on-rebuild`` asserts the
  steady-state contract (zero full rebuilds after session creation)
  from the ``build.*`` counters.

All subcommands accept ``--json PATH`` to write the full report as a
machine-readable artifact, including a snapshot of the ``serve.*``
metrics, and ``--backend {thread,process}`` to pick the execution
backend (see ``docs/serving.md``).  Observability flags work under
*both* backends — worker processes stream their metric deltas and
trace spans back to the coordinator:

* ``--profile PATH`` — full machine-wide metric dump (JSON), including
  the worker-side ``engine.*`` totals and per-worker ``worker.<i>.*``
  breakdowns;
* ``--trace PATH`` — one merged Chrome/Perfetto trace with every
  process on its own labelled track, spans stamped with request ids;
* ``--prom PATH`` — Prometheus text exposition of the same registry;
* ``--stats-interval S`` — a periodic one-line server stats report on
  stderr (``load``/``smoke`` default to 1s; ``bench`` is opt-in).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading

import numpy as np

from repro.datasets import lidar_frame
from repro.obs import (
    MetricsRegistry,
    set_registry,
    write_chrome_trace,
    write_profile,
    write_prometheus,
)
from repro.serve.backends import available_backends
from repro.serve.config import ExecutionConfig, ServeConfig
from repro.serve.loadgen import run_closed_loop, run_open_loop
from repro.serve.server import KnnServer

#: Schema tag of the --bench-json artifact (bump on layout changes).
BENCH_SCHEMA = "quicknn-bench-serve/v1"


def _add_server_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--points", type=int, default=30_000,
                        help="reference frame size (default: 30000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="frame/query RNG seed (default: 0)")
    parser.add_argument("--shards", type=int, default=1,
                        help="point shards (default: 1)")
    parser.add_argument("--sharding", choices=("round-robin", "spatial"),
                        default="round-robin")
    parser.add_argument("--replicas", type=int, default=1,
                        help="shard replicas: worker threads per shard, or the "
                        "default worker-process count (default: 1)")
    parser.add_argument("--backend", choices=available_backends(),
                        default="thread",
                        help="execution backend (default: thread)")
    parser.add_argument("--processes", type=int, default=None,
                        help="worker processes per shard under --backend "
                        "process (default: --replicas)")
    parser.add_argument("--max-batch", type=int, default=256,
                        help="micro-batch size in query rows (default: 256)")
    parser.add_argument("--max-delay-ms", type=float, default=0.5,
                        help="how long a non-full batch waits for company "
                        "while a replica is idle; while all are busy, rows "
                        "coalesce regardless (default: 0.5)")
    parser.add_argument("--max-queue", type=int, default=4096,
                        help="admission bound in queued rows (default: 4096)")
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--mode", choices=("exact", "approx"), default="exact")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the report as JSON to PATH ('-' = stdout)")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="write the machine-wide metric profile (JSON, "
                        "worker-side engine.* included) to PATH")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record spans and write one merged Chrome/"
                        "Perfetto trace (all processes) to PATH")
    parser.add_argument("--prom", metavar="PATH", default=None,
                        help="write a Prometheus text exposition of the "
                        "metrics to PATH")
    parser.add_argument("--stats-interval", type=float, default=None,
                        metavar="S",
                        help="print a server stats line to stderr every S "
                        "seconds (0 disables; load/smoke default 1s)")


def _make_config(args, *, backend: str | None = None) -> ServeConfig:
    return ServeConfig(
        n_shards=args.shards,
        sharding=args.sharding,
        n_replicas=args.replicas,
        max_batch_size=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        max_queue=args.max_queue,
        execution=ExecutionConfig(
            backend=backend if backend is not None else args.backend,
            processes=args.processes,
        ),
    )


def _workload(args) -> tuple[np.ndarray, np.ndarray]:
    reference = lidar_frame(args.points, seed=args.seed).xyz
    rng = np.random.default_rng(args.seed + 1)
    jitter = rng.normal(scale=0.05, size=reference.shape)
    queries = reference[rng.permutation(reference.shape[0])] + jitter
    return reference, queries


def _emit(payload: dict, json_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if json_path == "-":
        print(text)
    elif json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _serve_metrics(registry: MetricsRegistry) -> dict:
    return {
        name: value
        for name, value in registry.as_dict().items()
        if name.startswith("serve.")
    }


def _make_registry(args) -> MetricsRegistry:
    """The run's live registry; tracing on iff ``--trace`` asked for it."""
    registry = MetricsRegistry(trace=args.trace is not None)
    set_registry(registry)
    return registry


def _write_obs_artifacts(registry: MetricsRegistry, args, **sections) -> None:
    if args.profile:
        write_profile(args.profile, registry, **sections)
    if args.trace:
        write_chrome_trace(args.trace, registry)
    if args.prom:
        write_prometheus(args.prom, registry)


def _stats_line(stats: dict) -> str:
    counters = stats["counters"]

    def c(name):
        return int(counters.get(f"serve.{name}", 0))

    return (
        f"[stats] gen={stats['generation']} queue={stats['queue_rows']} "
        f"inflight={stats['inflight_jobs']} degrade={stats['degrade_level']} "
        f"completed={c('completed')} shed={c('shed')} "
        f"timeouts={c('timeouts')} retries={c('retries')} "
        f"errors={c('errors')}"
    )


class _StatsReporter:
    """Background thread printing one server stats line per interval.

    The CLI's live surface: ``quicknn-serve load --stats-interval 1``
    shows queue depth, degradation level, and the lifetime counters
    while the run is in progress, on stderr so report parsing of
    stdout/``--json`` stays clean.  A non-positive interval disables
    the reporter entirely (zero threads started).
    """

    def __init__(self, server: KnnServer, interval_s: float | None):
        self._server = server
        self._interval = interval_s or 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "_StatsReporter":
        if self._interval > 0:
            self._thread = threading.Thread(
                target=self._run, name="serve-stats", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                print(_stats_line(self._server.stats()), file=sys.stderr)
            except Exception:  # pragma: no cover - racing server close
                return

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)


def _bench_arm(reference, queries, config, args, *, concurrency: int,
               repeats: int, stats_interval: float = 0.0) -> dict:
    """Run one closed-loop arm ``repeats`` times; report the best run.

    Best-of is the standard defence against scheduler noise on shared
    machines: the fastest repeat is the least-interfered measurement.
    The per-repeat throughputs are kept so the artifact stays honest
    about the spread.
    """
    best = None
    runs = []
    with KnnServer(reference, config) as server, \
            _StatsReporter(server, stats_interval):
        for _ in range(repeats):
            report = run_closed_loop(
                server, queries, args.k, mode=args.mode,
                concurrency=concurrency,
            )
            runs.append(report.throughput_qps)
            if best is None or report.throughput_qps > best.throughput_qps:
                best = report
    out = best.as_dict()
    out["throughput_qps_runs"] = runs
    out["repeats"] = repeats
    return out


def _machine_info() -> dict:
    import os

    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _bench_artifact(bench: dict, args) -> dict:
    """The ``--bench-json`` trajectory record (``quicknn-bench-serve/v1``).

    Throughputs are additionally normalized per CPU core so numbers
    from different machines land on comparable footing, and
    ``extra_info.notes`` records every caveat a reader needs before
    trusting a comparison.
    """
    machine = _machine_info()
    cores = machine["cpu_count"]
    notes = [
        "best-of-{} closed-loop runs per arm; per-repeat throughputs "
        "kept in throughput_qps_runs".format(bench["repeats"]),
        "qps_per_core divides by os.cpu_count(); it normalizes machine "
        "size, not memory bandwidth or clock",
    ]
    if cores < 4:
        notes.append(
            f"measured on a {cores}-core machine: the process backend "
            "cannot demonstrate multi-core scaling here (expect <=1x vs "
            "thread); re-run on >=4 cores for the scaling claim"
        )
    benchmarks = []
    for arm in ("one_at_a_time", "micro_batched", "micro_batched_thread"):
        if arm not in bench:
            continue
        qps = bench[arm]["throughput_qps"]
        benchmarks.append(
            {
                "name": f"serve.{arm}",
                "backend": bench["backend"] if arm != "micro_batched_thread"
                else "thread",
                "qps": qps,
                "qps_per_core": qps / cores,
                "qps_runs": bench[arm]["throughput_qps_runs"],
                "latency_ms_p50": bench[arm]["latency_ms"]["p50"],
                "latency_ms_p99": bench[arm]["latency_ms"]["p99"],
            }
        )
    return {
        "schema": BENCH_SCHEMA,
        "params": {
            "points": bench["n_reference"],
            "queries": bench["n_queries"],
            "k": bench["k"],
            "mode": bench["mode"],
            "shards": args.shards,
            "replicas": args.replicas,
            "concurrency": args.concurrency,
            "backend": bench["backend"],
        },
        "machine": machine,
        "benchmarks": benchmarks,
        "derived": {
            "speedup_batched_vs_serial": bench["speedup"],
            "process_speedup_vs_thread": bench.get(
                "process_speedup_vs_thread"
            ),
        },
        "extra_info": {"notes": notes},
    }


def _cmd_bench(args) -> int:
    registry = _make_registry(args)
    stats_interval = args.stats_interval or 0.0   # opt-in for bench
    reference, queries = _workload(args)
    queries = queries[: args.queries]
    config = _make_config(args)
    baseline = _bench_arm(reference, queries, config, args,
                          concurrency=1, repeats=args.repeats,
                          stats_interval=stats_interval)
    batched = _bench_arm(reference, queries, config, args,
                         concurrency=args.concurrency, repeats=args.repeats,
                         stats_interval=stats_interval)
    speedup = (
        batched["throughput_qps"] / baseline["throughput_qps"]
        if baseline["throughput_qps"] > 0
        else float("inf")
    )
    bench = {
        "n_reference": int(reference.shape[0]),
        "n_queries": int(queries.shape[0]),
        "k": args.k,
        "mode": args.mode,
        "backend": args.backend,
        "repeats": args.repeats,
        "config": {
            "n_shards": config.n_shards,
            "max_batch_size": config.max_batch_size,
            "max_delay_s": config.max_delay_s,
            "backend": config.execution.backend,
        },
        "one_at_a_time": baseline,
        "micro_batched": batched,
        "speedup": speedup,
    }
    if args.backend == "process":
        # Reference arm: same batched load on the thread backend, so the
        # report can state the process backend's win (or honest loss).
        thread_config = _make_config(args, backend="thread")
        thread_batched = _bench_arm(
            reference, queries, thread_config, args,
            concurrency=args.concurrency, repeats=args.repeats,
        )
        bench["micro_batched_thread"] = thread_batched
        bench["process_speedup_vs_thread"] = (
            batched["throughput_qps"] / thread_batched["throughput_qps"]
            if thread_batched["throughput_qps"] > 0
            else float("inf")
        )
    payload = {"bench": bench, "metrics": _serve_metrics(registry)}
    _emit(payload, args.json)
    _write_obs_artifacts(registry, args, bench=bench)
    if args.bench_json:
        with open(args.bench_json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_bench_artifact(bench, args), indent=2,
                                sort_keys=True) + "\n")
    line = (
        f"[{args.backend}] one-at-a-time: "
        f"{baseline['throughput_qps']:,.0f} rows/s | "
        f"micro-batched (c={args.concurrency}): "
        f"{batched['throughput_qps']:,.0f} rows/s | speedup {speedup:.1f}x"
    )
    if "process_speedup_vs_thread" in bench:
        line += (
            f" | vs thread batched: "
            f"{bench['process_speedup_vs_thread']:.2f}x"
        )
    print(line)
    errors = baseline["errors"] + batched["errors"]
    if errors:
        print(f"FAIL: {errors} errored requests", file=sys.stderr)
        return 1
    return 0


def _cmd_load(args) -> int:
    registry = _make_registry(args)
    stats_interval = (
        1.0 if args.stats_interval is None else args.stats_interval
    )
    reference, queries = _workload(args)
    config = _make_config(args)
    with KnnServer(reference, config) as server, \
            _StatsReporter(server, stats_interval):
        report = run_open_loop(
            server, queries, args.k, mode=args.mode,
            rate_qps=args.rate, duration_s=args.duration,
            rows_per_request=args.rows_per_request, seed=args.seed,
            allow_degraded=args.allow_degraded,
        )
    payload = {
        "load": report.as_dict(),
        "config": {
            "n_shards": config.n_shards,
            "max_batch_size": config.max_batch_size,
            "max_delay_s": config.max_delay_s,
            "max_queue": config.max_queue,
        },
        "metrics": _serve_metrics(registry),
    }
    _emit(payload, args.json)
    _write_obs_artifacts(registry, args, load=report.as_dict())
    print(
        f"offered {report.offered} | completed {report.completed} | "
        f"shed {report.shed} | timed out {report.timed_out} | "
        f"errors {report.errors} | "
        f"p50 {report.percentile(50):.2f}ms p99 {report.percentile(99):.2f}ms"
    )
    if args.fail_on_errors and report.errors:
        print(f"FAIL: {report.errors} errored requests", file=sys.stderr)
        return 1
    if args.fail_on_errors and report.completed == 0:
        print("FAIL: no requests completed", file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args) -> int:
    from repro.serve.fleet import FleetConfig, run_fleet
    from repro.serve.sessions import SessionConfig

    registry = _make_registry(args)
    serve = ServeConfig(
        n_shards=1,
        max_batch_size=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        execution=ExecutionConfig(
            backend=args.backend, processes=args.processes
        ),
    )
    session = SessionConfig(
        serve=serve,
        max_resident=args.max_resident,
        eviction=args.eviction,
        max_outstanding_rows=args.max_queue,
        tenant_share=args.tenant_share,
    )
    config = FleetConfig(
        n_tenants=args.tenants,
        n_frames=args.frames,
        points_per_frame=args.points,
        queries_per_frame=args.queries_per_frame,
        rows_per_request=args.rows_per_request,
        k=args.k,
        mode=args.mode,
        seed=args.seed,
        distinct_drives=args.distinct_drives,
        session=session,
    )
    report = run_fleet(config)
    payload = {"fleet": report.as_dict(), "metrics": _serve_metrics(registry)}
    _emit(payload, args.json)
    _write_obs_artifacts(registry, args, fleet=report.as_dict())
    agg = report.aggregate()
    mgr = report.manager_stats
    print(
        f"[{args.backend}] {report.n_tenants} drives x {report.n_frames} "
        f"frames in {report.duration_s:.1f}s | "
        f"completed {agg['completed']} | shed {agg['shed']} | "
        f"errors {agg['errors']} | "
        f"builds {report.full_builds} | "
        f"incremental {report.incremental_updates} | "
        f"spills {int(mgr['counters'].get('serve.sessions.spilled', 0))} | "
        f"restores {int(mgr['counters'].get('serve.sessions.restored', 0))}"
    )
    failures = []
    if agg["errors"]:
        failures.append(f"{agg['errors']} errored requests")
    if report.frame_errors:
        failures.append(f"{report.frame_errors} failed frame observations")
    if agg["completed"] == 0 and config.queries_per_frame > 0:
        failures.append("no requests completed")
    if args.fail_on_rebuild and report.zero_rebuild is not True:
        failures.append(
            f"rebuild contract violated: {report.full_builds} full builds "
            f"for {report.n_tenants} tenants, "
            f"{report.incremental_updates} incremental updates "
            f"(expected {report.n_tenants * (report.n_frames - 1)})"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quicknn-serve",
        description="Load-test the repro.serve kNN serving layer on a "
        "synthetic LiDAR frame.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "bench", help="closed-loop throughput: one-at-a-time vs micro-batched"
    )
    _add_server_args(bench)
    bench.add_argument("--queries", type=int, default=4096,
                       help="query rows per arm (default: 4096)")
    bench.add_argument("--concurrency", type=int, default=64,
                       help="submitters in the batched arm (default: 64)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="closed-loop runs per arm; best-of is reported "
                       "(default: 3)")
    bench.add_argument("--bench-json", metavar="PATH", default=None,
                       help="write the trajectory record "
                       "(schema'd, machine-normalized) to PATH")
    bench.set_defaults(func=_cmd_bench)

    load = sub.add_parser(
        "load", help="open-loop Poisson load with latency percentiles"
    )
    _add_server_args(load)
    load.add_argument("--rate", type=float, default=2000.0,
                      help="offered requests/s (default: 2000)")
    load.add_argument("--duration", type=float, default=5.0,
                      help="offering window seconds (default: 5)")
    load.add_argument("--rows-per-request", type=int, default=1)
    load.add_argument("--allow-degraded", action="store_true",
                      help="let exact requests degrade under load")
    load.add_argument("--fail-on-errors", action="store_true",
                      help="exit 1 unless zero errored requests")
    load.set_defaults(func=_cmd_load)

    smoke = sub.add_parser(
        "smoke", help="CI preset of 'load': small frame, short window"
    )
    _add_server_args(smoke)
    smoke.add_argument("--rate", type=float, default=1500.0)
    smoke.add_argument("--duration", type=float, default=3.0)
    smoke.add_argument("--rows-per-request", type=int, default=1)
    smoke.add_argument("--allow-degraded", action="store_true")
    smoke.set_defaults(func=_cmd_load, fail_on_errors=True)

    fleet = sub.add_parser(
        "fleet", help="N concurrent synthetic drives through the session "
        "layer (per-tenant indexes, incremental updates, spill/restore)"
    )
    _add_server_args(fleet)
    fleet.add_argument("--tenants", type=int, default=32,
                       help="concurrent drive sessions (default: 32)")
    fleet.add_argument("--frames", type=int, default=4,
                       help="frames per drive (default: 4)")
    fleet.add_argument("--queries-per-frame", type=int, default=64,
                       help="query rows per tenant between frames "
                       "(default: 64)")
    fleet.add_argument("--rows-per-request", type=int, default=8)
    fleet.add_argument("--distinct-drives", type=int, default=4,
                       help="distinct synthetic drives scanned; tenants "
                       "replay them round-robin (default: 4)")
    fleet.add_argument("--max-resident", type=int, default=32,
                       help="resident session bound; beyond it idle "
                       "sessions spill to disk (default: 32)")
    fleet.add_argument("--eviction", choices=("lru", "cost-aware"),
                       default="lru")
    fleet.add_argument("--tenant-share", type=float, default=0.5,
                       help="fraction of --max-queue rows one tenant may "
                       "hold in flight (default: 0.5)")
    fleet.add_argument("--fail-on-rebuild", action="store_true",
                       help="exit 1 unless the run was zero-rebuild: one "
                       "full build per tenant, every later frame "
                       "incremental")
    # Fleet frames are per-tenant: default to a small frame so the
    # default invocation replays 32 drives in seconds, not minutes.
    # --shards/--sharding/--replicas do not apply (sessions are
    # unsharded; each tenant is a shard of the fleet).
    fleet.set_defaults(func=_cmd_fleet, points=2000)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
