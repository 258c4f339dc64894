"""The four workloads.

Each workload generates its inputs from the seed, sets the program up
several times (the median is ``setup_s``), measures for the requested
number of seconds, reads peak memory, tears down, and only then checks
the answers it kept against the oracle.  Why each workload exists, and
which layers it stresses or bypasses, is in ``bench/README.md``.
"""

from __future__ import annotations

import bisect
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from quickbench import inputs
from quickbench.common import (OUT, block_median, median, peak_rss_mb, percentile,
                               reset_peak_rss, tail_percentile)
from quickbench.layers import Window, program_metrics, request_metrics
from quickbench.loadgen import Step, make_schedule, run_open_loop, run_saturation
from quickbench.oracle import Oracle
from quickbench.tracing import Attribution, ProgramEvents, Spans

K = 8
#: A serving step passes when its tail latency stays under this limit
#: with no failed request.
LATENCY_LIMIT_MS = 50.0
RADIUS_M = 0.3
RADIUS_CAP = 64
#: Scenes are fixed per workload; the seed draws the scan noise, the
#: subsample, the query rows and the arrival times.  The scene layout
#: sets how much backtracking a query needs, so letting the seed pick
#: scenes would make runs of one workload differ by their scenes.  A
#: single frame's tree shape alone moves exact-search work by up to 25%
#: between scans, so the serving workloads keep one fixed scan (drive
#: seed 0) and the seed draws only rows and arrival times; the frame
#: workloads average over many scans.
STREAM_SCENE, SERVE_SCENE, FLEET_SCENES = 0, 1, 10
#: frame-stream steps run before its measured window.
WARM_STEPS = 2
clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``full`` is the benchmark; ``smoke`` is for its tests."""

    stream_frames: int
    stream_points: int
    check_rows: int         # frame-stream rows checked per step
    recall_rows: int        # frame-stream rows scored for recall per step
    serve_points: int
    request_rows: int
    fleet_drives: int
    fleet_frames: int
    fleet_points: int
    fleet_tenants: int
    fleet_hot: int
    fleet_resident: int
    setup_reps: int         # at least this many set-ups per run ...
    setup_seconds: float    # ... and at least this long in total


SCALES = {
    "full": Scale(26, 30_000, 64, 512, 30_000, 8, 6, 6, 4_000, 24, 6, 8, 5, 2.0),
    "smoke": Scale(4, 3_000, 16, 64, 3_000, 8, 2, 3, 1_000, 6, 2, 3, 2, 0.0),
}


@dataclass
class Run:
    """One invocation: what to run, for how long, and whether traced."""

    workload: str
    seed: int
    seconds: float
    scale: Scale
    registry: object = None         # live repro.obs registry when traced
    spans: Spans | None = None

    @property
    def traced(self) -> bool:
        return self.registry is not None


@dataclass
class Outcome:
    """What a workload measured and checked."""

    e2e: dict[str, float]
    details: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    wrong_rows: int
    checked_rows: int
    inputs_sha256: str
    per_layer: dict[str, float] = field(default_factory=dict)
    layers: dict | None = None
    steps: list[dict] = field(default_factory=list)
    #: The samples the latency statistics came from: start times (s from
    #: the first) and latencies (ms), so a result can be re-analysed.
    samples: dict = field(default_factory=dict)


def ping_pong(n: int) -> list[int]:
    """Frame order played forward then back: 0..n-1, n-2..1, repeating."""
    return list(range(n)) + list(range(n - 2, 0, -1)) if n > 2 else list(range(n))


def setup_rounds(scale: Scale, most: int = 500):
    """Repetitions of a workload's set-up; ``setup_s`` is their median.

    A millisecond set-up repeated for ``setup_seconds`` gives a median
    that a slow stretch over less than half of them cannot move; a slow
    set-up stops at ``setup_reps``.
    """
    start = clock()
    rep = 0
    while rep < most and (rep < scale.setup_reps
                          or clock() - start < scale.setup_seconds):
        yield rep
        rep += 1


def _samples(starts, seconds) -> dict:
    t0 = min(starts, default=0.0)
    return {"start_s": [round(t - t0, 6) for t in starts],
            "latency_ms": [round(x * 1e3, 4) for x in seconds]}


def _p90(values) -> float:
    return percentile(values, 90.0)


def _closed_loop_e2e(setups, starts, step_s, rss_mb) -> dict[str, float]:
    # latency_ms_p50 is a median over the whole window on every workload,
    # not a median of time-block medians: step times cluster by frame, and
    # the median of a block's few dozen steps jumps between clusters.  It
    # widened the run-to-run spread by up to 60% here, and gave serving
    # latency no steadier runs either.
    ms = [s * 1e3 for s in step_s]
    return {
        "setup_s": median(setups),
        "latency_ms_p50": median(ms),
        "throughput_per_s": block_median(starts, step_s, lambda v: len(v) / sum(v)),
        "rss_peak_mb": rss_mb,
    }


# ----------------------------------------------------------------------
# frame-stream: the paper's pipeline, no serving layers
# ----------------------------------------------------------------------
def frame_stream(run: Run) -> Outcome:
    """Successive frames: ``update_tree`` -> ``.flat()`` -> approximate kNN.

    The tree indexes frame ``t``; the whole of frame ``t + 1`` is the
    query batch, as in the paper's Tables 5-6.  One thread, closed loop.
    """
    from repro.kdtree import (KdTreeConfig, build_tree, knn_approx_batched,
                              knn_approx_loop, update_tree)

    s = run.scale
    frames = inputs.drive(run.seed, STREAM_SCENE, s.stream_frames, s.stream_points)
    order = ping_pong(len(frames))
    config = KdTreeConfig()
    rng = np.random.default_rng([run.seed, 1])

    reset_peak_rss()
    setups = []
    for _ in setup_rounds(s):
        t = clock()
        tree, _ = build_tree(frames[order[0]], config)
        knn_approx_batched(tree.flat(), frames[order[1]][:64], K)
        setups.append(clock() - t)

    # Untimed warm-up: the first full-frame steps fault in the query's
    # working set and ran up to twice as long as later ones.
    for step in range(WARM_STEPS):
        tree, _ = update_tree(tree, frames[order[(step + 1) % len(order)]], config)
        knn_approx_batched(tree.flat(), frames[order[(step + 2) % len(order)]], K)

    window = Window(run.registry)
    stamps, kept = [], []
    wrong = checked = 0
    deadline = clock() + run.seconds
    step = WARM_STEPS
    while clock() < deadline or len(stamps) < 2:
        cur = order[(step + 1) % len(order)]
        nxt = order[(step + 2) % len(order)]
        a = clock()
        tree, _ = update_tree(tree, frames[cur], config)
        b = clock()
        flat = tree.flat()
        c = clock()
        result = knn_approx_batched(flat, frames[nxt], K)
        d = clock()
        stamps.append((a, b, c, d))
        # Untimed: the loop reference on a sample, and rows kept for recall.
        rows = rng.choice(frames.shape[1], s.check_rows, replace=False)
        ref = knn_approx_loop(tree, frames[nxt][rows], K)
        same = ((ref.indices == result.indices[rows]).all(axis=1)
                & (ref.distances == result.distances[rows]).all(axis=1))
        wrong += int(np.count_nonzero(~same))
        checked += rows.size
        rows = rng.choice(frames.shape[1], s.recall_rows, replace=False)
        kept.append((cur, nxt, rows, result.indices[rows], result.distances[rows]))
        step += 1
    window.close()
    rss = peak_rss_mb()

    oracles: dict[int, Oracle] = {}
    hits = total = 0
    for cur, nxt, rows, idx, dst in kept:
        oracle = oracles.setdefault(cur, Oracle(frames[cur]))
        h, t = oracle.recall(frames[nxt][rows], idx, K)
        hits, total = hits + h, total + t
        wrong += oracle.inconsistent_rows(frames[nxt][rows], idx, dst)
        checked += rows.size

    step_s = [d - a for a, _, _, d in stamps]
    stamps_at = [a for a, _, _, _ in stamps]
    e2e = _closed_loop_e2e(setups, stamps_at, step_s, rss)
    details = {
        "frames_per_s": (e2e["throughput_per_s"], "1/s"),
        "frame_ms_p50": (e2e["latency_ms_p50"], "ms"),
        "frame_ms_p90": (block_median(stamps_at, [x * 1e3 for x in step_s], _p90), "ms"),
        "update_ms_p50": (median([(b - a) * 1e3 for a, b, _, _ in stamps]), "ms"),
        "query_ms_p50": (median([(d - c) * 1e3 for _, _, c, d in stamps]), "ms"),
        "recall_at_8": (hits / total if total else 0.0, "share"),
        "steps": (len(stamps), "count"),
    }
    out = Outcome(e2e, details, len(stamps), 0, wrong, checked,
                  inputs.sha256(frames),
                  samples=_samples(stamps_at, step_s))
    if run.traced:
        attribution = Attribution()
        for a, b, c, d in stamps:
            run.spans.add("frame.step", None, a, d)
            run.spans.add("incremental.update", "kdtree.incremental", a, b)
            run.spans.add("incremental.flatten", "kdtree.incremental", b, c)
            run.spans.add("engine.approx", "kdtree.engine", c, d)
            attribution.add_unit(a, d, [("kdtree.incremental", a, c),
                                        ("kdtree.engine", c, d)])
        m = program_metrics(window, None)
        m["incremental.update_ms_p50"] = median([(b - a) * 1e3 for a, b, _, _ in stamps])
        m["incremental.flatten_ms_p50"] = median([(c - b) * 1e3 for _, b, c, _ in stamps])
        out.per_layer, out.layers = _finish_layers(m, e2e, attribution)
    return out


def _finish_layers(m: dict, e2e: dict, attribution: Attribution):
    m["trace.latency_ms_p50"] = e2e["latency_ms_p50"]
    m["trace.unattributed_share"] = attribution.unattributed_share
    return m, attribution.as_dict()


# ----------------------------------------------------------------------
# serve-knn / serve-mixed: open-loop serving, then saturation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSpec:
    rates: tuple[float, float, float]   # low, nominal, high requests/s
    backend: str
    n_shards: int
    sharding: str
    radius_share: float = 0.0
    handoff_every_s: float | None = None


#: serve-knn runs one worker process beside the coordinator, so the two
#: busy processes match a 2-core machine.  With two shards, three busy
#: processes shared two cores, and the median latency moved half again
#: as much between runs as with one.  Its nominal rate sits well below
#: the knee: at 200 req/s the median latency spread 38% over ten runs,
#: against 10% at 100 req/s.
SERVE = {
    "serve-knn": ServeSpec((50, 100, 200), "process", 1, "round-robin"),
    "serve-mixed": ServeSpec((40, 80, 160), "thread", 1, "round-robin",
                             radius_share=0.25, handoff_every_s=2.0),
}
#: Shares of the run: open-loop low, nominal and high steps, then the
#: saturation window.  Latency is reported at the nominal step, which
#: gets most of the run because its median is what the bound gates.
STEP_SHARES = (0.1, 0.65, 0.1)
SATURATION_SHARE = 0.15
#: Requests held in flight while saturating: two full micro-batches.
SATURATION_INFLIGHT = 64
NOMINAL = 1


def serve(run: Run) -> Outcome:
    """Open-loop Poisson steps, then a saturation window, on one ``KnnServer``."""
    from repro.serve import ExecutionConfig, KnnServer, ServeConfig

    spec = SERVE[run.workload]
    s = run.scale
    n_refs = 2 if spec.handoff_every_s else 1
    frames = inputs.drive(0, SERVE_SCENE, n_refs + 1, s.serve_points)
    refs, queries = frames[:n_refs], frames[n_refs]
    steps = [Step(rate, run.seconds * share)
             for rate, share in zip(spec.rates, STEP_SHARES)]
    times, which = make_schedule(steps, run.seed)
    rng = np.random.default_rng([run.seed, 2])
    pool = max(times.size, 8192)
    rows = rng.integers(0, queries.shape[0], size=(pool, s.request_rows))
    is_radius = rng.random(pool) < spec.radius_share
    config = ServeConfig(
        n_shards=spec.n_shards,
        sharding=spec.sharding,
        max_queue=1 << 16,
        request_timeout_s=30.0,
        execution=ExecutionConfig(
            backend=spec.backend,
            processes=1 if spec.backend == "process" else None,
        ),
    )
    warm = queries[:s.request_rows]

    reset_peak_rss()
    setups, server = [], None
    try:
        for _ in setup_rounds(s):
            if server is not None:
                server.close()
            t = clock()
            server = KnnServer(refs[0], config)
            server.query(warm, K)
            if spec.radius_share:
                server.query_radius(warm, RADIUS_M, max_neighbors=RADIUS_CAP)
            setups.append(clock() - t)

        queue_rows: list[int] = []
        handoffs: list[tuple[int, object]] = []

        def on_tick(_now: float) -> None:
            queue_rows.append(server.stats()["queue_rows"])

        def handoff(j: int) -> None:
            handoffs.append((j % 2, server.update_reference_async(refs[j % 2])))

        events = []
        if spec.handoff_every_s:
            for j, at in enumerate(np.arange(spec.handoff_every_s, times[-1],
                                             spec.handoff_every_s), start=1):
                events.append((float(at), lambda j=j: handoff(j)))

        def send(i: int):
            q = queries[rows[i % pool]]
            if is_radius[i % pool]:
                return server.submit_radius(q, RADIUS_M, max_neighbors=RADIUS_CAP)
            return server.submit(q, K)

        window = Window(run.registry)
        load = run_open_loop(times, send, events=events, on_tick=on_tick)
        handed = []
        handoff_failures = 0
        for ref, future in handoffs:
            try:
                handed.append((ref, future.result(timeout=60)))
            except Exception:  # a failed handoff is a failed operation
                handoff_failures += 1
        saturation = run_saturation(
            lambda j: send(times.size + j),
            inflight=SATURATION_INFLIGHT,
            duration_s=run.seconds * SATURATION_SHARE,
        )
        window.close()
        rss = peak_rss_mb(server.stats()["execution"].get("pids", []))
    finally:
        if server is not None:
            server.close()

    generation_ref = {0: 0, **{h["generation"]: ref for ref, h in handed}}
    last_ref = handed[-1][0] if handed else 0
    oracles = [Oracle(r) for r in refs]
    kept = [(i, r, generation_ref.get(r.generation)) for i, r in load.responses.items()]
    kept += [(times.size + j, r, last_ref if r.generation == len(handed) else None)
             for j, r in saturation.responses.items()]
    wrong = checked = 0
    for i, response, ref in kept:
        q = queries[rows[i % pool]]
        radius = is_radius[i % pool]
        checked += q.shape[0]
        if ref is None or radius != hasattr(response, "offsets"):
            wrong += q.shape[0]
        elif radius:
            wrong += oracles[ref].radius_wrong_rows(
                q, response.indices, response.distances, response.offsets,
                RADIUS_M, RADIUS_CAP)
        else:
            wrong += oracles[ref].knn_wrong_rows(q, response.indices, response.distances, K)

    step_rows, max_ok = [], 0.0
    for index, step in enumerate(steps):
        mask = which == index
        lat = load.latency_ms(mask)
        n = int(mask.sum())
        q_tail = tail_percentile(n)
        tail = percentile(lat, q_tail)
        failures = int(np.count_nonzero(mask & ~load.ok))
        passed = failures == 0 and n > 0 and tail <= LATENCY_LIMIT_MS
        if passed:
            max_ok = step.rate
        step_rows.append({
            "rate": float(step.rate), "seconds": float(step.duration_s),
            "offered": n, "failed": failures,
            "p50_ms": float(percentile(lat, 50.0)), "tail_pct": float(q_tail),
            "tail_ms": float(tail), "passed": bool(passed),
        })

    nominal = which == NOMINAL
    radius_open = is_radius[:times.size]
    lat_all = load.latency_ms(nominal)
    nominal_due = load.due[nominal & load.ok]
    nominal_start = load.due[0] - times[0] + sum(x.duration_s for x in steps[:NOMINAL])
    nominal_span = np.nanmax(load.done[nominal]) - nominal_start
    goodput = np.count_nonzero(lat_all <= LATENCY_LIMIT_MS) / nominal_span
    lat_knn = load.latency_ms(nominal & ~radius_open)
    lat_radius = load.latency_ms(nominal & radius_open)
    attempted = times.size + saturation.attempted + len(handoffs)
    failed = load.failed + saturation.failed + handoff_failures
    e2e = {
        "setup_s": median(setups),
        "latency_ms_p50": median(lat_all),
        "throughput_per_s": goodput,
        "rss_peak_mb": rss,
    }
    details = {
        "latency_ms_p90": (block_median(nominal_due, lat_all, _p90), "ms"),
        "knn_ms_p50": (percentile(lat_knn, 50.0), "ms"),
        "knn_ms_p99": (percentile(lat_knn, 99.0), "ms"),
        "max_ok_rate_rps": (max_ok, "req/s"),
        "saturated_rps": (saturation.per_s, "req/s"),
        "fail_ratio": (failed / attempted, "share"),
        "nominal_samples": (int(lat_all.size), "count"),
    }
    if spec.radius_share:
        details["radius_ms_p50"] = (percentile(lat_radius, 50.0), "ms")
        details["radius_ms_p95"] = (percentile(lat_radius, 95.0), "ms")
        details["radius_samples"] = (int(lat_radius.size), "count")
        details["handoffs"] = (len(handed), "count")
    out = Outcome(e2e, details, attempted, failed, wrong, checked,
                  inputs.sha256(refs, queries, rows, times), steps=step_rows,
                  samples=_samples(nominal_due, lat_all / 1e3))
    if run.traced:
        events = ProgramEvents(run.registry)
        m = program_metrics(window, events)
        attribution = Attribution()
        answered = np.flatnonzero(load.ok)
        stages = request_metrics(m, events, (
            (int(load.request_ids[i]), load.due[i], load.sent[i],
             load.returned[i], "radius" if is_radius[i] else "knn")
            for i in answered
        ))
        for i, st in zip(answered, stages):
            attribution.add_unit(load.due[i], load.done[i], st.intervals)
        m["batcher.queue_rows_max"] = float(max(queue_rows, default=0))
        m["loadgen.late_ms_p99"] = percentile(load.late_ms(), 99.0)
        m["loadgen.offered"] = float(times.size)
        m["build.handoff_ms_p50"] = median([h["rebuild_s"] * 1e3 for _, h in handed])
        out.per_layer, out.layers = _finish_layers(m, e2e, attribution)
    return out


# ----------------------------------------------------------------------
# fleet-churn: sessions, incremental updates, spill and restore
# ----------------------------------------------------------------------
def fleet_churn(run: Run) -> Outcome:
    """Skewed tenant steps: ``observe_frame``, then four kNN requests.

    ``fleet_hot`` tenants take three quarters of the steps.  The hot set
    is smaller than the resident budget, so the LRU keeps it resident
    while cold tenants spill and restore through the spare slots.  With
    a hot set as large as the budget, every cold step also evicts a hot
    session, half of all steps restore, and the median step sits on the
    edge between the resident and restored populations.  Closed loop: a
    step waits for its four answers.
    """
    from repro.kdtree.node import KdTree
    from repro.serve import KnnServer, ServeConfig, SessionConfig, SessionManager
    from repro.serve import sessions as sessions_mod

    s = run.scale
    drives = [
        inputs.drive(run.seed, FLEET_SCENES + d, s.fleet_frames, s.fleet_points)
        for d in range(s.fleet_drives)
    ]
    tenants = [f"t{j:02d}" for j in range(s.fleet_tenants)]
    drive_of = [j % s.fleet_drives for j in range(s.fleet_tenants)]
    order = ping_pong(s.fleet_frames)
    rng = np.random.default_rng([run.seed, 3])
    config = SessionConfig(
        serve=ServeConfig(request_timeout_s=30.0),
        max_resident=s.fleet_resident,
    )
    spill_root = OUT / "spill" / str(os.getpid())

    reset_peak_rss()
    setups, manager = [], None
    try:
        for rep in setup_rounds(s, most=3):
            if manager is not None:
                manager.close()
            spill_dir = spill_root / str(rep)
            t = clock()
            manager = SessionManager(replace(config, spill_dir=spill_dir))
            for j, tenant in enumerate(tenants):
                manager.observe_frame(tenant, drives[drive_of[j]][order[0]])
            manager.query(tenants[-1], drives[drive_of[-1]][order[1]][:s.request_rows], K)
            setups.append(clock() - t)

        targets = []
        if run.traced:
            targets = [
                (sessions_mod, "update_tree", "incremental.update", "kdtree.incremental"),
                (KdTree, "flat", "incremental.flatten", "kdtree.incremental"),
                (KnnServer, "update_reference_shards", "build.handoff", "kdtree.flat_build"),
            ]
        cursor = [1] * len(tenants)
        steps, kept, requests = [], [], []
        resident_mb = []
        failed = attempted = 0
        before = manager.stats()["counters"]
        next_sample = 0.0
        window = Window(run.registry)
        with (run.spans.patched(targets) if run.traced else nullcontext()):
            deadline = clock() + run.seconds
            while clock() < deadline or not attempted:
                # Every fourth step is a cold tenant's, so the cold share
                # is exactly a quarter on every seed.
                if len(steps) % 4 != 3:
                    j = int(rng.integers(0, s.fleet_hot))
                else:
                    j = int(rng.integers(s.fleet_hot, len(tenants)))
                tenant, frames = tenants[j], drives[drive_of[j]]
                pos = cursor[j]
                cursor[j] += 1
                frame, after = order[pos % len(order)], order[(pos + 1) % len(order)]
                picks = rng.integers(0, frames.shape[1], size=(4, s.request_rows))
                attempted += 5
                a = clock()
                try:
                    info = manager.observe_frame(tenant, frames[frame])
                except Exception:  # counted; the fleet keeps going
                    failed += 5
                    continue
                b = clock()
                sent = []
                for r in range(4):
                    t_send = clock()
                    try:
                        future = manager.submit(tenant, frames[after][picks[r]], K)
                    except Exception:
                        failed += 1
                        continue
                    stamp = {"sent": t_send, "returned": clock()}
                    future.add_done_callback(lambda _f, st=stamp: st.setdefault("done", clock()))
                    sent.append((r, stamp, future))
                for r, stamp, future in sent:
                    try:
                        response = future.result(timeout=60)
                    except Exception:
                        failed += 1
                        continue
                    requests.append((response.request_id, stamp))
                    if len(requests) % 10 == 1:
                        kept.append((drive_of[j], frame, frames[after][picks[r]],
                                     response, info["generation"]))
                c = clock()
                steps.append((a, b, c, bool(info["restored"])))
                if c >= next_sample:
                    resident_mb.append(manager.stats()["resident_bytes"] / 1e6)
                    next_sample = c + 0.1
        window.close()
        counters = manager.stats()["counters"]
        rss = peak_rss_mb()
        spill_files = list(spill_dir.glob("*.npz"))
        spill_kb = (sum(p.stat().st_size for p in spill_files) / len(spill_files) / 1e3
                    if spill_files else 0.0)
    finally:
        if manager is not None:
            manager.close()
        shutil.rmtree(spill_root, ignore_errors=True)

    oracles: dict[tuple[int, int], Oracle] = {}
    wrong = checked = 0
    for drive_id, frame, q, response, generation in kept:
        checked += q.shape[0]
        if response.generation != generation:
            wrong += q.shape[0]
            continue
        oracle = oracles.setdefault((drive_id, frame), Oracle(drives[drive_id][frame]))
        wrong += oracle.knn_wrong_rows(q, response.indices, response.distances, K)

    step_s = [c - a for a, _, c, _ in steps]
    steps_at = [a for a, _, _, _ in steps]
    e2e = _closed_loop_e2e(setups, steps_at, step_s, rss)
    restored = [x[3] for x in steps]
    observe_ms = [(b - a) * 1e3 for a, b, _, _ in steps]

    def delta(name):
        return counters.get(name, 0) - before.get(name, 0)

    details = {
        "frames_per_s": (e2e["throughput_per_s"], "1/s"),
        "frame_ms_p50": (e2e["latency_ms_p50"], "ms"),
        "frame_ms_p90": (block_median(steps_at, [x * 1e3 for x in step_s], _p90), "ms"),
        "knn_ms_p50": (median([(st["done"] - st["sent"]) * 1e3 for _, st in requests
                               if "done" in st]), "ms"),
        "fail_ratio": (failed / attempted if attempted else 0.0, "share"),
        "steps": (len(steps), "count"),
        "restored_share": (sum(restored) / len(restored) if restored else 0.0, "share"),
    }
    all_drives = [d for drive in drives for d in drive]
    out = Outcome(e2e, details, attempted, failed, wrong, checked,
                  inputs.sha256(*all_drives),
                  samples=_samples(steps_at, step_s))
    if run.traced:
        events = ProgramEvents(run.registry)
        m = program_metrics(window, events)
        stages = request_metrics(m, events, (
            (request_id, st["sent"], st["sent"], st["returned"], "knn")
            for request_id, st in requests
        ))
        attribution = Attribution()
        for start, end, intervals in _fleet_units(steps, requests, stages, run.spans):
            attribution.add_unit(start, end, intervals)
        updates = run.spans.named("incremental.update")
        m["incremental.update_ms_p50"] = median([(x.end - x.start) * 1e3 for x in updates])
        m["incremental.flatten_ms_p50"] = median([
            (x.end - x.start) * 1e3 for x in run.spans.named("incremental.flatten")
            if not any(u.start <= x.start and x.end <= u.end for u in updates)
        ])
        m["build.handoff_ms_p50"] = median(
            [(x.end - x.start) * 1e3 for x in run.spans.named("build.handoff")])
        m["sessions.hit_share"] = 1.0 - details["restored_share"][0]
        m["sessions.resident_frame_ms_p50"] = median(
            [ms for ms, r in zip(observe_ms, restored) if not r])
        m["sessions.restored_frame_ms_p50"] = median(
            [ms for ms, r in zip(observe_ms, restored) if r])
        m["sessions.spills"] = float(delta("serve.sessions.spilled"))
        m["sessions.restores"] = float(delta("serve.sessions.restored"))
        m["sessions.spill_kb_per_session"] = spill_kb
        m["sessions.resident_mb_max"] = max(resident_mb, default=0.0)
        out.per_layer, out.layers = _finish_layers(m, e2e, attribution)
    return out


def _fleet_units(steps, requests, stages, spans: Spans):
    """One unit per frame step: its session call, its kernels, its requests."""
    inner = sorted(((x.layer, x.start, x.end) for x in spans.records
                    if x.layer is not None), key=lambda x: x[1])
    starts = [x[1] for x in inner]
    sent_at = [st["sent"] for _, st in requests]      # requests are in send order
    for a, b, c, _ in steps:
        intervals = [("serve.sessions", a, b)]
        lo, hi = bisect.bisect_left(starts, a), bisect.bisect_right(starts, c)
        intervals.extend(inner[lo:hi])
        lo, hi = bisect.bisect_left(sent_at, a), bisect.bisect_right(sent_at, c)
        for st in stages[lo:hi]:
            intervals.extend(st.intervals)
        yield a, c, intervals


RUNNERS = {
    "frame-stream": frame_stream,
    "serve-knn": serve,
    "serve-mixed": serve,
    "fleet-churn": fleet_churn,
}
