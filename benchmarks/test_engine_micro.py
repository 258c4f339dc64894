"""Micro-benchmark of the batched query engine vs. the per-query loop.

The engine's reason to exist is wall-clock: identical answers to the
loop paths, much faster.  This file measures both sides on the paper's
workload shape (10k queries against a 30k-point frame), records the
ratio in ``extra_info``, and smoke-asserts the engine is not slower —
the hard >=5x claim lives in the PR notes, not in CI, so noisy shared
runners cannot flake the suite.  Each test also records a trajectory
point (queries/second) with the ``bench_engine`` recorder; with
``QUICKNN_BENCH_DIR`` set the session writes ``BENCH_engine.json``
for the ``bench-diff`` regression gate.
"""

import time

import numpy as np

from repro.kdtree import KdTreeConfig, build_tree, knn_approx, knn_approx_loop, knn_exact
from repro.kdtree.engine import knn_exact_batched
from repro.kdtree.search import knn_exact_instrumented


def _timed_runs(fn, rounds: int) -> list[float]:
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _best_of(fn, rounds: int) -> float:
    return min(_timed_runs(fn, rounds))


def test_engine_vs_loop_approx(benchmark, frames_30k, bench_engine):
    ref, qry = frames_30k
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=256))
    queries = qry.xyz[:10_000]
    k = 8

    fast = knn_approx(tree, queries, k)
    slow = knn_approx_loop(tree, queries, k)
    assert np.array_equal(fast.indices, slow.indices)
    assert np.array_equal(fast.distances, slow.distances)

    loop_s = _best_of(lambda: knn_approx_loop(tree, queries, k), rounds=2)
    benchmark(lambda: knn_approx(tree, queries, k))
    engine_times = _timed_runs(lambda: knn_approx(tree, queries, k), rounds=3)
    engine_s = min(engine_times)
    speedup = loop_s / engine_s
    benchmark.extra_info["loop_ms"] = round(loop_s * 1e3, 2)
    benchmark.extra_info["engine_ms"] = round(engine_s * 1e3, 2)
    benchmark.extra_info["speedup_vs_loop"] = round(speedup, 2)
    bench_engine.add(
        "approx_batched", work=queries.shape[0], times_s=engine_times,
        k=k, points=int(ref.xyz.shape[0]), speedup_vs_loop=round(speedup, 2),
    )
    print(f"\napprox engine: loop {loop_s * 1e3:.1f} ms, "
          f"engine {engine_s * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 1.0


def test_engine_vs_loop_exact(benchmark, frames_30k, bench_engine):
    ref, qry = frames_30k
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=256))
    queries = qry.xyz[:3_000]
    k = 8

    fast = knn_exact(tree, queries, k)
    slow, _ = knn_exact_instrumented(tree, queries, k)
    assert np.array_equal(fast.indices, slow.indices)
    assert np.array_equal(fast.distances, slow.distances)

    loop_s = _best_of(lambda: knn_exact_instrumented(tree, queries, k), rounds=1)
    benchmark(lambda: knn_exact(tree, queries, k))
    engine_times = _timed_runs(lambda: knn_exact(tree, queries, k), rounds=2)
    engine_s = min(engine_times)
    speedup = loop_s / engine_s
    benchmark.extra_info["loop_ms"] = round(loop_s * 1e3, 2)
    benchmark.extra_info["engine_ms"] = round(engine_s * 1e3, 2)
    benchmark.extra_info["speedup_vs_loop"] = round(speedup, 2)
    bench_engine.add(
        "exact_batched", work=queries.shape[0], times_s=engine_times,
        k=k, points=int(ref.xyz.shape[0]), speedup_vs_loop=round(speedup, 2),
    )
    print(f"\nexact engine: loop {loop_s * 1e3:.1f} ms, "
          f"engine {engine_s * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 1.0


def test_engine_exact_rows8(benchmark, frames_30k, bench_engine):
    """Exact search at serving batch sizes: 8-row calls, as a served
    request reaches a shard, on the same 30k frame."""
    ref, qry = frames_30k
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=256))
    flat = tree.flat()
    calls = qry.xyz[:2_048].reshape(-1, 8, 3)
    k = 8

    def run():
        return [knn_exact_batched(flat, q, k)[0] for q in calls]

    answers = run()
    slow, _ = knn_exact_instrumented(tree, calls.reshape(-1, 3), k)
    assert np.array_equal(np.concatenate([a.indices for a in answers]), slow.indices)
    assert np.array_equal(np.concatenate([a.distances for a in answers]), slow.distances)

    benchmark(run)
    engine_times = _timed_runs(run, rounds=3)
    rows = calls.shape[0] * calls.shape[1]
    benchmark.extra_info["engine_ms_per_call"] = round(
        min(engine_times) / calls.shape[0] * 1e3, 3
    )
    bench_engine.add(
        "exact_batched_rows8", work=rows, times_s=engine_times,
        k=k, points=int(ref.xyz.shape[0]), rows_per_call=calls.shape[1],
    )
    print(f"\nexact engine, 8-row calls: {min(engine_times) / calls.shape[0] * 1e3:.2f} ms per call")
