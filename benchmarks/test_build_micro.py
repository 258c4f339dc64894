"""Micro-benchmark of the vectorized build pipeline vs the recursive one.

Measures the per-frame pipeline costs the vectorized builder attacks:
full build (construction + placement), placement alone, the batched
incremental update, and the randomized forest build.  Every pair is
first checked for equivalence (bit-identical trees for the single-tree
builder, identical leaf ids for placement), then timed best-of-N;
ratios land in ``extra_info``.  As with the engine
micro-benchmarks, CI only smoke-asserts not-slower — the hard multiple
lives in the PR notes, because shared runners are too noisy to gate on
a ratio.  Each test also records a trajectory point (points/second)
with the ``bench_build`` recorder; with ``QUICKNN_BENCH_DIR`` set the
session writes ``BENCH_build.json`` for the ``bench-diff`` gate.
"""

import time

import numpy as np

from repro.kdtree import (
    FlatKdTree,
    KdForest,
    KdForestConfig,
    KdTreeConfig,
    build_flat,
    build_tree,
    update_tree,
)


def _timed_runs(fn, rounds: int) -> list[float]:
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _best_of(fn, rounds: int) -> float:
    return min(_timed_runs(fn, rounds))


def test_build_vectorized_vs_legacy(benchmark, frames_30k, bench_build):
    ref, _ = frames_30k
    legacy_cfg = KdTreeConfig(bucket_capacity=256, builder="legacy")
    vect_cfg = KdTreeConfig(bucket_capacity=256, builder="vectorized")

    legacy, trace_l = build_tree(ref, legacy_cfg)
    vect, trace_v = build_tree(ref, vect_cfg)
    assert [(n.dim, n.threshold, n.left, n.right) for n in legacy.nodes] == \
           [(n.dim, n.threshold, n.left, n.right) for n in vect.nodes]
    assert all(np.array_equal(a, b) for a, b in zip(legacy.buckets, vect.buckets))
    assert trace_l.as_dict() == trace_v.as_dict()

    # The engine-facing fast path: frame in, queryable flat layout out.
    legacy_s = _best_of(
        lambda: FlatKdTree.from_tree(build_tree(ref, legacy_cfg)[0]), rounds=3
    )
    benchmark(lambda: build_flat(ref, vect_cfg))
    vect_times = _timed_runs(lambda: build_flat(ref, vect_cfg), rounds=5)
    vect_s = min(vect_times)
    speedup = legacy_s / vect_s
    benchmark.extra_info["legacy_ms"] = round(legacy_s * 1e3, 2)
    benchmark.extra_info["vectorized_ms"] = round(vect_s * 1e3, 2)
    benchmark.extra_info["speedup_vs_legacy"] = round(speedup, 2)
    bench_build.add(
        "flat_vectorized", work=ref.xyz.shape[0], times_s=vect_times,
        points=int(ref.xyz.shape[0]), speedup_vs_legacy=round(speedup, 2),
    )
    print(f"\nbuild 30k: legacy {legacy_s * 1e3:.1f} ms, "
          f"vectorized {vect_s * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 1.0


def test_placement_vectorized_vs_legacy(benchmark, frames_30k, bench_build):
    ref, _ = frames_30k
    tree, _ = build_tree(ref, KdTreeConfig(bucket_capacity=256))
    flat = tree.flat()
    xyz = tree.points

    assert np.array_equal(flat.descend_fast(xyz), tree.descend_batch(xyz))

    legacy_s = _best_of(lambda: tree.descend_batch(xyz), rounds=3)
    benchmark(lambda: flat.descend_fast(xyz))
    vect_times = _timed_runs(lambda: flat.descend_fast(xyz), rounds=5)
    vect_s = min(vect_times)
    speedup = legacy_s / vect_s
    benchmark.extra_info["legacy_ms"] = round(legacy_s * 1e3, 2)
    benchmark.extra_info["vectorized_ms"] = round(vect_s * 1e3, 2)
    benchmark.extra_info["speedup_vs_legacy"] = round(speedup, 2)
    bench_build.add(
        "placement_fast", work=xyz.shape[0], times_s=vect_times,
        points=int(xyz.shape[0]), speedup_vs_legacy=round(speedup, 2),
    )
    print(f"\nplacement 30k: descend_batch {legacy_s * 1e3:.1f} ms, "
          f"descend_fast {vect_s * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 1.0


def test_incremental_update_batched(benchmark, frames_30k, bench_build):
    ref, qry = frames_30k
    config = KdTreeConfig(bucket_capacity=256)
    tree, _ = build_tree(ref, config)
    new_points = qry.xyz[:5_000]

    benchmark(lambda: update_tree(tree, new_points, config))
    batched_times = _timed_runs(
        lambda: update_tree(tree, new_points, config), rounds=3
    )
    batched_s = min(batched_times)
    benchmark.extra_info["batched_ms"] = round(batched_s * 1e3, 2)
    bench_build.add(
        "incremental_batched", work=new_points.shape[0], times_s=batched_times,
        points=int(new_points.shape[0]),
    )
    print(f"\nincremental +5k: batched {batched_s * 1e3:.1f} ms")


def test_forest_build_vectorized(benchmark, frames_30k, bench_build):
    ref, _ = frames_30k
    legacy = KdForest(ref, KdForestConfig(n_trees=4, bucket_capacity=64,
                                          builder="legacy"))
    vect = KdForest(ref, KdForestConfig(n_trees=4, bucket_capacity=64,
                                        builder="vectorized"))
    assert [len(t.nodes) for t in legacy.trees] == [len(t.nodes) for t in vect.trees]

    legacy_s = _best_of(lambda: legacy.build(ref), rounds=2)
    benchmark(lambda: vect.build(ref))
    vect_times = _timed_runs(lambda: vect.build(ref), rounds=2)
    vect_s = min(vect_times)
    speedup = legacy_s / vect_s
    benchmark.extra_info["legacy_ms"] = round(legacy_s * 1e3, 2)
    benchmark.extra_info["vectorized_ms"] = round(vect_s * 1e3, 2)
    benchmark.extra_info["speedup_vs_legacy"] = round(speedup, 2)
    bench_build.add(
        "forest_vectorized", work=4 * ref.xyz.shape[0], times_s=vect_times,
        points=int(ref.xyz.shape[0]), n_trees=4,
        speedup_vs_legacy=round(speedup, 2),
    )
    print(f"\nforest build 4x30k: legacy {legacy_s * 1e3:.1f} ms, "
          f"vectorized {vect_s * 1e3:.1f} ms, speedup {speedup:.1f}x")
    assert speedup >= 1.0
