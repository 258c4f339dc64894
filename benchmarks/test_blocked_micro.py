"""Micro-benchmarks of the blocked out-of-core layer.

Two trajectory points over one accumulated city-block map:

* ``build.blocked_parallel`` — the full blocked build (partition,
  stage, per-block trees) at the configured worker count, in points
  per second.  The entry records the inline (1-worker) time and the
  machine's core count alongside, because on a 1-core runner the
  worker threads only add pool overhead — the honesty note the
  committed baseline carries.
* ``engine.blocked_vs_monolithic`` — exact routed queries through the
  :class:`~repro.kdtree.blocked.BlockedIndex` under a small
  resident-block budget, in queries per second, with the monolithic
  engine's rate on the same queries recorded for the ratio.

Correctness is asserted the same way the serve layer does: distance
and index rows bit-identical to the monolithic engine (every path
ranks by distance, then id).
"""

import time

import numpy as np
import pytest

from repro.datasets import city_block_map
from repro.kdtree import (
    BlockedBuildConfig,
    BlockedIndex,
    build_blocked,
    build_flat,
    knn_exact_batched,
)

N_POINTS = 300_000
TARGET_BLOCK = 50_000
N_QUERIES = 2_000
K = 8
WORKERS = 2


def _timed_runs(fn, rounds: int) -> list[float]:
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def test_trajectory_write_merges_by_name(tmp_path):
    """Separate sessions contribute disjoint entries to one area file."""
    import importlib.util
    import json
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "bench_conftest", Path(__file__).parent / "conftest.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    first = mod.TrajectoryRecorder("build")
    first.add("flat_vectorized", work=100.0, times_s=[0.1])
    first.write(str(tmp_path))
    second = mod.TrajectoryRecorder("build")
    second.add("blocked_parallel", work=100.0, times_s=[0.5])
    second.add("flat_vectorized", work=100.0, times_s=[0.05])
    path = second.write(str(tmp_path))

    doc = json.load(open(path))
    by_name = {b["name"]: b for b in doc["benchmarks"]}
    assert set(by_name) == {"build.flat_vectorized", "build.blocked_parallel"}
    # Re-measured entries are refreshed, not duplicated.
    assert by_name["build.flat_vectorized"]["qps"] == 100.0 / 0.05


@pytest.fixture(scope="module")
def city_map(tmp_path_factory):
    path = tmp_path_factory.mktemp("map") / "city.npy"
    city_block_map(N_POINTS, seed=0, out=path)
    return path


def test_blocked_build_parallel(benchmark, bench_build, city_map, tmp_path):
    import os

    config = BlockedBuildConfig(
        target_block_points=TARGET_BLOCK, chunk_points=N_POINTS // 3
    )
    inline_s = min(_timed_runs(
        lambda: build_blocked(
            str(city_map), config, block_dir=tmp_path / "inline"
        ),
        rounds=2,
    ))

    from dataclasses import replace

    parallel_cfg = replace(config, workers=WORKERS)
    benchmark(lambda: build_blocked(
        str(city_map), parallel_cfg, block_dir=tmp_path / "bench"
    ))
    parallel_times = _timed_runs(
        lambda: build_blocked(
            str(city_map), parallel_cfg, block_dir=tmp_path / "par"
        ),
        rounds=2,
    )

    # Worker fan-out must not change the output: block snapshots are
    # byte-identical to the inline build's.
    index = BlockedIndex(tmp_path / "par")
    for name in index.manifest["files"]:
        want = (tmp_path / "inline" / name).read_bytes()
        assert (tmp_path / "par" / name).read_bytes() == want, name

    cores = os.cpu_count() or 1
    bench_build.add(
        "blocked_parallel",
        work=N_POINTS,
        times_s=parallel_times,
        points=N_POINTS,
        workers=WORKERS,
        blocks=index.n_blocks,
        inline_s=round(inline_s, 3),
        cores=cores,
    )
    parallel_s = min(parallel_times)
    if cores == 1:
        bench_build.derived["blocked_parallel_note"] = (
            f"recorded on a 1-core machine: the {WORKERS}-thread build pays "
            f"thread-pool overhead ({parallel_s:.2f}s vs "
            f"{inline_s:.2f}s inline) with no cores to win it back; on "
            "multi-core hardware the same entry should beat inline_s"
        )
    benchmark.extra_info["inline_s"] = round(inline_s, 3)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 3)
    print(f"\nblocked build {N_POINTS:,} pts / {index.n_blocks} blocks: "
          f"inline {inline_s:.2f}s, {WORKERS} workers {parallel_s:.2f}s "
          f"({cores} core(s))")
    if cores > 1:
        # Fan-out must beat inline when there is real parallelism.
        assert parallel_s < inline_s * 1.1


def test_query_blocked_vs_monolithic(benchmark, bench_engine, city_map,
                                     tmp_path):
    xyz = np.asarray(np.load(city_map, mmap_mode="r"), dtype=np.float64)
    index = build_blocked(
        str(city_map),
        BlockedBuildConfig(target_block_points=TARGET_BLOCK),
        block_dir=tmp_path / "blocks",
        max_resident_blocks=2,
    )
    rng = np.random.default_rng(1)
    queries = (
        xyz[rng.integers(0, N_POINTS, size=N_QUERIES)]
        + rng.normal(scale=0.05, size=(N_QUERIES, 3))
    )

    flat, _ = build_flat(xyz)
    truth, _ = knn_exact_batched(flat, queries, K)
    result = index.query(queries, K)
    np.testing.assert_array_equal(result.distances, truth.distances)
    np.testing.assert_array_equal(result.indices, truth.indices)

    mono_s = min(_timed_runs(lambda: knn_exact_batched(flat, queries, K),
                             rounds=3))
    benchmark(lambda: index.query(queries, K))
    blocked_times = _timed_runs(lambda: index.query(queries, K), rounds=3)
    blocked_s = min(blocked_times)

    stats = index.stats()
    bench_engine.add(
        "blocked_vs_monolithic",
        work=N_QUERIES,
        times_s=blocked_times,
        points=N_POINTS,
        k=K,
        blocks=index.n_blocks,
        resident_budget=2,
        monolithic_qps=round(N_QUERIES / mono_s, 1),
    )
    benchmark.extra_info["monolithic_s"] = round(mono_s, 3)
    benchmark.extra_info["blocked_s"] = round(blocked_s, 3)
    print(f"\nexact {N_QUERIES} queries vs {N_POINTS:,} pts: monolithic "
          f"{mono_s:.2f}s, blocked {blocked_s:.2f}s "
          f"(visits {stats['block_visits']}, budget 2 blocks)")
    assert stats["resident_blocks"] <= 2
