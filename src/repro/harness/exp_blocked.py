"""Blocked out-of-core experiment: build + serve a million-point map.

Beyond the paper's frame-scale evaluation: FractalCloud-style spatial
blocking applied to an accumulated city-block map.  The experiment
streams a map to disk, builds the blocked index from the ``.npy`` path
(so the cloud is never required in RAM), reopens it under a small
resident-block budget, and serves exact queries while watching process
memory — the point being that answers stay bit-identical to a
monolithic tree while the serving working set is the block budget, not
the cloud.
"""

from __future__ import annotations

import os
import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.datasets import city_block_map
from repro.harness.result import ExperimentResult
from repro.kdtree import (
    BlockedBuildConfig,
    BlockedIndex,
    build_blocked,
    build_flat,
    knn_exact_batched,
)


def _rss_bytes() -> int:
    """Current (not peak) resident set size of this process."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def blocked_build(
    n_points: int = 1_000_000,
    target_block_points: int = 125_000,
    workers: int = 2,
    n_queries: int = 2_000,
    k: int = 8,
    max_resident_blocks: int = 2,
    *,
    partitioner: str = "grid",
    seed: int = 0,
) -> ExperimentResult:
    """Out-of-core blocked build + budget-bounded exact serving.

    The shape checks are the blocked layer's contract: exactness
    against the monolithic engine (distance and index rows
    bit-identical), the resident cache honoring its budget under
    eviction pressure, and the serving phase's RSS growth staying
    within the block-budget working set rather than the whole map.
    The parallel-vs-inline comparison is reported honestly: with one
    usable core, the build's thread pool pays its overhead for no
    speedup, and the check degrades to recording that.
    """
    cores = os.cpu_count() or 1
    with tempfile.TemporaryDirectory(prefix="qknn-blocked-exp-") as tmp:
        tmp_path = Path(tmp)
        t0 = time.perf_counter()
        source = city_block_map(n_points, seed=seed, out=tmp_path / "map.npy")
        gen_s = time.perf_counter() - t0
        rng = np.random.default_rng(seed + 1)
        queries = (
            np.asarray(source[rng.integers(0, n_points, size=n_queries)])
            + rng.normal(scale=0.05, size=(n_queries, 3))
        )

        config = BlockedBuildConfig(
            target_block_points=target_block_points,
            partitioner=partitioner,
            workers=1,
            chunk_points=max(10_000, n_points // 4),
        )
        t0 = time.perf_counter()
        built = build_blocked(
            source, config, block_dir=tmp_path / "blocks"
        )
        inline_s = time.perf_counter() - t0
        n_blocks = built.n_blocks
        staging_cleaned = not (tmp_path / "blocks" / "staging").exists()

        from dataclasses import replace

        parallel_s = None
        if workers > 1:
            t0 = time.perf_counter()
            build_blocked(
                source, replace(config, workers=workers),
                block_dir=tmp_path / "blocks-par",
            )
            parallel_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        flat, _ = build_flat(np.asarray(source, dtype=np.float64))
        mono_build_s = time.perf_counter() - t0
        truth, _ = knn_exact_batched(flat, queries, k)
        del flat

        # Serve from a cold reopen under the block budget; RSS growth
        # during this phase is the serving working set.
        index = BlockedIndex(
            tmp_path / "blocks", max_resident_blocks=max_resident_blocks
        )
        rss_before = _rss_bytes()
        t0 = time.perf_counter()
        result = index.query(queries, k)
        query_s = time.perf_counter() - t0
        rss_growth = max(0, _rss_bytes() - rss_before)
        stats = index.stats()

        map_bytes = np.asarray(source).nbytes

    distances_identical = bool(
        np.array_equal(result.distances, truth.distances)
    )
    indices_identical = bool(np.array_equal(result.indices, truth.indices))

    # The serving working set: the budgeted blocks (mapped structure +
    # derived arrays) plus merge scratch — generously doubled, but far
    # below the map itself for any real block count.
    per_block = stats["resident_bytes"] / max(stats["resident_blocks"], 1)
    budget_bytes = int((max_resident_blocks + 1) * per_block)
    working_set_ok = rss_growth <= max(2 * budget_bytes, 64 << 20)

    one_core = cores <= 1
    if parallel_s is None:
        parallel_note = "parallel arm skipped (workers=1)"
        parallel_ok = True
    elif one_core:
        parallel_note = (
            f"1 usable core: {workers}-thread build pays pool overhead "
            f"({parallel_s:.2f}s vs {inline_s:.2f}s inline) — recorded, "
            "not asserted"
        )
        parallel_ok = True
    else:
        parallel_note = (
            f"{cores} cores: {workers}-thread build {parallel_s:.2f}s "
            f"vs monolithic {mono_build_s:.2f}s"
        )
        parallel_ok = parallel_s < mono_build_s

    rows = [
        ["map points", n_points],
        ["map bytes (MB)", round(map_bytes / 2**20, 1)],
        ["map generation (s)", round(gen_s, 2)],
        ["blocks", n_blocks],
        ["min block points", stats["min_block_points"]],
        ["max block points", stats["max_block_points"]],
        ["inline blocked build (s)", round(inline_s, 2)],
        ["parallel blocked build (s)",
         round(parallel_s, 2) if parallel_s is not None else "-"],
        ["monolithic build (s)", round(mono_build_s, 2)],
        ["resident budget (blocks)", max_resident_blocks],
        ["block loads", stats["block_loads"]],
        ["block evictions", stats["block_evictions"]],
        ["block visits", stats["block_visits"]],
        ["resident bytes (MB)", round(stats["resident_bytes"] / 2**20, 1)],
        ["serving RSS growth (MB)", round(rss_growth / 2**20, 1)],
        ["peak RSS (MB)", round(_peak_rss_bytes() / 2**20, 1)],
        [f"exact queries ({n_queries} x k={k}) (s)", round(query_s, 2)],
    ]
    return ExperimentResult(
        exp_id="blocked-build",
        title="Blocked out-of-core build + query on a city-block map",
        headers=["metric", "value"],
        rows=rows,
        paper_says=(
            "QuickNN evaluates per-frame trees; FractalCloud (PAPERS.md) "
            "argues point clouds should be spatially partitioned so each "
            "block's tree fits fast local memory — applied here at map "
            "scale in software"
        ),
        notes=parallel_note,
        shape_checks={
            "distances bit-identical to monolithic": distances_identical,
            "index rows bit-identical to monolithic": indices_identical,
            "resident blocks within budget": (
                stats["resident_blocks"] <= max_resident_blocks
            ),
            "budget pressure forced evictions": (
                n_blocks <= max_resident_blocks
                or stats["block_evictions"] > 0
            ),
            "staging buffers cleaned up": staging_cleaned,
            "serving RSS growth within block-budget working set":
                working_set_ok,
            "parallel build beats monolithic when cores allow": parallel_ok,
        },
    )
