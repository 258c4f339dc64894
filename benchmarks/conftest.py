"""Shared benchmark plumbing.

Each benchmark file regenerates one table or figure of the paper at
full scale, times its core kernel through pytest-benchmark, prints the
regenerated table, and asserts the experiment's shape checks — the
qualitative findings of the paper — all hold.

Trajectory artifacts: the engine and build micro-benchmarks also feed
a per-area :class:`TrajectoryRecorder`.  When ``QUICKNN_BENCH_DIR`` is
set, each area writes a ``BENCH_<area>.json`` in the same
``quicknn-bench-<area>/v1`` schema that ``quicknn-serve bench
--bench-json`` writes (best-of rates, per-repeat spread, per-core
normalization, honesty notes), so ``quicknn-experiments bench-diff``
can gate regressions across areas uniformly.
"""

from __future__ import annotations

import json
import os
import platform

import pytest


def attach_and_assert(benchmark, result) -> None:
    """Record the rendered table on the benchmark and assert its checks."""
    benchmark.extra_info["experiment"] = result.exp_id
    benchmark.extra_info["checks"] = {
        name: bool(ok) for name, ok in result.shape_checks.items()
    }
    print()
    print(result.to_text())
    assert result.all_checks_pass, f"failed shape checks: {result.failed_checks()}"


@pytest.fixture(scope="session")
def frames_30k():
    """The paper's 30k-point successive-frame pair (cached per session)."""
    from repro.datasets import lidar_frame_pair

    return lidar_frame_pair(30_000, seed=0)


# ----------------------------------------------------------------------
# Bench trajectory artifacts (BENCH_engine.json / BENCH_build.json)
# ----------------------------------------------------------------------
def _machine_info() -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class TrajectoryRecorder:
    """Collects one area's benchmark points into a schema'd artifact.

    Every entry is a *rate* (work units per second — higher is better,
    like the serve artifact's qps) computed from best-of repeat
    timings, with the per-repeat rates kept so a diff can tell noise
    from regression.
    """

    def __init__(self, area: str):
        self.area = area
        self.benchmarks: list[dict] = []
        self.derived: dict = {}
        self.params: dict = {}

    def add(self, name: str, *, work: float, times_s: list[float],
            **extra) -> None:
        """Record one benchmark: ``work`` units over each repeat time."""
        cores = os.cpu_count() or 1
        runs = [work / t for t in times_s if t > 0]
        best = max(runs) if runs else 0.0
        entry = {
            "name": f"{self.area}.{name}",
            "qps": best,
            "qps_per_core": best / cores,
            "qps_runs": runs,
        }
        entry.update(extra)
        self.benchmarks.append(entry)

    def artifact(self) -> dict:
        machine = _machine_info()
        cores = machine["cpu_count"]
        notes = [
            "qps is work units (queries, points, rows) per second of the "
            "fastest repeat; per-repeat rates kept in qps_runs",
            "qps_per_core divides by os.cpu_count(); it normalizes machine "
            "size, not memory bandwidth or clock",
            "single-process kernels: cpu count only matters for BLAS "
            "threading inside the batched engine",
        ]
        if cores < 4:
            notes.append(
                f"measured on a {cores}-core machine; treat absolute rates "
                "as that machine's trajectory, not hardware-independent truth"
            )
        return {
            "schema": f"quicknn-bench-{self.area}/v1",
            "params": self.params,
            "machine": machine,
            "benchmarks": self.benchmarks,
            "derived": self.derived,
            "extra_info": {"notes": notes},
        }

    def write(self, directory: str) -> str:
        """Write ``BENCH_<area>.json``, merging by benchmark name.

        Different pytest sessions contribute different subsets of an
        area (the engine micro file vs the blocked micro file); a
        session must refresh the entries it re-measured without
        dropping the ones it didn't run.
        """
        path = os.path.join(directory, f"BENCH_{self.area}.json")
        doc = self.artifact()
        try:
            with open(path, encoding="utf-8") as fh:
                previous = json.load(fh)
        except (OSError, json.JSONDecodeError):
            previous = None
        if previous and previous.get("schema") == doc["schema"]:
            fresh = {b["name"] for b in doc["benchmarks"]}
            kept = [
                b for b in previous.get("benchmarks", [])
                if b.get("name") not in fresh
            ]
            doc["benchmarks"] = kept + doc["benchmarks"]
            doc["derived"] = {**previous.get("derived", {}), **doc["derived"]}
            doc["params"] = {**previous.get("params", {}), **doc["params"]}
        doc["benchmarks"].sort(key=lambda b: b.get("name", ""))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path


def _area_recorder(area: str):
    @pytest.fixture(scope="session")
    def recorder():
        rec = TrajectoryRecorder(area)
        yield rec
        out_dir = os.environ.get("QUICKNN_BENCH_DIR")
        if out_dir and rec.benchmarks:
            os.makedirs(out_dir, exist_ok=True)
            path = rec.write(out_dir)
            print(f"\n[bench-trajectory] wrote {path}")

    return recorder


bench_engine = _area_recorder("engine")
bench_build = _area_recorder("build")
