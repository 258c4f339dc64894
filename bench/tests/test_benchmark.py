"""Tests of the benchmark itself, at the ``smoke`` scale.

Run from the repository root::

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from quickbench import catalog  # noqa: E402
from quickbench.common import bootstrap  # noqa: E402
from quickbench.loadgen import Step, make_schedule, run_open_loop, run_saturation  # noqa: E402
from quickbench.oracle import Oracle  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == catalog.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer == catalog.PER_LAYER
    names = [*e2e, *per_layer, *catalog.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert catalog.NAME_RE.match(name), name
    for unit, better in [*e2e.values(), *per_layer.values()]:
        assert UNIT_RE.match(unit) and better in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_a_seed_always_gives_the_same_schedule():
    steps = [Step(100, 0.5), Step(300, 0.25)]
    times, which = make_schedule(steps, seed=7)
    again, which_again = make_schedule(steps, seed=7)
    assert np.array_equal(times, again) and np.array_equal(which, which_again)
    assert np.bincount(which).tolist() == [50, 75]
    assert np.all(np.diff(times) >= 0)
    assert not np.array_equal(times, make_schedule(steps, seed=8)[0])


class _Answer:
    request_id = 0


def _answered(_i) -> Future:
    future = Future()
    future.set_result(_Answer())
    return future


def test_load_generator_runs_on_the_calling_thread_only():
    before = threading.active_count()
    seen = []

    def send(i):
        seen.append(threading.active_count())
        return _answered(i)

    times, _ = make_schedule([Step(400, 0.1)], seed=1)
    result = run_open_loop(times, send, on_tick=lambda now: seen.append(
        threading.active_count()))
    assert result.failed == 0 and result.ok.all()
    saturation = run_saturation(send, inflight=4, duration_s=0.05)
    assert saturation.completed > 0 and saturation.failed == 0
    # No thread was started: the generator is the calling thread alone,
    # which is within nproc on any machine.
    assert max(seen) == before == threading.active_count()
    assert 1 <= (os.cpu_count() or 1)


def _brute_knn(ref, q, k):
    d = np.sqrt(((q[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2))
    idx = np.argsort(d, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(d, idx, axis=1)


def test_oracle_reports_a_planted_wrong_knn_answer():
    rng = np.random.default_rng(0)
    ref, q = rng.normal(size=(500, 3)), rng.normal(size=(20, 3))
    oracle = Oracle(ref)
    idx, dst = _brute_knn(ref, q, 8)
    assert oracle.knn_wrong_rows(q, idx, dst, 8) == 0
    far = int(np.argmax(np.linalg.norm(ref - q[3], axis=1)))
    idx[3, 7] = far
    dst[3, 7] = np.linalg.norm(ref[far] - q[3])
    assert oracle.knn_wrong_rows(q, idx, dst, 8) == 1


def test_oracle_reports_a_planted_wrong_radius_answer():
    rng = np.random.default_rng(1)
    ref, q = rng.uniform(0, 1, size=(2000, 3)), rng.uniform(0, 1, size=(10, 3))
    oracle = Oracle(ref)
    idx, dst, offsets = [], [], [0]
    for point in q:
        d = np.linalg.norm(ref - point, axis=1)
        inside = np.flatnonzero(d <= 0.15)
        order = inside[np.argsort(d[inside], kind="stable")][:16]
        idx.extend(order)
        dst.extend(d[order])
        offsets.append(len(idx))
    idx, dst = np.array(idx), np.array(dst)
    assert oracle.radius_wrong_rows(q, idx, dst, offsets, 0.15, 16) == 0
    dropped = np.delete(idx, 0), np.delete(dst, 0)
    shifted = np.array(offsets) - (np.arange(len(offsets)) > 0)
    assert oracle.radius_wrong_rows(q, *dropped, shifted, 0.15, 16) == 1


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_catalogued_metrics(workload, trace, tmp_path):
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke",
                 "--out", str(tmp_path / "results"),
                 "--trace-dir", str(tmp_path / "trace")])
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        k: unit for k, (unit, _) in expected.items()}
    if trace:
        layers = json.loads(
            (tmp_path / "trace" / f"layers-{workload}-seed0.json").read_text())
        assert set(layers["layers"]) == set(catalog.TIMED_LAYERS)
        assert 0.0 <= layers["unattributed_share"] <= 1.0
        chrome = json.loads(
            (tmp_path / "trace" / f"trace-{workload}-seed0.json").read_text())
        assert any(e.get("cat", "").startswith("bench.") or e.get("ph") == "X"
                   for e in chrome["traceEvents"])
    else:
        for value in last["metrics"].values():
            assert value["value"] > 0


def _session_members(sid: int) -> list[int]:
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:       # fields after the name: state ppid pgrp session
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_run_leaves_no_process_behind(tmp_path):
    # The process backend starts worker processes and, with them, the
    # multiprocessing resource tracker; none may outlive the run.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve-knn", "--seed", "0",
         "--seconds", "1", "--trace", "0", "--scale", "smoke",
         "--out", str(tmp_path / "results")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    assert '"metrics"' in out.strip().splitlines()[-1]
    assert _session_members(proc.pid) == []
    # Stopping the tracker leaves it nothing to clean up, and no
    # exit-time finalizer fails.
    assert "leaked" not in err and "Traceback" not in err, err


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "frame-stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_bootstrap_imports_this_checkout():
    bootstrap()
    import repro

    assert Path(repro.__file__).resolve().is_relative_to(ROOT / "src")
