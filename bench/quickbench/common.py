"""Checkout discovery, summary statistics, and process memory readings."""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

#: The checkout root: ``bench/quickbench/common.py`` -> two levels up.
ROOT = Path(__file__).resolve().parents[2]

#: Everything the benchmark writes (results, traces, spill files,
#: cached inputs) lives under this directory of the checkout.
OUT = ROOT / ".bench_out"


class MissingProgram(RuntimeError):
    """The checkout holds no program to measure."""


def bootstrap() -> None:
    """Import the program from this checkout's ``src/``, nowhere else.

    Raises :class:`MissingProgram` when ``src/repro`` is absent, or when
    ``import repro`` would resolve to a copy outside the checkout (an
    installed package must never stand in for the code under test).
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise MissingProgram(f"repro resolved outside the checkout: {repro.__file__}")


def stop_helper_processes() -> None:
    """Stop every process ``multiprocessing`` started here, and wait for each.

    The program joins its own worker processes on ``close``.  What is
    left is the resource tracker that the ``spawn`` start method and
    shared memory start: it runs until this process has exited and is
    never waited for, so it would outlive the run.  Any child that
    escaped a ``close`` is terminated too.

    The exit-time finalizers run first: they unlink the semaphores of
    closed queues.  Run after the tracker stopped, they would find the
    semaphores already unlinked by it and print a traceback for each.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for child in mp.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    util = sys.modules.get("multiprocessing.util")
    if util is not None:
        util._run_finalizers()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()   # closes its pipe, then waitpid


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 when ``values`` is empty)."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (q / 100.0) * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond it."""
    if n <= 10:
        return 50.0
    return max(50.0, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)


def median(values) -> float:
    return percentile(values, 50.0)


#: Time blocks a measured window is cut into for the end-to-end statistics.
BLOCKS = 5


def block_median(starts, values, stat) -> float:
    """Median over equal time blocks of ``stat(values in the block)``.

    The machine the benchmark was calibrated on runs a third slower for
    stretches of 5-20 s.  Cutting the window into blocks and taking the
    median of the per-block statistic keeps such a stretch from moving
    the result unless it covers most of the window.  ``starts`` places
    each value in time (a request's due time, a step's start).
    """
    starts = list(starts)
    values = list(values)
    if not values:
        return 0.0
    lo, hi = min(starts), max(starts)
    width = (hi - lo) / BLOCKS or 1.0
    groups: list[list] = [[] for _ in range(BLOCKS)]
    for t, v in zip(starts, values):
        groups[min(int((t - lo) / width), BLOCKS - 1)].append(v)
    return median([stat(g) for g in groups if g])


def reset_peak_rss() -> None:
    """Restart this process's VmHWM at its current RSS (Linux only).

    Lets the memory reading cover set-up and the measured window but not
    input generation.  Where ``clear_refs`` is not writable the reading
    falls back to the process-lifetime peak.
    """
    try:
        with open(f"/proc/{os.getpid()}/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_kb(pid: int) -> int:
    """VmHWM of ``pid`` in KiB (0 when it cannot be read)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(worker_pids=()) -> float:
    """Peak RSS of this process plus ``worker_pids``, in MB (10^6 bytes)."""
    kb = peak_rss_kb(os.getpid()) + sum(peak_rss_kb(pid) for pid in worker_pids)
    return kb * 1024 / 1e6
