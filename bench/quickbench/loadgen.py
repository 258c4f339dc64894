"""Single-thread load generator: open-loop steps, then a saturation window.

Open loop.  Requests follow a seeded schedule of fixed-rate steps.
Within a step of rate ``r`` and length ``T`` the ``round(r * T)`` send
times are sorted uniform draws over the step: a Poisson process
conditioned on its count, so every seed offers exactly the same number
of requests and only their timing varies.

One thread (the caller's) sleeps until each request is due, submits it
without waiting for earlier answers, and attaches a done-callback that
stamps the completion.  A request's latency runs from when it was *due*,
not from when the server admitted it, so a stall in the generator or in
admission is charged to every request it delays; how late each send was
is recorded separately.  The same loop runs timed side events (warm
handoffs) and samples the server every ``TICK_S``, so measuring adds no
thread to the process.

Saturation.  :func:`run_saturation` keeps a fixed number of requests in
flight, sending the next as soon as one completes, and counts
completions per second: the server's capacity at that concurrency,
without the unbounded backlog an overloaded open loop would build.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Server sampling interval of the open loop (10 Hz).
TICK_S = 0.1
#: Every KEEP_EVERY-th answer is kept for the correctness check.
KEEP_EVERY = 10
#: How long to wait for outstanding answers after the last send.
DRAIN_S = 60.0


@dataclass(frozen=True)
class Step:
    """A stretch of the schedule at one offered rate."""

    rate: float         # requests per second
    duration_s: float


def make_schedule(steps: list[Step], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Send times in seconds from the window start, and each one's step."""
    rng = np.random.default_rng([seed, 17])
    times, which = [], []
    start = 0.0
    for index, step in enumerate(steps):
        n = max(1, int(round(step.rate * step.duration_s)))
        times.append(start + np.sort(rng.uniform(0.0, step.duration_s, n)))
        which.append(np.full(n, index, dtype=np.int64))
        start += step.duration_s
    return np.concatenate(times), np.concatenate(which)


@dataclass
class LoadResult:
    """Per-request stamps (``perf_counter`` seconds) and outcomes."""

    due: np.ndarray
    sent: np.ndarray
    returned: np.ndarray            # when submit() returned
    done: np.ndarray                # completion; NaN if never completed
    ok: np.ndarray
    request_ids: np.ndarray         # server-assigned ids of answered requests
    errors: list = field(default_factory=list)     # (i, exception) via future
    responses: dict = field(default_factory=dict)  # kept answers by index

    @property
    def failed(self) -> int:
        return int(np.count_nonzero(~self.ok))

    def latency_ms(self, mask=None) -> np.ndarray:
        keep = self.ok if mask is None else (self.ok & mask)
        return (self.done[keep] - self.due[keep]) * 1e3

    def late_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3


def run_open_loop(
    times: np.ndarray,
    send: Callable[[int], object],
    *,
    events: list[tuple[float, Callable[[], None]]] = (),
    on_tick: Callable[[float], None] | None = None,
) -> LoadResult:
    """Send request ``i`` at ``times[i]`` via ``send(i) -> Future``.

    ``send`` may raise to refuse a request (the server shedding it); the
    refusal is counted as a failure.  ``events`` are ``(time, fn)`` side
    calls run by the same loop when due.  After the last send the loop
    waits up to ``DRAIN_S`` for outstanding answers, still ticking.
    """
    n = times.size
    result = LoadResult(
        due=np.empty(n), sent=np.empty(n), returned=np.empty(n),
        done=np.full(n, np.nan), ok=np.zeros(n, dtype=bool),
        request_ids=np.full(n, -1, dtype=np.int64),
    )
    clock = time.perf_counter

    def _finished(i: int, future) -> None:
        result.done[i] = clock()
        exc = future.exception()
        if exc is not None:
            result.errors.append((i, exc))
            return
        response = future.result()
        result.request_ids[i] = response.request_id
        result.ok[i] = True
        if i % KEEP_EVERY == 0:
            result.responses[i] = response

    pending_events = sorted(events, key=lambda e: e[0])
    futures = []
    t0 = clock() + 0.01
    next_tick = t0
    result.due[:] = t0 + times
    for i in range(n):
        due = result.due[i]
        while True:
            now = clock()
            if on_tick is not None and now >= next_tick:
                on_tick(now)
                next_tick = max(next_tick + TICK_S, now)
            if pending_events and now >= t0 + pending_events[0][0]:
                pending_events.pop(0)[1]()
                continue
            if now >= due:
                break
            wake = min(due, next_tick if on_tick is not None else due)
            if pending_events:
                wake = min(wake, t0 + pending_events[0][0])
            time.sleep(max(0.0, wake - now))
        result.sent[i] = clock()
        try:
            future = send(i)
        except Exception:  # a refusal at admission is an outcome
            result.returned[i] = result.done[i] = clock()
            continue
        result.returned[i] = clock()
        future.add_done_callback(lambda fut, i=i: _finished(i, fut))
        futures.append(future)

    pending = set(futures)
    give_up = clock() + DRAIN_S
    while pending and clock() < give_up:
        _, pending = wait(pending, timeout=TICK_S, return_when=FIRST_COMPLETED)
        if on_tick is not None:
            on_tick(clock())
    # A future reports done before its callbacks have run; let them land.
    settle_by = clock() + 1.0
    while (int(result.ok.sum()) + len(result.errors) < len(futures) - len(pending)
           and clock() < settle_by):
        time.sleep(0.001)
    return result


@dataclass
class SaturationResult:
    completed: int = 0              # answers that arrived inside the window
    seconds: float = 0.0            # first send to last counted answer
    attempted: int = 0
    failed: int = 0
    responses: dict = field(default_factory=dict)  # kept answers by index

    @property
    def per_s(self) -> float:
        return self.completed / self.seconds if self.seconds > 0 else 0.0


def run_saturation(
    send: Callable[[int], object],
    *,
    inflight: int,
    duration_s: float,
) -> SaturationResult:
    """Hold ``inflight`` requests outstanding for ``duration_s`` (closed loop).

    Request ``i`` is ``send(i)``; answers completing after the window are
    awaited and checked but not counted.
    """
    clock = time.perf_counter
    result = SaturationResult()
    futures: dict = {}

    def _submit(i: int) -> None:
        result.attempted += 1
        try:
            futures[send(i)] = i
        except Exception:  # a refusal at admission is an outcome
            result.failed += 1

    start = clock()
    end = start + duration_s
    for i in range(inflight):
        _submit(i)
    sent = inflight
    give_up = end + DRAIN_S
    while futures and clock() < give_up:
        done, _ = wait(list(futures), timeout=max(0.0, give_up - clock()),
                       return_when=FIRST_COMPLETED)
        now = clock()
        for future in done:
            i = futures.pop(future)
            if future.exception() is not None:
                result.failed += 1
            else:
                if now <= end:
                    result.completed += 1
                    result.seconds = now - start
                if i % KEEP_EVERY == 0:
                    result.responses[i] = future.result()
            if now < end:
                _submit(sent)
                sent += 1
    result.failed += len(futures)
    return result
