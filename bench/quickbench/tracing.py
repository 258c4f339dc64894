"""The traced run: the benchmark's own spans, and per-layer self time.

Tracing happens only in a separate run (``--trace 1``); end-to-end
numbers always come from untraced runs.  A traced run enables the
program's ``repro.obs`` registry with Chrome tracing, which already
emits spans at the serving boundaries (``serve.admit``,
``serve.dispatch``, ``serve.worker.search``, ``serve.merge``) and
counters inside the kernels.  The benchmark reads those and adds its own
spans around calls to layers' public functions, some of which it wraps
for the length of the run (:meth:`Spans.patched`).  Nothing under
``src/`` is changed.

Each unit of end-to-end work (a request, or a frame step) is split over
the layers by a sweep: at every instant the innermost layer whose span
covers it owns that instant.  A layer's self time is what it owns: its
spans minus the parts its inner layers' spans cover.  Time no layer
covers is *unattributed*.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: Nesting rank of each layer: inner layers own the time they cover.
DEPTH = {
    "loadgen": 0,
    "serve.sessions": 1,
    "serve.batcher": 2,
    "serve.backends": 2,
    "serve.sharding": 2,
    "kdtree.incremental": 2,
    "kdtree.flat_build": 2,
    "kdtree.engine": 3,
    "query.radius": 3,
}


@dataclass
class Span:
    name: str
    layer: str | None
    start: float            # perf_counter seconds
    end: float
    tid: int


class Spans:
    """In-memory spans recorded by the benchmark, written out at the end."""

    def __init__(self):
        self.records: list[Span] = []

    def add(self, name: str, layer: str | None, start: float, end: float) -> None:
        self.records.append(Span(name, layer, start, end, threading.get_native_id()))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.records if s.name == name]

    @contextmanager
    def patched(self, targets):
        """Time calls to ``owner.attr`` for each ``(owner, attr, name, layer)``."""
        saved = []
        try:
            for owner, attr, name, layer in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._timed(original, name, layer))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _timed(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, layer, start, time.perf_counter())

        return wrapper


# ----------------------------------------------------------------------
# The program's own trace events, on the benchmark's clock
# ----------------------------------------------------------------------
@dataclass
class Event:
    name: str
    start: float
    end: float
    args: dict


class ProgramEvents:
    """``repro.obs`` spans indexed for request and job lookups.

    Request and job ids are per server, so several session servers reuse
    them; a lookup takes the first matching span that starts at or after
    a given time, which is the right one when requests do not overlap
    across servers (the fleet workload's steps are sequential).
    """

    def __init__(self, registry):
        snap = registry.snapshot()
        t0 = snap["t0"]
        self.by_name: dict[str, list[Event]] = {}
        for raw in snap["events"]:
            if raw.get("ph") != "X":
                continue
            start = t0 + raw["ts"] / 1e6
            event = Event(raw["name"], start, start + raw["dur"] / 1e6,
                          raw.get("args", {}))
            self.by_name.setdefault(event.name, []).append(event)
        for events in self.by_name.values():
            events.sort(key=lambda e: e.start)
        self._dispatch_by_request = self._index("serve.dispatch", "request_ids")
        self._admit_by_request = self._index("serve.admit", "request_id")
        self._search_by_job = self._index("serve.worker.search", "job_id")
        self._merge_by_job = self._index("serve.merge", "job_id")

    def _index(self, name: str, key: str) -> dict:
        index: dict = {}
        for event in self.by_name.get(name, []):
            ids = event.args.get(key)
            for ident in ids if isinstance(ids, list) else [ids]:
                index.setdefault(ident, ([], []))
                index[ident][0].append(event.start)
                index[ident][1].append(event)
        return index

    @staticmethod
    def _first(index: dict, ident, after: float, n: int = 1) -> list[Event]:
        starts, events = index.get(ident, ([], []))
        i = bisect.bisect_left(starts, after - 1e-6)
        return events[i:i + n]

    def dispatch_for(self, request_id: int, sent: float) -> Event | None:
        found = self._first(self._dispatch_by_request, request_id, sent)
        return found[0] if found else None

    def admit_for(self, request_id: int, sent: float) -> Event | None:
        found = self._first(self._admit_by_request, request_id, sent)
        return found[0] if found else None

    def searches_for(self, dispatch: Event) -> list[Event]:
        job = dispatch.args.get("job_id")
        starts, events = self._search_by_job.get(job, ([], []))
        i = bisect.bisect_left(starts, dispatch.start - 1e-6)
        merge = self.merge_for(dispatch)
        stop = merge.start if merge is not None else float("inf")
        return [e for e in events[i:] if e.start <= stop][:8]

    def merge_for(self, dispatch: Event) -> Event | None:
        found = self._first(self._merge_by_job, dispatch.args.get("job_id"),
                            dispatch.start)
        return found[0] if found else None

    def durations_ms(self, name: str, after: float = float("-inf")) -> list[float]:
        return [(e.end - e.start) * 1e3 for e in self.by_name.get(name, [])
                if e.start >= after]


@dataclass
class RequestStages:
    """Where one served request spent its time, as layer intervals."""

    intervals: list[tuple[str, float, float]]
    queue_wait_s: float | None = None
    ipc_s: float | None = None


def request_stages(events: ProgramEvents, request_id: int, due: float,
                   sent: float, kind: str) -> RequestStages:
    """Layer intervals of one request from its program spans.

    Send lateness is the load generator's; submission and queueing up to
    the dispatch of its batch is the batcher's; from dispatch until the
    merge starts is the backend's, except the shard searches inside it,
    which are the kernel's (the search span is the engine call plus an
    id translation); the merge is the sharding layer's.  What follows the
    merge (slicing responses and resolving futures) stays unattributed.
    """
    intervals = [("loadgen", due, sent)]
    stages = RequestStages(intervals)
    dispatch = events.dispatch_for(request_id, sent)
    if dispatch is None:
        return stages
    intervals.append(("serve.batcher", sent, dispatch.start))
    admit = events.admit_for(request_id, sent)
    if admit is not None:
        stages.queue_wait_s = dispatch.start - admit.end
    merge = events.merge_for(dispatch)
    searches = events.searches_for(dispatch)
    kernel = "query.radius" if kind == "radius" else "kdtree.engine"
    end = merge.start if merge is not None else dispatch.end
    intervals.append(("serve.backends", dispatch.start, end))
    intervals.extend((kernel, s.start, s.end) for s in searches)
    if merge is not None:
        intervals.append(("serve.sharding", merge.start, merge.end))
        slowest = max((s.end - s.start for s in searches), default=0.0)
        stages.ipc_s = max(0.0, merge.start - dispatch.end - slowest)
    return stages


# ----------------------------------------------------------------------
# Self time by sweep
# ----------------------------------------------------------------------
class Attribution:
    """Accumulates per-layer self time over units of end-to-end work."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in DEPTH}
        self.total_s = 0.0
        self.units = 0

    def add_unit(self, start: float, end: float,
                 intervals: list[tuple[str, float, float]]) -> None:
        if end <= start:
            return
        self.units += 1
        self.total_s += end - start
        clipped = [
            (layer, max(s, start), min(e, end))
            for layer, s, e in intervals
            if min(e, end) > max(s, start)
        ]
        cuts = sorted({start, end, *(s for _, s, _ in clipped),
                       *(e for _, _, e in clipped)})
        for a, b in zip(cuts, cuts[1:]):
            mid = 0.5 * (a + b)
            owner, depth = None, -1
            for layer, s, e in clipped:
                if s <= mid < e and DEPTH[layer] > depth:
                    owner, depth = layer, DEPTH[layer]
            if owner is not None:
                self.self_s[owner] += b - a

    @property
    def unattributed_share(self) -> float:
        if self.total_s <= 0:
            return 0.0
        return max(0.0, 1.0 - sum(self.self_s.values()) / self.total_s)

    def as_dict(self) -> dict:
        total = self.total_s or 1.0
        return {
            "units": self.units,
            "end_to_end_ms_total": self.total_s * 1e3,
            "layers": {
                layer: {"self_ms": s * 1e3, "share": s / total}
                for layer, s in self.self_s.items()
            },
            "unattributed_share": self.unattributed_share,
        }


def write_chrome_trace(path: Path, registry, spans: Spans) -> None:
    """The program's trace plus the benchmark's spans, on one timeline."""
    trace = registry.chrome_trace()
    t0 = registry.snapshot()["t0"]
    pid = os.getpid()
    for s in spans.records:
        trace["traceEvents"].append({
            "name": s.name,
            "cat": f"bench.{s.layer or 'unit'}",
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": (s.end - s.start) * 1e6,
            "pid": pid,
            "tid": s.tid,
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(trace, handle)
