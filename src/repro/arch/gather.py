"""Write-gather and read-gather caches (Section 4.2 of the paper).

Both caches solve the same problem from opposite directions: the point
stream arrives in *spatial-random* bucket order, but DRAM only performs
well on *grouped* accesses.

* The **write-gather cache** sits in TBuild.  Points destined for the
  same bucket accumulate in one of ``n_slots`` temporary buckets of
  capacity ``slot_capacity`` (the paper's ``w_b`` x ``w_n``); a full
  slot flushes as one contiguous DRAM write.  When every slot is taken,
  the *fullest* slot is evicted to make room.
* The **read-gather cache** sits in TSearch and gathers *query points*
  by target bucket (``r_b`` x ``r_n``); a full slot triggers one burst
  read of the reference bucket, which then serves all gathered queries
  at once through the FU array.

The eviction-fullest policy, slot geometry, and flush semantics follow
Section 4.2; both caches share :class:`GatherCache` since the paper
notes they "operate in a similar way".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import get_registry


@dataclass(frozen=True)
class FlushEvent:
    """One slot flush: ``count`` gathered items bound for ``bucket_id``.

    ``forced`` marks capacity evictions (cache full, fullest slot chosen)
    as opposed to natural full-slot flushes.
    """

    bucket_id: int
    count: int
    forced: bool


@dataclass
class GatherStats:
    """Occupancy statistics of one gather cache."""

    inserts: int = 0
    flushes: int = 0
    forced_flushes: int = 0
    flushed_items: int = 0
    fill_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def mean_fill(self) -> float:
        """Average slot occupancy at flush time."""
        return self.flushed_items / self.flushes if self.flushes else 0.0

    def as_dict(self) -> dict:
        """Flat scalar view (the repo-wide stats convention)."""
        return {
            "inserts": self.inserts,
            "flushes": self.flushes,
            "forced_flushes": self.forced_flushes,
            "flushed_items": self.flushed_items,
            "mean_fill": self.mean_fill,
        }


class GatherCache:
    """A bank of ``n_slots`` temporary buckets of ``slot_capacity`` items."""

    #: Subsystem label used for the registry metrics (``cache.<label>.*``).
    obs_label = "gather"

    def __init__(self, n_slots: int, slot_capacity: int):
        if n_slots < 1:
            raise ValueError("gather cache needs at least one slot")
        if slot_capacity < 1:
            raise ValueError("slot capacity must be positive")
        self.n_slots = n_slots
        self.slot_capacity = slot_capacity
        self._fills: dict[int, int] = {}  # bucket_id -> gathered count
        self.stats = GatherStats()
        obs = get_registry()
        if obs.enabled:
            prefix = f"cache.{self.obs_label}"
            self._obs_counters = (
                obs.counter(f"{prefix}.inserts"),
                obs.counter(f"{prefix}.flushes"),
                obs.counter(f"{prefix}.forced_flushes"),
                obs.counter(f"{prefix}.flushed_items"),
            )
        else:
            self._obs_counters = None

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of slots currently allocated."""
        return len(self._fills)

    def fill_of(self, bucket_id: int) -> int:
        return self._fills.get(bucket_id, 0)

    def insert(self, bucket_id: int) -> list[FlushEvent]:
        """Gather one item for ``bucket_id``; return any flushes it caused.

        At most two events result: a forced eviction that made room for a
        new slot, and/or a natural flush of the now-full slot.
        """
        self.stats.inserts += 1
        if self._obs_counters is not None:
            self._obs_counters[0].inc()
        events: list[FlushEvent] = []
        if bucket_id not in self._fills and len(self._fills) >= self.n_slots:
            fullest = max(self._fills, key=lambda b: (self._fills[b], -b))
            events.append(self._flush(fullest, forced=True))
        self._fills[bucket_id] = self._fills.get(bucket_id, 0) + 1
        if self._fills[bucket_id] >= self.slot_capacity:
            events.append(self._flush(bucket_id, forced=False))
        return events

    def _flush(self, bucket_id: int, *, forced: bool) -> FlushEvent:
        count = self._fills.pop(bucket_id)
        self.stats.flushes += 1
        self.stats.flushed_items += count
        if forced:
            self.stats.forced_flushes += 1
        self.stats.fill_histogram[count] = self.stats.fill_histogram.get(count, 0) + 1
        if self._obs_counters is not None:
            self._obs_counters[1].inc()
            self._obs_counters[3].inc(count)
            if forced:
                self._obs_counters[2].inc()
        return FlushEvent(bucket_id=bucket_id, count=count, forced=forced)

    def drain(self) -> list[FlushEvent]:
        """Flush every remaining slot (end of frame)."""
        events = []
        for bucket_id in sorted(self._fills, key=lambda b: -self._fills[b]):
            events.append(self._flush(bucket_id, forced=False))
        return events

    def process_stream(self, bucket_ids) -> list[FlushEvent]:
        """Run a whole stream of bucket destinations; returns all flushes.

        Convenience for the architecture models: feeds every item through
        :meth:`insert` and finishes with :meth:`drain`.
        """
        events = []
        for bucket_id in bucket_ids:
            events.extend(self.insert(int(bucket_id)))
        events.extend(self.drain())
        return events


class WriteGatherCache(GatherCache):
    """TBuild-side gather of points by destination bucket (w_b x w_n)."""

    obs_label = "write_gather"


class ReadGatherCache(GatherCache):
    """TSearch-side gather of query points by target bucket (r_b x r_n)."""

    obs_label = "read_gather"
