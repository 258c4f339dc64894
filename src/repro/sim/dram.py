"""DDR4 external-memory timing model.

The central substrate of the reproduction: every architecture result in
the paper is a consequence of how this memory behaves.  The model
captures the three DDR4 properties the paper's optimizations exploit:

* **Bursts are cheap** — once a row is open, data moves at the full
  interface rate (here 8 bytes per core cycle, a 64-bit interface as in
  the FPGA prototype).
* **Row misses are expensive** — touching a new row in a bank costs
  precharge + activate + CAS before any data moves.
* **Direction turnarounds cost** — switching the bus between reads and
  writes inserts dead cycles.

Timing constants are expressed in 10 ns core cycles and derived from a
representative DDR4-2400 datasheet (tRP = tRCD = CL ~= 13.75 ns each,
plus controller overhead), matching the paper's "custom model of the
external DRAM ... based on a representative DDR4 RAM chip".

The model is *transaction level*: :meth:`DramModel.access` charges the
cycles one access costs given the current bank/row state and updates
per-stream statistics.  It does not model command-bus scheduling or
refresh — second-order effects that shift absolute numbers, not the
sequential-vs-random contrast the paper's results rest on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import get_registry


@dataclass(frozen=True)
class DramTimingParams:
    """Timing and geometry of the external DRAM, in core cycles.

    ``row_miss_cycles`` bundles precharge + activate + first CAS
    (~120 ns); ``row_hit_cycles`` is the CAS-only cost of a new burst
    within an open row; ``turnaround_cycles`` is the read/write bus
    reversal penalty.
    """

    bytes_per_cycle: int = 8
    n_banks: int = 16
    row_bytes: int = 8192
    row_miss_cycles: int = 12
    row_hit_cycles: int = 2
    turnaround_cycles: int = 4

    def __post_init__(self):
        if self.bytes_per_cycle < 1:
            raise ValueError("bytes_per_cycle must be positive")
        if self.n_banks < 1:
            raise ValueError("n_banks must be positive")
        if self.row_bytes < self.bytes_per_cycle:
            raise ValueError("row_bytes must hold at least one beat")
        if min(self.row_miss_cycles, self.row_hit_cycles, self.turnaround_cycles) < 0:
            raise ValueError("timing penalties must be non-negative")

    def transfer_cycles(self, nbytes: int) -> int:
        """Pure data-movement cycles for ``nbytes`` (ceiling division)."""
        return -(-nbytes // self.bytes_per_cycle)

    @classmethod
    def ddr4(cls) -> "DramTimingParams":
        """The prototype's DDR4 interface (the default parameters)."""
        return cls()

    @classmethod
    def hbm2(cls) -> "DramTimingParams":
        """A near-chip HBM stack, per the paper's Section 7.2 outlook.

        One HBM2 stack behind the 100 MHz core: ~8x the interface
        bandwidth of the DDR4 channel, many more banks (8 channels x 16
        banks), smaller rows, and comparable latency — the configuration
        the paper expects to relieve the external-bandwidth bottleneck
        for 100k-1M point frames.
        """
        return cls(
            bytes_per_cycle=64,
            n_banks=128,
            row_bytes=2048,
            row_miss_cycles=12,
            row_hit_cycles=2,
            turnaround_cycles=2,
        )


@dataclass
class StreamStats:
    """Traffic accounting for one named memory stream (Rd1, Wr1, ...)."""

    name: str
    accesses: int = 0
    bytes: int = 0
    data_cycles: int = 0
    overhead_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.data_cycles + self.overhead_cycles

    @property
    def words(self) -> int:
        """Bus-word count (8-byte words), the unit of Figure 12."""
        return -(-self.bytes // 8)

    def as_dict(self) -> dict:
        """Flat scalar view (the repo-wide stats convention)."""
        return {
            "accesses": self.accesses,
            "bytes": self.bytes,
            "words": self.words,
            "data_cycles": self.data_cycles,
            "overhead_cycles": self.overhead_cycles,
            "total_cycles": self.total_cycles,
        }


@dataclass
class DramStats:
    """Aggregate traffic over all streams of one model instance."""

    streams: dict[str, StreamStats] = field(default_factory=dict)

    def stream(self, name: str) -> StreamStats:
        if name not in self.streams:
            self.streams[name] = StreamStats(name=name)
        return self.streams[name]

    @property
    def accesses(self) -> int:
        return sum(s.accesses for s in self.streams.values())

    @property
    def bytes(self) -> int:
        return sum(s.bytes for s in self.streams.values())

    @property
    def data_cycles(self) -> int:
        return sum(s.data_cycles for s in self.streams.values())

    @property
    def overhead_cycles(self) -> int:
        return sum(s.overhead_cycles for s in self.streams.values())

    @property
    def busy_cycles(self) -> int:
        """Total cycles the memory interface was occupied."""
        return self.data_cycles + self.overhead_cycles

    @property
    def words(self) -> int:
        return sum(s.words for s in self.streams.values())

    def as_dict(self) -> dict:
        """Flat scalar view, streams nested as ``streams.<name>.<key>``."""
        out = {
            "accesses": self.accesses,
            "bytes": self.bytes,
            "words": self.words,
            "data_cycles": self.data_cycles,
            "overhead_cycles": self.overhead_cycles,
            "busy_cycles": self.busy_cycles,
        }
        for name, stream in sorted(self.streams.items()):
            for key, value in stream.as_dict().items():
                out[f"streams.{name}.{key}"] = value
        return out

    def bandwidth_utilization(self, total_cycles: int | None = None) -> float:
        """Fraction of cycles spent moving data.

        With no argument, utilization is measured against the interface
        busy time (efficiency of the access pattern).  Given the frame's
        ``total_cycles``, it is measured against wall time, which is the
        quantity Figure 13 reports.
        """
        denom = self.busy_cycles if total_cycles is None else total_cycles
        if denom <= 0:
            return 0.0
        return min(1.0, self.data_cycles / denom)


@dataclass(frozen=True)
class TraceEntry:
    """One recorded transaction (when tracing is enabled)."""

    stream: str
    addr: int
    nbytes: int
    write: bool
    cycles: int


class DramModel:
    """Stateful DDR4 transaction model.

    Addresses are plain byte addresses; bank and row are derived with
    row-interleaved mapping (consecutive rows rotate across banks), the
    layout that makes large sequential bursts stream at full rate.

    With ``trace=True`` every individual transaction is recorded in
    :attr:`trace` (bulk :meth:`access_scattered` charges appear as one
    summary entry with address ``-1``), which the tests and debugging
    tools use to inspect access ordering.
    """

    def __init__(self, params: DramTimingParams | None = None, *, trace: bool = False):
        self.params = params or DramTimingParams()
        self.stats = DramStats()
        self.trace: list[TraceEntry] | None = [] if trace else None
        self._open_rows: dict[int, int] = {}
        self._last_was_write: bool | None = None
        self._next_addr: int | None = None  # address right after the last access
        # When observability is on at construction time, mirror the
        # aggregate counters into the process registry (dram.*).  The
        # counter handles are cached so the per-access cost is four
        # increments; with observability off the hot path is untouched.
        obs = get_registry()
        if obs.enabled:
            self._obs_counters = (
                obs.counter("dram.accesses"),
                obs.counter("dram.bytes"),
                obs.counter("dram.data_cycles"),
                obs.counter("dram.overhead_cycles"),
            )
        else:
            self._obs_counters = None

    # ------------------------------------------------------------------
    def _bank_and_row(self, addr: int) -> tuple[int, int]:
        row = addr // self.params.row_bytes
        return row % self.params.n_banks, row

    def access(self, stream: str, addr: int, nbytes: int, *, write: bool) -> int:
        """Charge one access; returns the cycles it cost.

        A single logical access may span several rows; each row boundary
        re-evaluates the open-row state, so large transfers pay one miss
        per row at most.
        """
        if addr < 0:
            raise ValueError("address must be non-negative")
        if nbytes <= 0:
            raise ValueError("access must move at least one byte")
        rec = self.stats.stream(stream)
        params = self.params

        overhead = 0
        if self._last_was_write is not None and self._last_was_write != write:
            overhead += params.turnaround_cycles
        self._last_was_write = write

        contiguous = self._next_addr == addr
        remaining = nbytes
        cursor = addr
        while remaining > 0:
            bank, row = self._bank_and_row(cursor)
            in_row = min(remaining, params.row_bytes - cursor % params.row_bytes)
            if self._open_rows.get(bank) != row:
                overhead += params.row_miss_cycles
                self._open_rows[bank] = row
            elif not contiguous:
                overhead += params.row_hit_cycles
            cursor += in_row
            remaining -= in_row
            contiguous = True  # subsequent spans of the same access stream on

        data = params.transfer_cycles(nbytes)
        self._next_addr = addr + nbytes
        rec.accesses += 1
        rec.bytes += nbytes
        rec.data_cycles += data
        rec.overhead_cycles += overhead
        if self._obs_counters is not None:
            self._emit_obs(1, nbytes, data, overhead)
        if self.trace is not None:
            self.trace.append(TraceEntry(stream, addr, nbytes, write, data + overhead))
        return data + overhead

    def access_scattered(
        self,
        stream: str,
        count: int,
        nbytes_each: int,
        *,
        write: bool,
        hit_fraction: float = 0.0,
        turnaround_each: bool = False,
    ) -> int:
        """Bulk-charge ``count`` independent scattered accesses.

        Statistical shortcut for access patterns with no locality (the
        un-optimized architectures issue millions of such transactions
        per frame): each access pays the transfer plus a row miss,
        except a ``hit_fraction`` that finds its row open.  With
        ``turnaround_each`` the bus also reverses around every access
        (read-modify-write interleavings).  Aggregate statistics are
        identical to issuing the accesses one by one at random
        addresses; only the per-bank state bookkeeping is skipped.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return 0
        if nbytes_each <= 0:
            raise ValueError("accesses must move at least one byte")
        if not (0.0 <= hit_fraction <= 1.0):
            raise ValueError("hit_fraction must be in [0, 1]")
        params = self.params
        rec = self.stats.stream(stream)
        data = count * params.transfer_cycles(nbytes_each)
        hits = int(round(count * hit_fraction))
        misses = count - hits
        overhead = misses * params.row_miss_cycles + hits * params.row_hit_cycles
        if turnaround_each:
            overhead += count * params.turnaround_cycles
        elif self._last_was_write is not None and self._last_was_write != write:
            overhead += params.turnaround_cycles
        rec.accesses += count
        rec.bytes += count * nbytes_each
        rec.data_cycles += data
        rec.overhead_cycles += overhead
        if self._obs_counters is not None:
            self._emit_obs(count, count * nbytes_each, data, overhead)
        # Scattered traffic leaves the banks in an unknown state.
        self._open_rows.clear()
        self._last_was_write = write
        self._next_addr = None
        if self.trace is not None:
            self.trace.append(
                TraceEntry(stream, -1, count * nbytes_each, write, data + overhead)
            )
        return data + overhead

    # ------------------------------------------------------------------
    def _emit_obs(self, accesses: int, nbytes: int, data: int, overhead: int) -> None:
        c_accesses, c_bytes, c_data, c_overhead = self._obs_counters
        c_accesses.inc(accesses)
        c_bytes.inc(nbytes)
        c_data.inc(data)
        c_overhead.inc(overhead)

    def reset_stats(self) -> None:
        """Clear traffic counters but keep bank state."""
        self.stats = DramStats()
