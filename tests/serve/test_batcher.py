"""MicroBatcher: admission control and batch-formation policy.

Uses a fake clock everywhere timing matters, so the deadline logic is
tested deterministically rather than with sleeps.
"""

import threading

import numpy as np
import pytest

from repro.serve import MicroBatcher, Overloaded, ServeRequest, ServerClosed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def request(rows: int = 1, k: int = 4) -> ServeRequest:
    return ServeRequest(
        xyz=np.zeros((rows, 3)), k=k, mode="exact", allow_degraded=False
    )


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def batcher(clock):
    return MicroBatcher(
        max_batch_size=8, max_delay_s=0.01, max_queue=16, clock=clock
    )


class TestAdmission:
    def test_counts_rows_not_requests(self, batcher):
        batcher.submit(request(rows=10))
        batcher.submit(request(rows=6))  # 16 rows: exactly full
        assert batcher.depth() == 16
        with pytest.raises(Overloaded) as excinfo:
            batcher.submit(request(rows=1))
        assert excinfo.value.queue_depth == 16
        assert excinfo.value.max_queue == 16

    def test_shed_is_synchronous_and_costless(self, batcher):
        batcher.submit(request(rows=16))
        shed = request(rows=1)
        with pytest.raises(Overloaded):
            batcher.submit(shed)
        # The shed request never entered the queue.
        assert batcher.depth() == 16
        assert not shed.future.done()

    def test_fill_fraction(self, batcher):
        assert batcher.fill_fraction() == 0.0
        batcher.submit(request(rows=8))
        assert batcher.fill_fraction() == 0.5

    def test_submit_after_close_raises(self, batcher):
        batcher.close()
        with pytest.raises(ServerClosed):
            batcher.submit(request())


class TestFormation:
    def test_full_batch_dispatches_immediately(self, batcher):
        for _ in range(8):
            batcher.submit(request())
        batch = batcher.next_batch(timeout=0)
        assert batch is not None and len(batch) == 8
        assert batcher.depth() == 0

    def test_partial_batch_waits_for_deadline(self, batcher, clock):
        batcher.submit(request())
        assert batcher.next_batch(timeout=0) is None  # deadline not reached
        clock.now += 0.011
        batch = batcher.next_batch(timeout=0)
        assert batch is not None and len(batch) == 1

    def test_batch_respects_row_cap(self, batcher, clock):
        for _ in range(3):
            batcher.submit(request(rows=3))  # 9 rows queued >= cap of 8
        batch = batcher.next_batch(timeout=0)
        # 3+3 fits, +3 would exceed 8: two requests ship, one stays.
        assert len(batch) == 2
        assert batcher.depth() == 3

    def test_oversized_request_ships_alone(self, batcher, clock):
        batcher.submit(request(rows=12))  # larger than max_batch_size
        batch = batcher.next_batch(timeout=0)
        assert len(batch) == 1 and batch[0].n_rows == 12

    def test_fifo_order(self, batcher, clock):
        first, second = request(), request()
        batcher.submit(first)
        batcher.submit(second)
        clock.now += 0.02
        batch = batcher.next_batch(timeout=0)
        assert batch[0] is first and batch[1] is second

    def test_blocking_wakeup_on_submit(self, clock):
        # A real-threads smoke: the dispatcher blocked in next_batch
        # must wake when a full batch arrives.
        import time

        batcher = MicroBatcher(
            max_batch_size=1, max_delay_s=5.0, max_queue=8, clock=time.monotonic
        )
        got = []

        def consume():
            got.append(batcher.next_batch(timeout=2.0))

        t = threading.Thread(target=consume)
        t.start()
        batcher.submit(request())
        t.join(timeout=3.0)
        assert not t.is_alive()
        assert got and got[0] is not None and len(got[0]) == 1


class TestExpiry:
    def test_expire_removes_past_deadline(self, batcher, clock):
        alive, doomed = request(rows=2), request(rows=3)
        doomed.deadline = 0.5
        batcher.submit(alive)
        batcher.submit(doomed)
        clock.now = 1.0
        expired = batcher.expire(clock.now)
        assert expired == [doomed]
        assert batcher.depth() == 2  # doomed's rows were freed

    def test_expire_noop_without_deadlines(self, batcher, clock):
        batcher.submit(request())
        assert batcher.expire(clock.now) == []
        assert batcher.depth() == 1


class TestClose:
    def test_close_drains_queue(self, batcher):
        batcher.submit(request())
        batcher.submit(request())
        drained = batcher.close()
        assert len(drained) == 2
        assert batcher.depth() == 0

    def test_next_batch_returns_none_after_close(self, batcher):
        batcher.close()
        assert batcher.next_batch(timeout=0) is None


class IdleSignal:
    """A settable ``idle`` predicate that counts how often it is asked."""

    def __init__(self, idle: bool):
        self.idle = idle
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        return self.idle


class TestIdleRule:
    """Work-conserving formation: a due batch ships only to an idle backend."""

    @staticmethod
    def make(clock, signal, max_delay_s=0.0):
        return MicroBatcher(
            max_batch_size=8, max_delay_s=max_delay_s, max_queue=16,
            clock=clock, idle=signal,
        )

    def test_due_batch_ships_when_idle(self, clock):
        batcher = self.make(clock, IdleSignal(True))
        batcher.submit(request())
        batch = batcher.next_batch(timeout=0)
        assert batch is not None and len(batch) == 1

    def test_due_batch_waits_while_busy_then_ships_on_wake(self, clock):
        signal = IdleSignal(False)
        batcher = self.make(clock, signal)
        first, second = request(rows=2), request(rows=3)
        batcher.submit(first)
        batcher.submit(second)
        clock.now += 1.0  # long past due
        assert batcher.next_batch(timeout=0) is None
        assert batcher.depth() == 5
        signal.idle = True
        batcher.wake()
        batch = batcher.next_batch(timeout=0)
        assert batch == [first, second]
        assert batcher.depth() == 0

    def test_full_batch_ships_while_busy(self, clock):
        batcher = self.make(clock, IdleSignal(False))
        for _ in range(8):
            batcher.submit(request())
        batch = batcher.next_batch(timeout=0)
        assert batch is not None and len(batch) == 8

    def test_batch_not_yet_due_waits_even_when_idle(self, clock):
        batcher = self.make(clock, IdleSignal(True), max_delay_s=0.01)
        batcher.submit(request())
        assert batcher.next_batch(timeout=0) is None
        clock.now += 0.011
        batch = batcher.next_batch(timeout=0)
        assert batch is not None and len(batch) == 1

    def test_blocked_dispatcher_sleeps_until_woken(self):
        # Real threads: a due batch facing a busy backend must block,
        # not spin on the idle signal, and ship promptly once woken.
        import time

        signal = IdleSignal(False)
        batcher = MicroBatcher(
            max_batch_size=8, max_delay_s=0.0, max_queue=16,
            clock=time.monotonic, idle=signal,
        )
        got = []

        def consume():
            got.append(batcher.next_batch(timeout=5.0))

        t = threading.Thread(target=consume)
        t.start()
        batcher.submit(request())
        time.sleep(0.2)
        assert t.is_alive() and not got
        assert signal.calls <= 3  # once per wake-up, not once per spin
        signal.idle = True
        woken = time.monotonic()
        batcher.wake()
        t.join(timeout=4.0)
        assert not t.is_alive()
        assert time.monotonic() - woken < 1.0
        assert got and got[0] is not None and len(got[0]) == 1


class TestWakeups:
    def test_joining_requests_leave_a_waiting_dispatcher_asleep(self):
        # Real threads: the dispatcher sleeps until the oldest request is
        # due.  Requests that join the queue change neither that deadline
        # nor readiness, so they must not wake it (each wake-up costs the
        # submitter the GIL mid-burst); a full batch must.
        import time

        reads = []

        def clock():
            reads.append(threading.current_thread().name)
            return time.monotonic()

        batcher = MicroBatcher(
            max_batch_size=8, max_delay_s=5.0, max_queue=16, clock=clock,
        )
        got = []
        t = threading.Thread(
            target=lambda: got.append(batcher.next_batch(timeout=4.0)),
            name="dispatcher",
        )
        t.start()
        batcher.submit(request())
        time.sleep(0.2)
        woken = reads.count("dispatcher")
        for _ in range(6):
            batcher.submit(request())
        time.sleep(0.1)
        assert reads.count("dispatcher") == woken
        assert t.is_alive() and not got
        batcher.submit(request())  # the eighth row fills the batch
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert got and got[0] is not None and len(got[0]) == 8

    def test_wake_with_nothing_due_leaves_the_dispatcher_asleep(self):
        # A job drains after every search; unless a queued batch is
        # already due, waking the dispatcher only makes it compete for
        # the GIL with the thread that resolves the answers.
        import time

        reads = []

        def clock():
            reads.append(threading.current_thread().name)
            return time.monotonic()

        batcher = MicroBatcher(
            max_batch_size=8, max_delay_s=5.0, max_queue=16, clock=clock,
        )
        t = threading.Thread(
            target=lambda: batcher.next_batch(timeout=4.0), name="dispatcher",
        )
        t.start()
        time.sleep(0.2)
        woken = reads.count("dispatcher")
        batcher.wake()  # nothing queued
        time.sleep(0.1)
        assert reads.count("dispatcher") == woken
        batcher.submit(request())  # a new oldest request: its timer starts
        time.sleep(0.2)
        assert reads.count("dispatcher") > woken
        woken = reads.count("dispatcher")
        batcher.wake()  # queued, but not due for 5 s
        time.sleep(0.1)
        assert reads.count("dispatcher") == woken
        batcher.close()
        t.join(timeout=2.0)
        assert not t.is_alive()

    def test_wake_while_every_replica_is_busy_leaves_the_dispatcher_asleep(
            self):
        # One job of a split batch drained, another still holds the only
        # replica: the due batch cannot ship yet, so the dispatcher need
        # not wake until the last job drains.
        import time

        reads = []

        def clock():
            reads.append(threading.current_thread().name)
            return time.monotonic()

        signal = IdleSignal(False)
        batcher = MicroBatcher(
            max_batch_size=8, max_delay_s=0.0, max_queue=16, clock=clock,
            idle=signal,
        )
        got = []
        t = threading.Thread(
            target=lambda: got.append(batcher.next_batch(timeout=4.0)),
            name="dispatcher",
        )
        t.start()
        batcher.submit(request())
        time.sleep(0.2)
        woken = reads.count("dispatcher")
        batcher.wake()  # still busy
        time.sleep(0.1)
        assert reads.count("dispatcher") == woken and not got
        signal.idle = True
        batcher.wake()
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert got and got[0] is not None and len(got[0]) == 1
