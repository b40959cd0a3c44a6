"""Ordering semantics of the slotted/heap hybrid event queue.

The engine keeps zero-delay schedules in per-priority FIFO buckets and
everything else on the heap; these tests pin that the *observable*
order is exactly the one the plain heap produced — ``(time, priority,
schedule order)`` — across every mix of bucket and heap events.
"""

import pytest

from repro.simulation import Environment, Event
from repro.simulation.engine import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)


def _mark(log, label):
    def callback(event):
        log.append(label)
    return callback


def _schedule(env, log, label, priority, delay=0.0):
    ev = Event(env)
    ev.callbacks.append(_mark(log, label))
    env.schedule(ev, priority, delay)


def _schedule_at(env, log, label, when):
    ev = Event(env)
    ev.callbacks.append(_mark(log, label))
    env.schedule_at(ev, when)


def test_zero_delay_priorities_fire_urgent_first():
    env = Environment()
    log = []
    _schedule(env, log, "low", PRIORITY_LOW)
    _schedule(env, log, "normal", PRIORITY_NORMAL)
    _schedule(env, log, "urgent", PRIORITY_URGENT)
    env.run()
    assert log == ["urgent", "normal", "low"]


def test_same_priority_zero_delay_is_fifo():
    env = Environment()
    log = []
    for i in range(5):
        _schedule(env, log, i, PRIORITY_NORMAL)
    env.run()
    assert log == [0, 1, 2, 3, 4]


def test_bucket_beats_heap_at_same_time_by_schedule_order():
    env = Environment()
    log = []
    # A delayed event lands on the heap; once the clock reaches its
    # time, zero-delay events scheduled *before* it at that instant
    # must still fire first (schedule order breaks the time tie).
    def driver():
        yield env.timeout(1.0)
        _schedule(env, log, "bucket-after", PRIORITY_NORMAL)

    env.process(driver())
    _schedule(env, log, "heap", PRIORITY_NORMAL, delay=1.0)
    env.run()
    assert log == ["heap", "bucket-after"]


def test_urgent_bucket_preempts_normal_heap_tie():
    env = Environment()
    log = []

    # The first t=1.0 event's callback schedules a zero-delay URGENT
    # event; despite its later eid it must outrank the second t=1.0
    # NORMAL event still sitting on the heap.
    trigger = Event(env)
    trigger.callbacks.append(
        lambda _: _schedule(env, log, "urgent-late", PRIORITY_URGENT))
    env.schedule(trigger, PRIORITY_NORMAL, 1.0)
    _schedule(env, log, "normal-heap", PRIORITY_NORMAL, delay=1.0)
    env.run()
    assert log == ["urgent-late", "normal-heap"]


def test_future_priorities_go_through_the_heap():
    env = Environment()
    log = []
    _schedule(env, log, "later-urgent", PRIORITY_URGENT, delay=2.0)
    _schedule(env, log, "sooner-low", PRIORITY_LOW, delay=1.0)
    env.run()
    assert log == ["sooner-low", "later-urgent"]
    assert env.now == pytest.approx(2.0)


def test_negative_delay_rejected_for_every_priority():
    from repro.simulation.errors import ScheduleInPastError
    env = Environment()
    for priority in (PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_LOW):
        with pytest.raises(ScheduleInPastError):
            env.schedule(Event(env), priority, -0.1)


def test_peek_sees_buckets_and_heap():
    env = Environment()
    assert env.peek() == float("inf")
    _schedule(env, [], "heap", PRIORITY_NORMAL, delay=3.0)
    assert env.peek() == pytest.approx(3.0)
    _schedule(env, [], "bucket", PRIORITY_LOW)
    assert env.peek() == pytest.approx(0.0)


def test_run_to_horizon_drains_buckets_before_stopping():
    env = Environment()
    log = []

    def driver():
        yield env.timeout(1.0)
        _schedule(env, log, "at-horizon", PRIORITY_NORMAL)

    env.process(driver())
    env.run(until=1.0)
    # The zero-delay event at exactly t=1.0 fires before the horizon
    # stop; the clock then rests at the horizon.
    assert log == ["at-horizon"]
    assert env.now == pytest.approx(1.0)


def test_absolute_entry_at_now_merges_with_the_buckets():
    env = Environment()
    log = []

    # An absolute entry lands on the heap even when its time is the
    # current instant; it still takes its place in the one (time,
    # priority, schedule order) order among the zero-delay buckets.
    def driver():
        yield env.timeout(1.0)
        _schedule(env, log, "normal-before", PRIORITY_NORMAL)
        _schedule(env, log, "low-before", PRIORITY_LOW)
        _schedule_at(env, log, "absolute", env.now)
        _schedule(env, log, "normal-after", PRIORITY_NORMAL)
        _schedule(env, log, "urgent-after", PRIORITY_URGENT)

    env.process(driver())
    _schedule_at(env, log, "absolute-later", 1.5)
    env.run()
    assert log == ["urgent-after", "normal-before", "absolute",
                   "normal-after", "low-before", "absolute-later"]
    assert env.now == 1.5


def test_absolute_entry_in_the_past_is_rejected():
    from repro.simulation.errors import ScheduleInPastError
    env = Environment(initial_time=2.0)
    with pytest.raises(ScheduleInPastError):
        env.schedule_at(Event(env), 1.0)
    env.schedule_at(Event(env), 2.0)  # the current instant is not the past


def test_discard_pending_clears_absolute_entries():
    env = Environment()
    log = []
    _schedule_at(env, log, "absolute", 1.0)
    _schedule(env, log, "bucket", PRIORITY_NORMAL)
    env.discard_pending()
    assert env.peek() == float("inf")
    env.run()
    assert log == []


def test_discard_pending_finishes_its_teardown_when_a_close_raises():
    """A process whose close raises still leaves nothing behind: every
    other suspended process is closed, whatever a ``finally`` schedules
    is dropped, and the error reaches the owner."""
    env = Environment()
    closed = []

    def quiet():
        try:
            yield env.timeout(1.0)
        finally:
            closed.append("quiet")
            env.timeout(0.0)

    def stubborn():
        try:
            yield env.timeout(1.0)
        finally:
            closed.append("stubborn")
            raise RuntimeError("close")

    env.process(quiet())
    env.process(stubborn())  # closed first: the newest goes first
    while env.peek() == 0.0:
        env.step()
    with pytest.raises(RuntimeError, match="close"):
        env.discard_pending()
    assert closed == ["stubborn", "quiet"]
    assert env.peek() == float("inf")
