"""Unit tests for FIFO resources."""

import pytest

from repro.simulation import Environment, Resource, SimulationError


def test_capacity_validation(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_immediate_grant_when_free(env):
    res = Resource(env)

    def worker():
        req = res.request()
        yield req
        assert res.in_use == 1
        res.release(req)
        return env.now

    assert env.run(env.process(worker())) == 0.0


def test_mutual_exclusion_serializes(env):
    res = Resource(env)
    log = []

    def worker(name):
        yield from res.use(1.0)
        log.append((env.now, name))

    env.process(worker("a"))
    env.process(worker("b"))
    env.process(worker("c"))
    env.run()
    assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_capacity_two_overlaps(env):
    res = Resource(env, capacity=2)
    log = []

    def worker(name):
        yield from res.use(1.0)
        log.append((env.now, name))

    for n in "abcd":
        env.process(worker(n))
    env.run()
    assert log == [(1.0, "a"), (1.0, "b"), (2.0, "c"), (2.0, "d")]


def test_fifo_grant_order(env):
    res = Resource(env)
    order = []

    def worker(name, think):
        yield env.timeout(think)
        req = res.request()
        yield req
        order.append(name)
        yield env.timeout(1.0)
        res.release(req)

    env.process(worker("first", 0.0))
    env.process(worker("second", 0.1))
    env.process(worker("third", 0.2))
    env.run()
    assert order == ["first", "second", "third"]


def test_release_wakes_waiter(env):
    res = Resource(env)
    log = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(5.0)
        res.release(req)

    def waiter():
        yield env.timeout(1.0)
        req = res.request()
        yield req
        log.append(env.now)
        res.release(req)

    env.process(holder())
    env.process(waiter())
    env.run()
    assert log == [5.0]


def test_release_unknown_request_raises(env):
    res = Resource(env)
    other = Environment()
    foreign = Resource(other).request()
    with pytest.raises(SimulationError):
        res.release(foreign)


def test_cancel_queued_request(env):
    res = Resource(env)

    def holder():
        yield from res.use(2.0)

    def canceller():
        yield env.timeout(0.5)
        req = res.request()
        res.release(req)  # cancel while queued
        assert res.queue_length == 0

    env.process(holder())
    env.process(canceller())
    env.run()


def test_wait_time_statistics(env):
    res = Resource(env)

    def worker():
        yield from res.use(1.0)

    env.process(worker())
    env.process(worker())
    env.run()
    assert res.total_requests == 2
    assert res.total_wait_time == pytest.approx(1.0)


def test_use_releases_on_completion(env):
    res = Resource(env)

    def worker():
        yield from res.use(1.0)

    env.run(env.process(worker()))
    assert res.in_use == 0
    assert res.queue_length == 0


def test_closing_a_suspended_use_after_abandon_is_silent(monkeypatch):
    """``abandon`` forgets the holders; a ``use`` suspended mid-hold is
    closed when the finished run is collected, and its ``finally``
    releases a request the resource no longer knows.  That must not
    raise inside the finaliser — while a live resource still refuses a
    release it never granted."""
    import gc
    import sys

    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

    def abandoned_run():
        env = Environment()
        res = Resource(env)

        def holder():
            yield from res.use(5.0)
        env.process(holder())
        env.run(until=1.0)
        res.abandon()

    abandoned_run()
    gc.collect()
    assert [u.exc_value for u in unraisable] == []

    live = Resource(Environment())
    req = live.request()
    live.release(req)
    with pytest.raises(SimulationError, match="never granted"):
        live.release(req)
