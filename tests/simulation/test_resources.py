"""Unit tests for FIFO resources."""

import pytest

from repro.simulation import Environment, Event, Resource, SimulationError


class Holder(Event):
    """A holder of ``hold`` seconds: the event its grant schedules."""

    def __init__(self, env, hold, *callbacks):
        super().__init__(env)
        self.hold = hold
        self.callbacks.extend(callbacks)


def hold(env, res, seconds):
    """Take ``res``, hold it ``seconds`` from the grant, release it: the
    returned holder fires at the release (so releasing it while queued
    withdraws it)."""
    held = Holder(env, seconds, lambda _event: res.release(held))
    res.acquire(held)
    return held


def test_capacity_is_not_a_parameter(env):
    """A resource is a mutex: there is no capacity to choose."""
    with pytest.raises(TypeError):
        Resource(env, capacity=2)


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
        yield hold(env, res, 1.0)
        log.append((env.now, name))

    env.process(worker("a"))
    env.process(worker("b"))
    env.process(worker("c"))
    env.run()
    assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


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
        yield hold(env, res, 2.0)

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
    held = []

    def worker():
        held.append(hold(env, res, 1.0))
        yield held[-1]

    env.process(worker())
    env.process(worker())
    env.run()
    assert [h.queued for h in held] == pytest.approx([0.0, 1.0])


def test_use_releases_on_completion(env):
    """A use of the resource — acquire, hold, release — leaves it free
    and nobody queued."""
    res = Resource(env)

    def worker():
        yield hold(env, res, 1.0)

    env.run(env.process(worker()))
    assert res.in_use == 0
    assert res.queue_length == 0
    assert env.now == 1.0


def test_closing_a_suspended_use_after_abandon_is_silent(monkeypatch):
    """``abandon`` forgets the holders; a sender suspended mid-hold on
    its NIC (a chain of sends) is closed when the finished run is
    collected, and its ``finally`` releases a holder the resource no
    longer knows.  That must not raise inside the finaliser — while a
    live resource still refuses a release it never granted."""
    import gc
    import sys

    from repro.network import SharedBusNetwork

    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

    def abandoned_run():
        env = Environment()
        net = SharedBusNetwork(env, 2)

        def sender():
            yield from net.transmit_frames([(0, 1, 10, None)] * 3)
        env.process(sender())
        env.run(until=net.params.send_overhead / 2)
        assert net.send_nic[0].in_use == 1
        net.abandon()

    abandoned_run()
    gc.collect()
    assert [u.exc_value for u in unraisable] == []

    live = Resource(Environment())
    req = live.request()
    live.release(req)
    with pytest.raises(SimulationError, match="never granted"):
        live.release(req)


# -- the one entrance: acquire(holder) ----------------------------------------

def test_acquire_calls_on_grant_at_once_when_free(env):
    """The grant happens in ``acquire``: the holder waited nothing, and
    its hold is the one event scheduled."""
    res = Resource(env)
    held = Holder(env, 2.0)
    res.acquire(held)
    assert held.queued == 0.0 and res.in_use == 1
    assert env.peek() == 2.0
    res.release(held)
    assert res.in_use == 0


def test_fifo_across_mixed_waiters(env):
    """``request()`` (a holder with no hold), a holder of its own hold
    and a hold released from a process queue on one resource in one
    FIFO, and each measures its wait."""
    res = Resource(env)
    order = []

    def by_request(name, hold):
        req = res.request()
        yield req
        order.append((name, env.now, req.value))
        yield env.timeout(hold)
        res.release(req)

    def by_use(name, seconds):
        held = hold(env, res, seconds)
        yield held
        order.append((name, env.now - seconds, held.queued))

    def by_acquire(name, seconds):
        def done(_event):
            order.append((name, env.now - seconds, held.queued))
            res.release(held)
        held = Holder(env, seconds, done)
        res.acquire(held)

    def arrivals():
        env.process(by_request("r1", 1.0))
        yield env.timeout(0.1)
        by_acquire("c1", 1.0)
        yield env.timeout(0.1)
        env.process(by_use("u1", 1.0))
        yield env.timeout(0.1)
        env.process(by_request("r2", 1.0))
        yield env.timeout(0.1)
        by_acquire("c2", 1.0)

    env.process(arrivals())
    env.run()
    assert [name for name, _at, _waited in order] == \
        ["r1", "c1", "u1", "r2", "c2"]
    assert [at for _name, at, _waited in order] == \
        pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])
    assert [waited for _name, _at, waited in order] == \
        pytest.approx([0.0, 0.9, 1.8, 2.7, 3.6])
    assert res.in_use == 0 and res.queue_length == 0


def test_cancel_queued_callback_waiter(env):
    res = Resource(env)
    holder, quitter, stayer = (Holder(env, 1.0) for _ in range(3))
    for held in (holder, quitter, stayer):
        res.acquire(held)
    assert res.queue_length == 2
    res.release(quitter)  # cancel while queued
    assert res.queue_length == 1 and res.in_use == 1
    res.release(holder)
    assert [getattr(held, "queued", None)
            for held in (holder, quitter, stayer)] == [0.0, None, 0.0]
    with pytest.raises(SimulationError, match="never granted"):
        res.release(quitter)


def test_abandon_with_callback_waiters_leaves_nothing_to_collect():
    """A queued holder's callbacks point at its waiter, which points back
    at the resource: ``abandon`` must cut that (and the finished run's
    schedule is dropped), so a finished run is freed by reference
    counting alone."""
    import gc

    def abandoned_run():
        env = Environment()
        res = Resource(env)
        for _ in range(3):
            hold(env, res, 1.0)
        assert res.in_use == 1 and res.queue_length == 2
        env.discard_pending()
        res.abandon()
        assert res.in_use == 0 and res.queue_length == 0

    abandoned_run()  # warm up
    gc.collect()
    gc.disable()
    try:
        abandoned_run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_interrupting_a_queued_use_gives_up_its_place(env):
    """A chain of sends waits for and holds its NIC inside one ``try``:
    a sender interrupted while still queued withdraws its request, so
    the next waiter is served (a grant to the dead waiter would hold the
    NIC for ever), and it sends nothing."""
    from repro.network import SharedBusNetwork
    from repro.network.parameters import NetworkParameters
    from repro.simulation import Interrupt

    net = SharedBusNetwork(env, 2, NetworkParameters(send_overhead=1.0,
                                                     local_overhead=1.0))
    nic = net.send_nic[0]
    log = []

    def sender(name, frames, think=0.0):
        yield env.timeout(think)
        try:
            yield from net.transmit_frames([(0, 0, 0, name)] * frames)
            log.append((name, env.now))
        except Interrupt:
            log.append(("gave up", env.now))

    def interrupter(victim):
        yield env.timeout(0.5)
        victim.interrupt()

    env.process(sender("holder", 2))
    env.process(interrupter(env.process(sender("impatient", 1))))
    env.process(sender("patient", 1, think=0.1))
    env.run()
    # The holder's second frame queues again, behind the patient sender.
    assert log == [("gave up", 0.5), ("patient", 2.0), ("holder", 3.0)]
    assert nic.in_use == 0 and nic.queue_length == 0
    assert net.stats.local_messages == 3


def test_abandon_with_a_queued_carry_leaves_nothing_to_collect():
    """A routed message queued on a link is a carry — an ``Event`` that
    is its own hold — waiting behind the carry that holds the link.
    ``abandon`` clears both carries' callbacks, and the finished run is
    freed by reference counting alone."""
    import gc

    from repro.network.graph import GraphNetwork, _Carry
    from repro.network.topology import Topology

    def abandoned_run():
        env = Environment()
        net = GraphNetwork(env, Topology.ring(4))  # 0 -> 2 runs via 1
        link = net._links[(1, 2)][0]
        # What ``transmit`` starts once the send NIC is paid.
        _Carry(net, 1, 2, 100_000, None, env.event(), 0.0)  # holds 1-2
        _Carry(net, 0, 2, 10, None, env.event(), 0.0)
        while link.queue_length == 0:
            env.step()
        holder, (queued, _since) = link._holder, link._waiting[0]
        assert isinstance(holder, _Carry) and isinstance(queued, _Carry)
        assert holder.callbacks is not None
        env.discard_pending()
        net.abandon()
        assert link.in_use == 0 and link.queue_length == 0
        return holder.callbacks, queued.callbacks

    abandoned_run()  # warm up
    gc.collect()
    gc.disable()
    try:
        assert abandoned_run() == (None, None)
        assert gc.collect() == 0
    finally:
        gc.enable()
