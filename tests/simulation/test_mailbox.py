"""Unit tests for the simulator's mailbox: blocking gets over an Inbox."""

import random

import pytest

from repro.message.inbox import Inbox
from repro.message.messages import (
    ControlMsg,
    InstructionMsg,
    InterruptMsg,
    ProfileMsg,
    Tag,
    WorkMsg,
)
from repro.protocol.commands import AwaitMessage
from repro.protocol.events import PeerDead
from repro.simulation import Environment, Mailbox

ANY = AwaitMessage(tags=None)
PROFILES = AwaitMessage(tags=(Tag.PROFILE,))


def _box(env):
    return Mailbox(env, Inbox())


def _p(src, epoch=0):
    return ProfileMsg(src=src, dst=0, epoch=epoch)


def _w(src, epoch=0):
    return WorkMsg(src=src, dst=0, epoch=epoch, ranges=((0, 1),))


def test_put_then_get(env):
    box = _box(env)
    box.put(_p(1))

    def worker():
        value = yield box.get(ANY)
        return value

    assert env.run(env.process(worker())) == _p(1)


def test_get_blocks_until_put(env):
    box = _box(env)

    def consumer():
        value = yield box.get(ANY)
        return (env.now, value)

    def producer():
        yield env.timeout(2.0)
        box.put(_p(1))

    proc = env.process(consumer())
    env.process(producer())
    assert env.run(proc) == (2.0, _p(1))


def test_fifo_order(env):
    box = _box(env)
    for i in range(3):
        box.put(_p(i))
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield box.get(PROFILES)).src)

    env.run(env.process(consumer()))
    assert got == [0, 1, 2]


def test_predicate_skips_non_matching(env):
    box = _box(env)
    box.put(_w(1))
    box.put(_p(2))

    def consumer():
        value = yield box.get(PROFILES)
        return value

    assert env.run(env.process(consumer())) == _p(2)
    assert box.items == [_w(1)]


def test_predicate_waiter_woken_only_by_match(env):
    box = _box(env)

    def consumer():
        value = yield box.get(PROFILES)
        return (env.now, value)

    def producer():
        yield env.timeout(1.0)
        box.put(_w(1))
        yield env.timeout(1.0)
        box.put(_p(2))

    proc = env.process(consumer())
    env.process(producer())
    assert env.run(proc) == (2.0, _p(2))
    assert box.items == [_w(1)]


def test_multiple_waiters_matched_independently(env):
    box = _box(env)
    results = {}

    def consumer(tag):
        value = yield box.get(AwaitMessage(tags=(tag,)))
        results[tag] = value

    env.process(consumer(Tag.PROFILE))
    env.process(consumer(Tag.WORK))

    def producer():
        yield env.timeout(1.0)
        box.put(_w(2))
        box.put(_p(1))

    env.process(producer())
    env.run()
    assert results == {Tag.PROFILE: _p(1), Tag.WORK: _w(2)}


def test_waiters_are_served_in_registration_order(env):
    box = _box(env)
    first, second = box.get(PROFILES), box.get(ANY)
    box.put(_p(1))
    assert first.triggered and first.value == _p(1)
    assert not second.triggered
    box.put(_p(2))
    assert second.value == _p(2)


def test_cancel_withdraws_one_waiter(env):
    box = _box(env)
    gone, kept = box.get(PROFILES), box.get(PROFILES)
    box.cancel(gone)
    box.cancel(gone)  # a second cancel is a no-op
    box.put(_p(1))
    assert not gone.triggered and kept.value == _p(1)
    box.put(_p(2))
    assert box.items == [_p(2)]  # nobody waits: buffered


def test_cancel_all_withdraws_every_waiter(env):
    box = _box(env)
    waits = [box.get(PROFILES), box.get(ANY)]
    box.cancel_all()
    box.put(_p(1))
    assert not any(w.triggered for w in waits)
    assert box.items == [_p(1)]


def test_take_nonblocking(env):
    box = _box(env)
    assert box.take(ANY) is None
    box.put(_p(5))
    assert box.take(ANY) == _p(5)
    assert box.take(ANY) is None


def test_take_with_predicate(env):
    box = _box(env)
    box.put(_w(1))
    box.put(_p(2))
    assert box.take(PROFILES) == _p(2)
    assert box.items == [_w(1)]


def test_drain_removes_all_matching(env):
    box = _box(env)
    for i in range(6):
        box.put(_p(i) if i % 2 == 0 else _w(i))
    assert box.drain(PROFILES) == [_p(0), _p(2), _p(4)]
    assert box.items == [_w(1), _w(3), _w(5)]


def test_drain_by_epoch_bound_keeps_the_current_epoch(env):
    box = _box(env)
    for epoch in (0, 2, 1, 2):
        box.put(_p(epoch, epoch))
    stale = AwaitMessage(tags=(Tag.PROFILE,), max_epoch=1)
    assert box.drain(stale) == [_p(0, 0), _p(1, 1)]
    assert box.items == [_p(2, 2), _p(2, 2)]


def test_drain_without_predicate_empties(env):
    box = _box(env)
    box.put(_p(1))
    box.put(_w(2))
    assert box.drain() == [_p(1), _w(2)]
    assert len(box) == 0


def test_notify_hook_fires_on_every_put(env):
    box = _box(env)
    seen = []
    box.notify = seen.append
    box.put(_p(1))
    box.put(InterruptMsg(src=2, dst=0))
    assert seen == [_p(1), InterruptMsg(src=2, dst=0)]


def test_notify_fires_even_when_waiter_consumes(env):
    box = _box(env)
    seen = []
    box.notify = seen.append

    def consumer():
        yield box.get(ANY)

    proc = env.process(consumer())
    box.put(_p(1))
    env.run(proc)
    assert seen == [_p(1)]


def test_counters(env):
    box = _box(env)
    box.put(_p(1))
    box.put(_p(2))
    box.take(ANY)
    assert box.put_count == 2
    assert box.got_count == 1


# -- an untimed gather: one wake-up once every source is covered -----------
GATHER = AwaitMessage(tags=(Tag.PROFILE,), epoch=0, srcs=(1, 2, 3))


def test_a_gather_fires_once_on_the_covering_put(env):
    box = _box(env)
    box.put(_p(2))
    wait = box.gather(GATHER)
    fired = []
    wait.callbacks.append(fired.append)
    for msg in (_w(1), _p(1, epoch=1), _p(3), _p(2), _w(3)):
        box.put(msg)  # a second profile of 2: covered already
    assert not wait.triggered and box.items[-1] == _w(3)
    box.put(_p(1))
    assert wait.value == [_p(2), _p(3), _p(1)]  # the oldest of each
    box.put(_p(1))
    env.run()
    assert fired == [wait]
    assert box.items == [_w(1), _p(1, epoch=1), _p(2), _w(3), _p(1)]


def test_a_gather_passes_a_source_it_holds_on_to_the_next_getter(env):
    box = _box(env)
    wait = box.gather(AwaitMessage((Tag.PROFILE,), max_epoch=1, srcs=(1, 2)))
    box.put(_p(1))
    later = box.get(AwaitMessage((Tag.PROFILE,), epoch=1))
    box.put(_p(1, epoch=1))
    assert later.value == _p(1, epoch=1) and not wait.triggered
    box.put(_p(2))
    assert wait.value == [_p(1), _p(2)]


def test_a_covered_gather_fires_at_once(env):
    box = _box(env)
    for src in (3, 1, 2):
        box.put(_p(src))
    assert box.gather(GATHER).value == [_p(3), _p(1), _p(2)]
    assert len(box) == 0


def test_a_notice_ends_a_gather_first(env):
    """As ``Inbox.take`` has it: a membership notice pre-empts what is
    buffered, a covering batch included."""
    box = _box(env)
    for src in (1, 2, 3):
        box.put(_p(src))
    box.inbox.post(PeerDead(2))
    assert box.gather(GATHER).value == PeerDead(2)
    assert box.gather(GATHER).value == [_p(1), _p(2), _p(3)]


def test_cancelled_gathers_leave_no_getter(env):
    box = _box(env)
    gone = box.gather(GATHER)
    box.cancel(gone)
    for src in (1, 2, 3):
        box.put(_p(src))
    assert not gone.triggered and len(box) == 3
    waits = [box.gather(AwaitMessage((Tag.PROFILE,), epoch=1, srcs=(1, 2))),
             box.get(AwaitMessage((Tag.WORK,)))]
    box.cancel_all()
    box.put(_p(1, epoch=1))
    box.put(_p(2, epoch=1))
    box.put(_w(1))
    assert not any(w.triggered for w in waits)
    assert not box._getters and len(box) == 6


def test_a_same_instant_cover_wakes_where_the_covering_put_stands(env):
    """The tie the gather contract leaves open (``AwaitMessage``): two
    profiles put in one instant.  A get per message wakes for the second
    only after whatever was scheduled between the two wake-ups (here an
    event the sender schedules right after its puts); the gather wakes
    once, where the second put stands — ahead of it."""
    def run(gatherer):
        sim = Environment()
        box, order = _box(sim), []

        def sender():
            yield sim.timeout(1.0)
            box.put(_p(1))
            box.put(_p(2))
            yield sim.timeout(0.0)
            order.append("sender")

        sim.process(gatherer(box, order))
        sim.process(sender())
        sim.run()
        return order

    def one_at_a_time(box, order):
        for src in (1, 2):
            yield box.get(AwaitMessage((Tag.PROFILE,), srcs=(src,)))
        order.append("gathered")

    def gather(box, order):
        yield box.gather(AwaitMessage((Tag.PROFILE,), srcs=(1, 2)))
        order.append("gathered")

    assert run(one_at_a_time) == ["sender", "gathered"]
    assert run(gather) == ["gathered", "sender"]


# -- one rule: the mailbox delivers what a bare Inbox would ----------------
_KINDS = ("resend-profile", "no-work", "resend-work", "retire")


def _message(rng):
    src, epoch = rng.randrange(4), rng.randrange(4)
    tag = rng.choice(list(Tag)[:5])
    if tag is Tag.INTERRUPT:
        return InterruptMsg(src=src, dst=0, epoch=epoch)
    if tag is Tag.PROFILE:
        return ProfileMsg(src=src, dst=0, epoch=epoch)
    if tag is Tag.INSTRUCTION:
        return InstructionMsg(src=src, dst=0, epoch=epoch)
    if tag is Tag.WORK:
        return WorkMsg(src=src, dst=0, epoch=epoch, ranges=((src, src + 1),))
    return ControlMsg(src=src, dst=0, epoch=epoch, kind=rng.choice(_KINDS))


def _spec(rng):
    """One of the waits the protocol arms, at a random epoch and peer."""
    e, s = rng.randrange(4), rng.randrange(4)
    return rng.choice([
        AwaitMessage((Tag.INTERRUPT, Tag.CONTROL), epoch=e,
                     control_kind="resend-profile"),
        AwaitMessage((Tag.INSTRUCTION,), epoch=e),
        AwaitMessage((Tag.PROFILE,), epoch=e, srcs=(s, (s + 1) % 4)),
        AwaitMessage((Tag.PROFILE, Tag.CONTROL), srcs=(s,), max_epoch=e,
                     control_kind="retire"),
        AwaitMessage((Tag.WORK, Tag.CONTROL), epoch=e, srcs=(s,),
                     control_kind="no-work"),
        AwaitMessage((Tag.WORK,), epoch=e),
        AwaitMessage((Tag.PROFILE,)),
        AwaitMessage(tags=None),
    ])


@pytest.mark.parametrize("seed", range(12))
def test_the_mailbox_keeps_the_inbox_rule(seed):
    """The same random traffic, epochs 0-3, into the simulator's mailbox
    and into a bare Inbox: a pending get served by ``put`` takes what
    the Inbox's ``take`` would have (an INTERRUPT included), polls and
    drains agree, and a drained epoch names no interrupter."""
    rng = random.Random(seed)
    box, bare = Mailbox(Environment(), Inbox()), Inbox()
    waits = []  # [spec, the mailbox's request, what the bare Inbox gave]
    for _ in range(400):
        roll = rng.random()
        if roll < 0.55:
            msg = _message(rng)
            box.put(msg)
            bare.post(msg)
            for wait in waits:  # registration order: the first that takes
                if wait[2] is None and wait[1].callbacks is not None:
                    wait[2] = bare.take(wait[0])
                    if wait[2] is not None:
                        break
        elif roll < 0.75:
            spec = _spec(rng)
            waits.append([spec, box.get(spec), bare.take(spec)])
        elif roll < 0.85:
            spec = _spec(rng)
            assert box.take(spec) == bare.take(spec)
        elif roll < 0.9:
            spec = AwaitMessage(tags=tuple(rng.sample(list(Tag)[1:5], 2)),
                                max_epoch=rng.randrange(4))
            assert box.drain(spec) == bare.drain(spec)
        elif roll < 0.95 and waits:
            wait = rng.choice(waits)
            if not wait[1].triggered:
                box.cancel(wait[1])  # a timed wait that timed out
        elif roll < 0.98:
            epoch = rng.randrange(4)
            box.inbox.drain_interrupts(epoch)
            bare.drain_interrupts(epoch)
            assert box.inbox.interrupter(epoch) is None
            assert bare.interrupter(epoch) is None
        else:  # a loop stage ends: the next one's epochs start at 0
            assert box.drain() == bare.drain()
        assert [box.inbox.has_interrupt(e) for e in range(4)] == \
            [bare.has_interrupt(e) for e in range(4)]
        assert [box.inbox.interrupter(e) for e in range(4)] == \
            [bare.interrupter(e) for e in range(4)]
        assert box.items == bare.items
    served = [w[1].value if w[1].triggered else None for w in waits]
    assert served == [w[2] for w in waits]
    assert any(served) and any(
        m is not None and m.tag is Tag.INTERRUPT for m in served)
