"""Tests for the PVM-like virtual machine layer."""

import pytest

from repro.message.messages import InterruptMsg, ProfileMsg, Tag
from repro.message.pvm import VirtualMachine
from repro.network.parameters import NetworkParameters
from repro.protocol.commands import AwaitMessage


PARAMS = NetworkParameters(send_overhead=1e-3, recv_overhead=1e-3,
                           wire_latency=0.1e-3, bandwidth=1e6)
PROFILES = AwaitMessage(tags=(Tag.PROFILE,))
INTERRUPTS = AwaitMessage(tags=(Tag.INTERRUPT,))
ANY = AwaitMessage(tags=None)


@pytest.fixture
def vm(env):
    return VirtualMachine(env, 4, PARAMS)


def test_send_recv_round_trip(env, vm):
    def sender():
        yield from vm.send(ProfileMsg(src=0, dst=1, epoch=2, rate=1.5))

    def receiver():
        msg = yield vm.recv(1, PROFILES)
        return (env.now, msg.rate)

    env.process(sender())
    proc = env.process(receiver())
    t, rate = env.run(proc)
    assert rate == 1.5
    assert t > 0


def test_recv_filters_by_tag(env, vm):
    def sender():
        yield from vm.send(InterruptMsg(src=0, dst=1))
        yield from vm.send(ProfileMsg(src=0, dst=1, rate=2.0))

    def receiver():
        msg = yield vm.recv(1, PROFILES)
        return msg.rate

    env.process(sender())
    proc = env.process(receiver())
    assert env.run(proc) == 2.0
    # The interrupt is still flagged: a wait naming its tag takes it.
    assert vm.poll(1, ANY) is None
    assert vm.poll(1, INTERRUPTS) is not None


def test_recv_filters_by_epoch(env, vm):
    def sender():
        yield from vm.send(ProfileMsg(src=0, dst=1, epoch=1, rate=1.0))
        yield from vm.send(ProfileMsg(src=0, dst=1, epoch=2, rate=2.0))

    def receiver():
        msg = yield vm.recv(1, AwaitMessage(tags=(Tag.PROFILE,), epoch=2))
        return msg.rate

    env.process(sender())
    proc = env.process(receiver())
    assert env.run(proc) == 2.0


def test_poll_nonblocking(env, vm):
    assert vm.poll(2, ANY) is None

    def sender():
        yield from vm.send(InterruptMsg(src=0, dst=2))

    env.process(sender())
    env.run()
    msg = vm.poll(2, INTERRUPTS)
    assert msg is not None and msg.src == 0
    assert vm.poll(2, INTERRUPTS) is None


def test_drain_by_epoch(env, vm):
    def sender():
        for e in (0, 0, 1):
            yield from vm.send(ProfileMsg(src=0, dst=3, epoch=e))

    env.process(sender())
    env.run()
    out = vm.drain(3, AwaitMessage(tags=(Tag.PROFILE,), epoch=0))
    assert len(out) == 2
    assert len(vm.inbox[3]) == 1
    assert vm.drain(3) == [ProfileMsg(src=0, dst=3, epoch=1)]


def test_multicast_serializes_at_sender(env, vm):
    freed = []

    def sender():
        yield from vm.multicast(
            InterruptMsg(src=0, dst=d) for d in (1, 2, 3))
        freed.append(env.now)

    env.run(env.process(sender()))
    assert freed[0] == pytest.approx(3e-3)  # 3 sequential send overheads


def test_sent_by_tag_counts(env, vm):
    def sender():
        yield from vm.send(InterruptMsg(src=0, dst=1))
        yield from vm.send(ProfileMsg(src=0, dst=1))
        yield from vm.send(ProfileMsg(src=0, dst=2))

    env.run(env.process(sender()))
    assert vm.sent_by_tag[Tag.INTERRUPT] == 1
    assert vm.sent_by_tag[Tag.PROFILE] == 2


def test_local_send_to_self(env, vm):
    def sender():
        yield from vm.send(ProfileMsg(src=0, dst=0, rate=3.0))

    env.process(sender())
    env.run()
    msg = vm.poll(0, PROFILES)
    assert msg is not None and msg.rate == 3.0


def test_network_size_mismatch_rejected(env):
    from repro.network import SharedBusNetwork
    net = SharedBusNetwork(env, 3, PARAMS)
    with pytest.raises(ValueError):
        VirtualMachine(env, 4, PARAMS, network=net)


def test_match_predicate(env, vm):
    def sender():
        yield from vm.send(ProfileMsg(src=2, dst=1, rate=1.0))
        yield from vm.send(ProfileMsg(src=3, dst=1, rate=2.0))

    def receiver():
        msg = yield vm.recv(1, AwaitMessage(tags=(Tag.PROFILE,), srcs=(3,)))
        return msg.rate

    env.process(sender())
    proc = env.process(receiver())
    assert env.run(proc) == 2.0
