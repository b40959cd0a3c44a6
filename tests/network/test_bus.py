"""Unit tests for the shared-bus transport."""

import pytest

from repro.network import SharedBusNetwork
from repro.network.parameters import NetworkParameters


PARAMS = NetworkParameters(send_overhead=1e-3, recv_overhead=1.2e-3,
                           wire_latency=0.2e-3, bandwidth=1e6,
                           local_overhead=0.05e-3)


def test_needs_at_least_one_host(env):
    with pytest.raises(ValueError):
        SharedBusNetwork(env, 0)


def test_single_message_latency(env):
    net = SharedBusNetwork(env, 2, PARAMS)
    arrival = []

    def sender():
        ev = yield from net.transmit(0, 1, 0)
        yield ev
        arrival.append(env.now)

    env.run(env.process(sender()))
    # send + wire + recv overheads with zero payload
    assert arrival[0] == pytest.approx(1e-3 + 0.2e-3 + 1.2e-3)


def test_payload_adds_bandwidth_term(env):
    net = SharedBusNetwork(env, 2, PARAMS)
    arrival = []

    def sender():
        ev = yield from net.transmit(0, 1, 100_000)
        yield ev
        arrival.append(env.now)

    env.run(env.process(sender()))
    assert arrival[0] == pytest.approx(2.4e-3 + 0.1)


def test_sender_returns_after_send_overhead_only(env):
    net = SharedBusNetwork(env, 2, PARAMS)
    freed = []

    def sender():
        yield from net.transmit(0, 1, 1_000_000)
        freed.append(env.now)

    env.run(env.process(sender()))
    assert freed[0] == pytest.approx(1e-3)


def test_local_delivery_skips_bus(env):
    net = SharedBusNetwork(env, 2, PARAMS)
    arrival = []

    def sender():
        ev = yield from net.transmit(1, 1, 10_000)
        yield ev
        arrival.append(env.now)

    env.run(env.process(sender()))
    assert arrival[0] == pytest.approx(0.05e-3)
    assert net.stats.local_messages == 1


def test_bus_serializes_wire_time(env):
    net = SharedBusNetwork(env, 3, PARAMS)
    arrivals = {}

    def sender(src):
        ev = yield from net.transmit(src, 2 if src != 2 else 0, 100_000)
        yield ev
        arrivals[src] = env.now

    env.process(sender(0))
    env.process(sender(1))
    env.run()
    # Both need 0.1s of wire; the second waits for the first.
    assert min(arrivals.values()) == pytest.approx(2.4e-3 + 0.1)
    assert max(arrivals.values()) >= 0.2


def test_sender_nic_serializes_broadcast(env):
    net = SharedBusNetwork(env, 4, PARAMS)
    done = []

    def broadcaster():
        for dst in (1, 2, 3):
            yield from net.transmit(0, dst, 0)
        done.append(env.now)

    env.run(env.process(broadcaster()))
    assert done[0] == pytest.approx(3e-3)  # 3 x send_overhead


def test_receiver_nic_serializes_gather(env):
    net = SharedBusNetwork(env, 4, PARAMS)
    arrivals = []

    def sender(src):
        ev = yield from net.transmit(src, 0, 0)
        yield ev
        arrivals.append(env.now)

    for src in (1, 2, 3):
        env.process(sender(src))
    env.run()
    arrivals.sort()
    # Receiver overhead 1.2 ms each must serialize at host 0.
    assert arrivals[1] - arrivals[0] >= 1.2e-3 - 1e-9
    assert arrivals[2] - arrivals[1] >= 1.2e-3 - 1e-9


def test_on_deliver_hook(env):
    net = SharedBusNetwork(env, 2, PARAMS)
    seen = []
    net.on_deliver = lambda dst, item: seen.append((dst, item))

    def sender():
        ev = yield from net.transmit(0, 1, 0, item="payload")
        yield ev

    env.run(env.process(sender()))
    assert seen == [(1, "payload")]


def test_unwatched_delivery_takes_no_turn_in_the_schedule(env):
    """A delivery event nobody listens to gets its value at the delivery
    instant without being scheduled; one yielded afterwards resumes its
    process at once, and one with a listener still fires for it."""
    net = SharedBusNetwork(env, 3, PARAMS)
    events = {}
    woken = []

    def sender():
        events["unwatched"] = yield from net.transmit(0, 1, 0, item="a")
        events["watched"] = yield from net.transmit(0, 2, 0, item="b")
        events["watched"].callbacks.append(
            lambda ev: woken.append((env.now, ev.value)))
        yield env.timeout(1.0)
        value = yield events["unwatched"]  # processed long ago
        woken.append((env.now, value))

    proc = env.process(sender())
    arrival = 1e-3 + 0.2e-3 + 1.2e-3
    env.run(arrival + 1e-9)
    assert events["unwatched"].processed and events["unwatched"].value == "a"
    assert not events["unwatched"]._scheduled
    env.run(proc)
    assert woken == [(pytest.approx(2 * 1e-3 + 0.2e-3 + 1.2e-3), "b"),
                     (pytest.approx(2e-3 + 1.0), "a")]
    assert events["watched"]._scheduled


def test_out_of_range_host_rejected(env):
    net = SharedBusNetwork(env, 2, PARAMS)

    def sender():
        yield from net.transmit(0, 5, 0)

    with pytest.raises(ValueError):
        env.run(env.process(sender()))


def test_negative_bytes_rejected(env):
    net = SharedBusNetwork(env, 2, PARAMS)

    def sender():
        yield from net.transmit(0, 1, -1)

    with pytest.raises(ValueError):
        env.run(env.process(sender()))


def test_stats_accumulate(env):
    net = SharedBusNetwork(env, 3, PARAMS)

    def sender():
        ev = yield from net.transmit(0, 1, 100)
        yield ev
        ev = yield from net.transmit(0, 2, 200)
        yield ev

    env.run(env.process(sender()))
    assert net.stats.messages == 2
    assert net.stats.bytes == 300
    assert net.stats.per_host_sent[0] == 2
    assert net.stats.per_host_received[1] == 1


def test_post_fire_and_forget(env):
    net = SharedBusNetwork(env, 2, PARAMS)
    delivered = net.post(0, 1, 0, item="x")
    env.run()
    assert delivered.processed
    assert delivered.value == "x"
