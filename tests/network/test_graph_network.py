"""Unit tests for the graph transport (GraphNetwork).

The shared-bus equivalence tests mirror tests/network/test_bus.py
case-for-case: a ``shared_medium`` complete graph must reproduce the
original ``SharedBusNetwork`` timings exactly, because it *is* the same
sequence of serialization points (one wire, per-host NICs).
"""

import dataclasses

import pytest

from repro.network import SharedBusNetwork
from repro.network.graph import GraphNetwork, build_network
from repro.network.parameters import NetworkParameters
from repro.network.topology import Topology

PARAMS = NetworkParameters(send_overhead=1e-3, recv_overhead=1.2e-3,
                           wire_latency=0.2e-3, bandwidth=1e6,
                           local_overhead=0.05e-3)


def _deliver(env, net, src, dst, nbytes):
    arrival = []

    def sender():
        ev = yield from net.transmit(src, dst, nbytes)
        yield ev
        arrival.append(env.now)

    env.run(env.process(sender()))
    return arrival[0]


# -- store-and-forward timing -------------------------------------------

def test_single_hop_matches_bus_formula(env):
    net = GraphNetwork(env, Topology.ring(4), PARAMS)
    # 0 -> 1 is adjacent: send + one wire + recv, same as the bus.
    assert _deliver(env, net, 0, 1, 0) == pytest.approx(1e-3 + 0.2e-3
                                                        + 1.2e-3)


def test_multi_hop_pays_wire_per_link(env):
    net = GraphNetwork(env, Topology.ring(4), PARAMS)
    # 0 -> 2 crosses two links; each pays latency + nbytes/bandwidth,
    # but NIC overheads are charged once at each end (cut-through relay).
    nbytes = 1000
    wire = 0.2e-3 + nbytes / 1e6
    assert _deliver(env, net, 0, 2, nbytes) == \
        pytest.approx(1e-3 + 2 * wire + 1.2e-3)


def test_ring_two_hops_slower_than_bus_one_hop(env):
    bus_time = 1e-3 + (0.2e-3 + 1000 / 1e6) + 1.2e-3
    net = GraphNetwork(env, Topology.ring(4), PARAMS)
    assert _deliver(env, net, 0, 2, 1000) > bus_time


def test_per_link_parameter_override(env):
    slow = NetworkParameters(send_overhead=1e-3, recv_overhead=1.2e-3,
                             wire_latency=50e-3, bandwidth=1e6,
                             local_overhead=0.05e-3)
    topo = Topology("line", 3, ((0, 1), (1, 2)),
                    link_params=(((1, 2), slow),))
    net = GraphNetwork(env, topo, PARAMS)
    fast_wire = 0.2e-3 + 100 / 1e6
    slow_wire = 50e-3 + 100 / 1e6
    assert _deliver(env, net, 0, 2, 100) == \
        pytest.approx(1e-3 + fast_wire + slow_wire + 1.2e-3)


# -- contention ----------------------------------------------------------

def test_disjoint_links_carry_traffic_concurrently(env):
    """On a switched ring, edges (0,1) and (2,3) are separate wires:
    simultaneous transfers overlap instead of serializing."""
    net = GraphNetwork(env, Topology.ring(4), PARAMS)
    arrivals = {}

    def sender(src, dst):
        ev = yield from net.transmit(src, dst, 100_000)
        yield ev
        arrivals[src] = env.now

    env.process(sender(0, 1))
    env.process(sender(2, 3))
    env.run()
    one = 1e-3 + (0.2e-3 + 0.1) + 1.2e-3
    assert arrivals[0] == pytest.approx(one)
    assert arrivals[2] == pytest.approx(one)  # not 2x: no shared wire


def test_shared_medium_serializes_disjoint_pairs(env):
    """The same two transfers on a shared bus contend for the one wire."""
    net = GraphNetwork(env, Topology.bus(4), PARAMS)
    arrivals = {}

    def sender(src, dst):
        ev = yield from net.transmit(src, dst, 100_000)
        yield ev
        arrivals[src] = env.now

    env.process(sender(0, 1))
    env.process(sender(2, 3))
    env.run()
    assert max(arrivals.values()) >= 0.2  # second waits ~0.1s of wire


def test_shared_medium_must_be_the_complete_graph(env):
    """A shared medium is booked as one hop between any two hosts: a
    graph where some pair is not adjacent cannot be one."""
    ring = dataclasses.replace(Topology.ring(5), shared_medium=True)
    with pytest.raises(ValueError, match="complete edge set"):
        GraphNetwork(env, ring, PARAMS)
    triangle = dataclasses.replace(Topology.ring(3), shared_medium=True)
    net = GraphNetwork(env, triangle, PARAMS)
    assert _deliver(env, net, 0, 2, 0) == pytest.approx(1e-3 + 0.2e-3
                                                        + 1.2e-3)


def test_same_link_serializes(env):
    """Opposite-direction transfers over one undirected edge share its
    wire resource."""
    net = GraphNetwork(env, Topology.ring(4), PARAMS)
    arrivals = []

    def sender(src, dst):
        ev = yield from net.transmit(src, dst, 100_000)
        yield ev
        arrivals.append(env.now)

    env.process(sender(0, 1))
    env.process(sender(1, 0))
    env.run()
    arrivals.sort()
    assert arrivals[1] - arrivals[0] >= 0.1 - 1e-9  # one wire-time apart


# -- bus equivalence (the bit-identity seam, at transport level) ---------

@pytest.mark.parametrize("src,dst,nbytes", [(0, 1, 0), (0, 1, 100_000),
                                            (1, 1, 10_000), (2, 0, 64)])
def test_shared_medium_complete_graph_equals_bus(src, dst, nbytes):
    from repro.simulation import Environment

    env_a, env_b = Environment(), Environment()
    bus = SharedBusNetwork(env_a, 3, PARAMS)
    graph = GraphNetwork(env_b, Topology.bus(3), PARAMS)
    assert _deliver(env_a, bus, src, dst, nbytes) == \
        _deliver(env_b, graph, src, dst, nbytes)


def test_contended_schedule_equals_bus():
    """Interleaved senders: the full event schedule (not just a single
    delivery) must match the original bus implementation exactly."""
    from repro.simulation import Environment

    def drive(net, env):
        arrivals = []

        def sender(src, dst, nbytes):
            ev = yield from net.transmit(src, dst, nbytes)
            yield ev
            arrivals.append((env.now, src, dst))

        for src, dst, nbytes in ((0, 2, 5000), (1, 2, 5000), (2, 0, 800),
                                 (3, 1, 0), (1, 1, 64)):
            env.process(sender(src, dst, nbytes))
        env.run()
        return arrivals

    env_a, env_b = Environment(), Environment()
    a = drive(SharedBusNetwork(env_a, 4, PARAMS), env_a)
    b = drive(GraphNetwork(env_b, Topology.bus(4), PARAMS), env_b)
    assert a == b  # bit-identical floats, same order


# -- faults and hooks ----------------------------------------------------

def test_drop_fault_consumes_sender_cost_only(env):
    net = GraphNetwork(env, Topology.ring(4), PARAMS)
    net.fault_hook = lambda src, dst, nbytes, item: "drop"
    dropped = []
    net.on_drop = lambda src, dst, item: dropped.append((src, dst))
    freed = []

    def sender():
        yield from net.transmit(0, 2, 1000)
        freed.append(env.now)

    env.run(env.process(sender()))
    assert freed[0] == pytest.approx(1e-3)
    assert dropped == [(0, 2)]
    assert net.stats.dropped_messages == 1


def test_delay_fault_adds_wire_time(env):
    net = GraphNetwork(env, Topology.ring(4), PARAMS)
    baseline = _deliver(env, net, 0, 1, 0)
    from repro.simulation import Environment
    env2 = Environment()
    net2 = GraphNetwork(env2, Topology.ring(4), PARAMS)
    net2.fault_hook = lambda *a: 0.5
    assert _deliver(env2, net2, 0, 1, 0) == pytest.approx(baseline + 0.5)
    assert net2.stats.delayed_messages == 1


def test_build_network_spec_routing(env):
    assert build_network(env, None, 4, PARAMS).topology.shared_medium
    assert build_network(env, "ring", 4, PARAMS).topology.kind == "ring"
    topo = Topology.mesh(6)
    assert build_network(env, topo, 6, PARAMS).topology is topo


def test_out_of_range_and_negative_bytes_rejected(env):
    net = GraphNetwork(env, Topology.ring(3), PARAMS)

    def bad_host():
        yield from net.transmit(0, 9, 0)

    def bad_bytes():
        yield from net.transmit(0, 1, -1)

    with pytest.raises(ValueError):
        env.run(env.process(bad_host()))
    with pytest.raises(ValueError):
        env.run(env.process(bad_bytes()))
