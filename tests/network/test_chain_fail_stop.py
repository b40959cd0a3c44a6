"""Fail-stop in the middle of a chain of sends.

A process's back-to-back sends are one chain through its send NIC
(``GraphNetwork.transmit_frames``): the process sleeps through every
hold.  Stopped between its m-th and (m+1)-th hold — a crash — it has
sent exactly m frames, its NIC is free (or handed to the next waiter)
at the stop instant, and nothing of it is left for the collector.
"""

from __future__ import annotations

import gc

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.workload import LoopSpec
from repro.faults.plan import CrashFault, FaultPlan
from repro.network import SharedBusNetwork
from repro.network.graph import GraphNetwork, _Chain
from repro.network.parameters import NetworkParameters
from repro.network.topology import Topology
from repro.runtime.options import RunOptions
from repro.simulation import Environment

PARAMS = NetworkParameters(send_overhead=1e-3, recv_overhead=1.2e-3,
                           wire_latency=0.2e-3, bandwidth=1e6)
K = 5


def _crash_mid_chain(topology, m):
    """Host 0 sends ``K`` frames back to back and is stopped halfway
    through its (m+1)-th hold, while host 0's second sender (the lb
    host's balancer) waits for the same NIC.  Returns what was
    delivered, when the waiter was granted, the stop instant and the
    network."""
    env = Environment()
    net = GraphNetwork(env, topology, PARAMS)
    delivered, granted = [], []
    net.on_deliver = lambda _dst, item: delivered.append(item)

    def sender():
        yield from net.transmit_frames(
            (0, 1 + i % (topology.n_hosts - 1), 100, i) for i in range(K))

    def balancer():
        yield env.timeout((m + 0.25) * PARAMS.send_overhead)
        net.send_nic[0].acquire("balancer", lambda _waited: granted.append(
            env.now))

    proc = env.process(sender())
    env.process(balancer())
    stop_at = (m + 0.5) * PARAMS.send_overhead

    def crash():
        yield env.timeout(stop_at)
        proc.stop()

    env.process(crash())
    env.run()
    return delivered, granted, stop_at, net


@pytest.mark.parametrize("topology", [Topology.bus(4), Topology.ring(4)],
                         ids=["bus", "ring"])
@pytest.mark.parametrize("m", range(K))
def test_a_sender_stopped_after_m_holds_sends_m_frames(topology, m):
    delivered, granted, stop_at, net = _crash_mid_chain(topology, m)
    assert delivered == list(range(m))
    assert net.stats.messages == m
    # The waiter queued behind hold m gets the NIC when the sender
    # stops, not when that hold would have ended.
    assert granted == [stop_at]
    nic = net.send_nic[0]
    assert nic._holder == "balancer" and nic.queue_length == 0


def test_a_stopped_chain_frees_its_nic_at_the_stop_instant():
    """No second sender: the NIC is free the moment the sender stops,
    and nothing more is sent."""
    env = Environment()
    net = SharedBusNetwork(env, 3, PARAMS)
    nic = net.send_nic[0]
    seen = []

    def sender():
        yield from net.transmit_frames([(0, 1, 10, None)] * 3)

    proc = env.process(sender())

    def crash():
        yield env.timeout(1.5 * PARAMS.send_overhead)
        proc.stop()
        yield env.timeout(0.0)
        seen.append((env.now, nic.in_use, nic.queue_length))

    env.process(crash())
    env.run()
    assert seen == [(1.5 * PARAMS.send_overhead, 0, 0)]
    assert net.stats.messages == 1


def test_a_stopped_chain_leaves_nothing_to_collect():
    def run():
        _delivered, _granted, _stop, net = _crash_mid_chain(
            Topology.ring(4), 2)
        net.env.discard_pending()
        net.abandon()

    run()  # warm up
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_sender_suspended_mid_chain_at_teardown_leaves_nothing_to_collect():
    """The run ends while a sender (a detached reply, say) is still in
    its chain: tearing the run down closes it, and what it waited on
    must not keep it in a reference cycle."""
    def run():
        env = Environment()
        net = GraphNetwork(env, Topology.ring(4), PARAMS)

        def sender():
            yield from net.transmit_frames(
                (0, 2, 100, i) for i in range(K))

        env.process(sender())
        env.run(until=2.5 * PARAMS.send_overhead)
        env.discard_pending()
        net.abandon()

    run()  # warm up
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


LOOP = LoopSpec(name="fail-stop", n_iterations=64, iteration_time=0.010,
                dc_bytes=800)


def _chains_of_a_run(cluster, options):
    """``(src, [hold-end instants])`` of every chain of more than one
    frame in a fault-free run."""
    ends: dict[_Chain, list[float]] = {}  # keeps each chain (and its id)
    real_sent = _Chain._sent

    def sent(chain):
        ends.setdefault(chain, []).append(chain.env.now)
        real_sent(chain)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Chain, "_sent", sent)
        run_loop(LOOP, cluster, "LCDLB", options)
    return [(chain.src, times) for chain, times in ends.items()
            if len(times) > 1]


def test_a_node_crashed_mid_chain_ends_a_run_that_leaves_no_garbage():
    """A worker crashed between the first and second hold of its
    interrupt burst: its chain stops there, having sent one frame, the
    host sends nothing more, the run still ends (every iteration
    executed once: the ledger audits it) and nothing is left for the
    collector."""
    cluster = ClusterSpec.homogeneous(8, max_load=3, persistence=0.5,
                                      seed=42)
    options = RunOptions(group_size=8)
    src, ends = next((src, ends) for src, ends in
                     _chains_of_a_run(cluster, options) if src != 0)
    crash_at = (ends[0] + ends[1]) / 2
    plan = FaultPlan(crashes=(CrashFault(node=src, time=crash_at),))
    sent, stopped = [], []
    real_sent, real_stop = _Chain._sent, _Chain.stop

    def record_sent(chain):
        if chain.frames is not None:  # a stopped chain's hold is a no-op
            sent.append((chain.src, chain.env.now))
        real_sent(chain)

    def record_stop(chain):
        if chain.frames is not None:
            stopped.append((chain.src, chain.env.now))
        real_stop(chain)

    run_loop(LOOP, cluster, "LCDLB", options, fault_plan=plan)  # warm up
    gc.collect()
    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Chain, "_sent", record_sent)
            patch.setattr(_Chain, "stop", record_stop)
            stats = run_loop(LOOP, cluster, "LCDLB", options,
                             fault_plan=plan)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert stats.crashed_nodes == (src,)
    assert stopped == [(src, crash_at)]
    assert [t for host, t in sent if host == src and t >= ends[0]] == \
        [ends[0]]
