"""The ordering contract of the network, against a reference model.

``GraphNetwork`` carries a message through FIFO resources — the sender's
NIC, one wire per link of the route, the receiver's NIC — with one
engine event per hold and grants that are *calls* (see ``_Carry`` and
``repro.simulation.resources``).  The reference below knows nothing of
events: every resource is a ``free_at`` instant and requests are served
in the order of their request times.  On tie-free inputs (no two
requests reach one resource at the same instant) the two must agree
**exactly** — the same floats, not approximately — on every delivery
time and on every resource's grant order.  Ties are decided by the
engine's (time, priority, insertion) order, which no closed form
predicts; one symmetric case is pinned to the order the per-grant-event
carry produced.

A shared medium has no wire or receive-NIC ``Resource`` to spy on: a
frame's way over the bus is booked in closed form
(``GraphNetwork._book``).  There the *service order* the booking implies
is checked instead — the ``link:bus`` spans of a recording run against
the reference's ``ethernet-bus`` grants, the deliveries per destination
against its ``recv-nic`` grants.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import defaultdict

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.network.graph import GraphNetwork, _Carry
from repro.network.parameters import NetworkParameters
from repro.obs.trace import TraceRecorder
from repro.network.topology import Topology
from repro.simulation import Environment, Resource

PARAMS = NetworkParameters(send_overhead=1e-3, recv_overhead=1.2e-3,
                           wire_latency=0.2e-3, bandwidth=1e6,
                           local_overhead=0.05e-3)
#: The corner ``NetworkParameters`` permits: with ``nbytes=0`` a frame is
#: on the wire, and in the receive NIC, for no time at all.
ZERO_HOLD = dataclasses.replace(PARAMS, wire_latency=0.0, recv_overhead=0.0)


def reference(topology, params, messages, verdicts, chains=None,
              skip_from=None):
    """``(deliveries, grants, tie_free, left_nic)`` for ``messages`` =
    ``[(send time, src, dst, nbytes)]`` under fault ``verdicts``.

    ``chains`` (default: one per message) lists the messages one process
    sends back to back: the first asks for its send NIC at its send
    time, each later one the instant the one before it leaves its NIC
    (the later ones' own send times are ignored).  A message ``i`` of
    ``skip_from`` is not sent at all if its send would begin at or
    after ``skip_from[i]`` (a parcel for a receiver declared dead by
    then).  ``left_nic[i]`` is when message ``i`` left its send NIC."""
    chains = chains if chains is not None else [[i] for i in
                                                range(len(messages))]
    skip_from = skip_from or {}
    plans, arrives = [], []
    for (_t, src, dst, nbytes), verdict in zip(messages, verdicts):
        arrives.append(src == dst or verdict != "drop")
        if src == dst:  # local: no wire, no fault hook
            plans.append([(f"send-nic{src}", params.local_overhead)])
            continue
        plan = [(f"send-nic{src}", params.send_overhead)]
        if verdict != "drop":
            if verdict:
                plan.append((None, verdict))  # a delay holds no resource
            for u, v in topology.route(src, dst):
                over = topology.params_for(u, v) or params
                wire = "ethernet-bus" if topology.shared_medium \
                    else f"link{min(u, v)}-{max(u, v)}"
                plan.append((wire, over.wire_latency + nbytes / over.bandwidth))
            plan.append((f"recv-nic{dst}", params.recv_overhead))
        plans.append(plan)
    then = {a: b for chain in chains for a, b in zip(chain, chain[1:])}
    free_at, last_request, left_nic = defaultdict(float), {}, {}
    deliveries, grants, tie_free = {}, defaultdict(list), True
    pending = [(messages[chain[0]][0], chain[0], 0) for chain in chains]
    heapq.heapify(pending)
    while pending:
        t, i, k = heapq.heappop(pending)
        if k == 0 and i in skip_from:
            tie_free = tie_free and t != skip_from[i]
            if t >= skip_from[i]:  # skipped: the next one begins now
                if i in then:
                    heapq.heappush(pending, (t, then[i], 0))
                continue
        if k == len(plans[i]):
            if arrives[i]:
                deliveries[i] = t
            continue
        resource, hold = plans[i][k]
        if resource is not None:
            tie_free = tie_free and last_request.get(resource) != t
            last_request[resource] = t
            t = max(t, free_at[resource])
            free_at[resource] = t + hold
            grants[resource].append(i)
        if k == 0:
            left_nic[i] = t + hold
            if i in then:
                heapq.heappush(pending, (t + hold, then[i], 0))
        heapq.heappush(pending, (t + hold, i, k + 1))
    return deliveries, grants, tie_free, left_nic


def bus_service(topology, params, messages, verdicts, order, left_nic):
    """``(src, dst, nbytes, start, queued)`` per frame the reference's
    ``ethernet-bus`` grant ``order`` implies: each frame asks for the wire
    when it leaves its send NIC plus any delay."""
    service, free = [], 0.0
    for i in order:
        _t, src, dst, nbytes = messages[i]
        asked = left_nic[i]
        if isinstance(verdicts[i], float):
            asked += verdicts[i]
        over = topology.params_for(src, dst) or params
        start = max(asked, free)
        free = start + (over.wire_latency + nbytes / over.bandwidth)
        service.append((src, dst, nbytes, start, start - asked))
    return service


def simulate(topology, params, messages, verdicts, chains=None,
             skip_from=None):
    """The same through ``GraphNetwork``: ``(deliveries, grants, spans)``.
    ``grants`` (every resource's, in grant order) also proves each
    resource granted in the order it was asked; ``spans`` are the
    ``transfer`` spans in recording order.  Without ``chains`` every
    message is one ``transmit`` of a process of its own; a chain is one
    ``transmit_frames`` whose frame iterator drops a ``skip_from``
    message when its turn comes at or after that instant."""
    env = Environment()
    net = GraphNetwork(env, topology, params)
    net.recorder = TraceRecorder(clock=lambda: env.now)
    net.fault_hook = lambda _src, _dst, _nbytes, item: verdicts[item]
    deliveries, asked, grants = {}, defaultdict(list), defaultdict(list)
    net.on_deliver = lambda _dst, item: deliveries.__setitem__(item, env.now)
    real_acquire = Resource.acquire
    skip_from = skip_from or {}

    def spy(resource, holder, on_grant):
        asked[resource.name].append(holder.item)

        def granted(waited):
            grants[resource.name].append(holder.item)
            on_grant(waited)
        real_acquire(resource, holder, granted)

    def sender(i, t, src, dst, nbytes):
        yield env.timeout(t)
        yield from net.transmit(src, dst, nbytes, item=i)

    def chain_sender(chain):
        yield env.timeout(messages[chain[0]][0])
        yield from net.transmit_frames(
            (*messages[i][1:], i) for i in chain
            if env.now < skip_from.get(i, float("inf")))

    if chains is None:
        for i, message in enumerate(messages):
            env.process(sender(i, *message))
    else:
        for chain in chains:
            env.process(chain_sender(chain))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Resource, "acquire", spy)
        env.run()
    assert grants == asked
    return deliveries, dict(grants), net.recorder.to_payload()["events"]


@st.composite
def networks(draw):
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["bus", "ring", "mesh", "torus", "random"]))
    topology = Topology.random_graph(
        n, extra_edges=draw(st.integers(0, 3)), seed=draw(st.integers(0, 99))
    ) if kind == "random" else getattr(Topology, kind)(n)
    edges = list(topology.edges)
    overridden = draw(st.lists(st.sampled_from(edges), unique=True,
                               max_size=min(3, len(edges))))
    link_params = tuple(
        (edge, dataclasses.replace(
            PARAMS,
            wire_latency=draw(st.floats(1e-5, 5e-3)),
            bandwidth=draw(st.floats(1e5, 1e7))))
        for edge in overridden)
    return dataclasses.replace(topology, link_params=link_params)


@st.composite
def bursts(draw):
    topology = draw(networks())
    hosts = st.integers(0, topology.n_hosts - 1)
    hot = draw(hosts)  # same-destination fan-in, as LCDLB's masters see
    messages = draw(st.lists(
        st.tuples(st.floats(0.0, 0.005), hosts,
                  st.one_of(st.just(hot), hosts),
                  st.one_of(st.just(0), st.integers(0, 20_000))),
        min_size=2, max_size=24, unique_by=lambda m: m[0]))
    verdicts = draw(st.lists(
        st.one_of(st.none(), st.none(), st.just("drop"),
                  st.floats(1e-4, 5e-3)),
        min_size=len(messages), max_size=len(messages)))
    params = draw(st.sampled_from([PARAMS, ZERO_HOLD])) \
        if topology.shared_medium else PARAMS
    return topology, params, messages, verdicts


def check_against_reference(topology, params, messages, verdicts,
                            chains=None, skip_from=None):
    deliveries, grants, tie_free, left_nic = reference(
        topology, params, messages, verdicts, chains, skip_from)
    assume(tie_free)
    got, got_grants, spans = simulate(topology, params, messages, verdicts,
                                      chains, skip_from)
    assert got == deliveries  # the same floats
    if chains is not None:  # every send NIC's grant order, frame by frame
        assert {name: order for name, order in got_grants.items()
                if name.startswith("send")} == {
            name: order for name, order in grants.items()
            if name.startswith("send")}
    got_grants = {name: order for name, order in got_grants.items()
                  if not name.startswith("send")}
    beyond_send = {name: order for name, order in grants.items()
                   if not name.startswith("send")}
    if not topology.shared_medium:
        assert got_grants == beyond_send
        return
    assert got_grants == {}  # nothing beyond the send NIC is a Resource
    assert [(e["track"], e["args"]["src"], e["args"]["dst"],
             e["args"]["nbytes"], e["ts"], e["args"]["queued"])
            for e in spans] == [
        ("link:bus", *frame) for frame in bus_service(
            topology, params, messages, verdicts, grants["ethernet-bus"],
            left_nic)]
    for name, order in beyond_send.items():
        if name.startswith("recv-nic"):
            dst = int(name[len("recv-nic"):])
            assert [i for i in got if messages[i][2] == dst
                    and messages[i][1] != dst] == order  # dict: as delivered


@given(bursts())
@settings(max_examples=150, deadline=None)
def test_deliveries_and_grant_order_equal_the_reference_exactly(burst):
    check_against_reference(*burst)


@st.composite
def chained_bursts(draw):
    """A burst cut into chains: each host's messages, in order, are sent
    back to back by one or two processes (the lb host's worker and its
    co-located balancer share one NIC), local sends among them, and up
    to three are parcels whose receiver is declared dead at a drawn
    instant."""
    topology, params, messages, verdicts = draw(bursts())
    chains = {}
    for i, (_t, src, _dst, _nbytes) in enumerate(messages):
        chains.setdefault((src, draw(st.integers(0, 1))), []).append(i)
    parcels = draw(st.sets(st.sampled_from(range(len(messages))),
                           max_size=3))
    skip_from = {i: draw(st.floats(0.0, 0.02)) for i in sorted(parcels)}
    return topology, params, messages, verdicts, list(chains.values()), \
        skip_from


@given(chained_bursts())
@settings(max_examples=150, deadline=None)
def test_chained_sends_equal_the_reference_exactly(burst):
    """A chain of sends is the sends one after the other: the same
    delivery floats, the same grant order on every send NIC, wire and
    receive NIC, frame by frame."""
    check_against_reference(*burst)


def test_a_chain_sleeps_through_its_holds_and_resumes_once():
    """Two chains share host 0's NIC and interleave frame by frame, a
    local send and a drop among them, and a parcel whose receiver died
    before its turn is not sent; each sender resumes once, at the end
    of its last hold, with the engine events of sends made one by one."""
    from repro.simulation import Process

    messages = [(0.0, 0, 1, 100), (0.0, 0, 0, 10), (0.0, 0, 2, 100),
                (0.5e-3, 0, 3, 100), (0.0, 0, 4, 100)]
    verdicts = [None, None, "drop", 2e-3, None]
    chains, skip_from = [[0, 1, 2], [3, 4]], {4: 1.8e-3}
    deliveries, grants, tie_free, left_nic = reference(
        Topology.bus(5), PARAMS, messages, verdicts, chains, skip_from)
    assert tie_free and grants["send-nic0"] == [0, 3, 1, 2]
    assert sorted(deliveries) == [0, 1, 3]  # 2 dropped, 4 skipped
    resumes, steps = [], []
    real_resume, real_step = Process._resume, Environment.step

    def resume(proc, event):
        resumes.append((proc.name, proc.env.now))
        real_resume(proc, event)

    def step(env):
        steps.append(env.now)
        real_step(env)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "_resume", resume)
        patch.setattr(Environment, "step", step)
        got, got_grants, _spans = simulate(Topology.bus(5), PARAMS, messages,
                                           verdicts, chains, skip_from)
    assert got == deliveries
    assert got_grants["send-nic0"] == grants["send-nic0"]
    # Each sender resumes at its start, after its timeout, and once when
    # its chain is done: at the end of its last frame's hold.
    assert [name for name, _at in resumes] == ["chain_sender"] * 6
    assert sorted(at for _name, at in resumes)[4:] == \
        sorted([left_nic[2], left_nic[3]])
    # Two starts, two timeouts, four holds, frame 0's arrival, the
    # delayed frame 3's start, delay and arrival, and two process ends:
    # a dropped and a local frame have no event beyond their hold.
    assert len(steps) == 2 + 2 + 4 + 1 + 3 + 2


def test_reference_sees_contention_drop_and_delay():
    """The property is not vacuous: a fan-in into host 0 over a 3-ring
    queues on the receive NIC, a drop never arrives, a delay is paid."""
    messages = [(0.0, 1, 0, 1000), (1e-4, 2, 0, 1000), (2e-4, 1, 0, 500),
                (3e-4, 2, 1, 100), (4e-4, 0, 0, 10)]
    verdicts = [None, None, "drop", 2e-3, None]
    deliveries, grants, tie_free, _left = reference(Topology.ring(3), PARAMS,
                                                    messages, verdicts)
    assert tie_free and 2 not in deliveries
    assert grants["recv-nic0"] == [0, 1]
    wire = PARAMS.wire_latency + 1000 / PARAMS.bandwidth
    assert deliveries[0] == PARAMS.send_overhead + wire + PARAMS.recv_overhead
    assert deliveries[1] == deliveries[0] + PARAMS.recv_overhead  # queued
    assert deliveries[3] > 3e-4 + 2e-3 + PARAMS.latency
    assert simulate(Topology.ring(3), PARAMS, messages, verdicts)[0] == \
        deliveries


def test_a_bus_builds_no_wire_or_receive_nic_resource_and_no_carry(
        monkeypatch):
    """Fan-in, a drop and a delay over the bus: every frame is booked, so
    the only resources are the send NICs and no carry walks anything."""
    built, carries = [], []
    real_resource, real_carry = Resource.__init__, _Carry.__init__

    def resource(self, env, name="resource"):
        built.append(name)
        real_resource(self, env, name)

    def carry(self, *args):
        carries.append(args)
        real_carry(self, *args)

    monkeypatch.setattr(Resource, "__init__", resource)
    monkeypatch.setattr(_Carry, "__init__", carry)
    messages = [(0.0, 1, 0, 1000), (1e-4, 2, 0, 1000), (2e-4, 1, 0, 500),
                (3e-4, 2, 1, 100), (4e-4, 0, 0, 10)]
    verdicts = [None, None, "drop", 2e-3, None]
    deliveries = reference(Topology.bus(3), PARAMS, messages, verdicts)[0]
    assert simulate(Topology.bus(3), PARAMS, messages, verdicts)[0] == \
        deliveries
    assert built == ["send-nic0", "send-nic1", "send-nic2"]
    assert carries == []
    simulate(Topology.ring(3), PARAMS, messages, verdicts)
    assert len(carries) == 3  # the test can see one


def test_symmetric_tie_keeps_the_parent_delivery_order():
    """Equal sizes, simultaneous senders, symmetric routes on a 3x3
    torus: nearly every request ties, so the engine's (time, priority,
    insertion) order decides.  Pinned to the order and the instants the
    parent of the grant fold (one event per grant) delivered."""
    pairs = [(src, 4) for src in (0, 1, 2, 3, 5, 6, 7, 8)] \
        + [(4, 0), (4, 8), (8, 0), (0, 8)]
    messages = [(0.0, src, dst, 1000) for src, dst in pairs]
    deliveries, _grants, _spans = simulate(Topology.torus(9), PARAMS,
                                           messages, [None] * len(messages))
    assert [pairs[i] for i in deliveries] == [  # dict order: as delivered
        (1, 4), (3, 4), (0, 8), (8, 0), (5, 4), (4, 8), (4, 0), (7, 4),
        (6, 4), (0, 4), (8, 4), (2, 4)]
    assert list(deliveries.values()) == [
        0.0034000000000000002, 0.0046, 0.0056, 0.0056, 0.0058, 0.0068,
        0.0068, 0.006999999999999999, 0.008199999999999999,
        0.009399999999999999, 0.010599999999999998, 0.011799999999999998]


def test_queued_and_free_send_nic_grants_keep_their_order():
    """Host 0's second send waits for its send NIC; host 1's second send
    finds its own free in the same instant; both holds end together and
    both frames then ask for the bus.  The grant that happened first
    (host 0's, handed over by ``release``) must reach the bus first: a
    ``use()`` folded only on its free path let host 1 overtake (found by
    the differential sweep on LCDLB / bus / P=16)."""
    env = Environment()
    net = GraphNetwork(env, Topology.bus(6), PARAMS)
    arrived = []
    net.on_deliver = lambda _dst, item: arrived.append((item, env.now))

    def chain(t, src, dsts):
        yield env.timeout(t)
        for dst in dsts:
            yield from net.transmit(src, dst, 100, item=(src, dst))

    env.process(chain(0.0, 0, [3]))
    env.process(chain(0.0, 1, [2, 4]))
    env.process(chain(0.5e-3, 0, [5]))
    env.run()
    assert arrived == [
        ((0, 3), 0.0024999999999999996), ((1, 2), 0.0027999999999999995),
        ((0, 5), 0.0034999999999999996), ((1, 4), 0.0037999999999999996)]
