"""Graph-topology network transport: the generalized substrate S3.

:class:`GraphNetwork` carries messages over an explicit
:class:`~repro.network.topology.Topology` instead of assuming the
paper's shared Ethernet bus.  Every message still crosses the same three
serialization points as the original bus model:

1. the **sender's NIC/protocol stack** (``send_overhead``, one outgoing
   message at a time);
2. the **wire** — but now one :class:`~repro.simulation.Resource` *per
   link*, traversed store-and-forward along the deterministic
   shortest-path route, each hop costing that link's
   ``wire_latency + nbytes/bandwidth``.  A ``shared_medium`` topology
   (the bus) maps every link onto a single wire resource, so all frames
   serialize globally exactly as before;
3. the **receiver's NIC/protocol stack** (``recv_overhead``, paid once
   at the final destination).

Intermediate hops model cut-through switch ports: they hold the link,
not the forwarding host, so a relay host's NICs (and its crash state —
see docs/TOPOLOGY.md for the fault-model consequences) never gate
traffic passing through it.

For a ``shared_medium`` complete graph this reduces to *exactly* the
resource-acquisition sequence of the original ``SharedBusNetwork``
(same resources, created in the same order, held for the same times),
which is what keeps the seed oracles bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Protocol

from ..obs.trace import NULL_RECORDER
from ..simulation import PRIORITY_URGENT, Environment, Event, Resource
from .parameters import NetworkParameters, transfer_seconds
from .topology import Topology, TopologySpec, resolve_topology

__all__ = ["GraphNetwork", "NetworkModel", "NetworkStats",
           "SharedBusNetwork", "build_network"]


@dataclass
class NetworkStats:
    """Aggregate transport statistics for a run."""

    messages: int = 0
    bytes: int = 0
    local_messages: int = 0
    dropped_messages: int = 0
    delayed_messages: int = 0
    per_host_sent: dict[int, int] = field(default_factory=dict)
    per_host_received: dict[int, int] = field(default_factory=dict)

    def record(self, src: int, dst: int, nbytes: int, local: bool) -> None:
        self.messages += 1
        self.bytes += nbytes
        if local:
            self.local_messages += 1
        self.per_host_sent[src] = self.per_host_sent.get(src, 0) + 1
        self.per_host_received[dst] = self.per_host_received.get(dst, 0) + 1


class NetworkModel(Protocol):
    """What the message layer and fault controller require of a network.

    Any transport with this surface can back a
    :class:`~repro.message.VirtualMachine`: :meth:`transmit` is the
    sender-side generator returning a delivery event, and the three
    hooks are the observation/fault-injection points.
    """

    env: Environment
    n_hosts: int
    params: NetworkParameters
    stats: NetworkStats
    on_deliver: Optional[Callable[[int, Any], None]]
    fault_hook: Optional[Callable[[int, int, int, Any], "None | str | float"]]
    on_drop: Optional[Callable[[int, int, Any], None]]

    def transmit(self, src: int, dst: int, nbytes: int,
                 item: Any = None) -> Generator[Event, None, Event]: ...

    def post(self, src: int, dst: int, nbytes: int,
             item: Any = None) -> Event: ...


#: What one stage of a carry needs: the resource to hold, the latency and
#: bandwidth that price the hold, and the trace track (``None``: no span).
_Stage = tuple[Resource, float, float, Optional[str]]


class _Carry:
    """Callback-driven store-and-forward carry of one message.

    One object per message walks ``route`` — a stage per link, then the
    receiver's NIC — through :meth:`Resource.acquire`: the grant *calls*
    :meth:`_acquired`, which creates the hold timeout, whose firing runs
    :meth:`_release` and requests the next stage.  One engine event per
    serialization point (the hold) plus the delivery; no grant event, no
    generator frame, no Process, and no start event unless a fault
    delays the message.

    Guaranteed: every resource is requested in the order, and held for
    the seconds (:func:`~repro.network.parameters.transfer_seconds` of
    the stage's latency and bandwidth), that the event-per-grant carry
    it replaced produced, and each hold timeout is created at the
    instant its grant event would have been *scheduled*, so its due time
    is the same float and the hold timeouts keep their relative order.
    Not guaranteed: a hold timeout may now precede an event that
    non-resource code schedules in the same instant with a bit-equal due
    time.  The seed oracles (tests/protocol/test_scale_seed_identity.py)
    and the reference model in
    tests/network/test_store_and_forward_reference.py pin both halves.
    """

    __slots__ = ("net", "src", "dst", "nbytes", "item", "delivered",
                 "extra_delay", "route", "stage", "res", "hold", "track",
                 "queued")

    def __init__(self, net: "GraphNetwork", src: int, dst: int, nbytes: int,
                 item: Any, delivered: Event, extra_delay: float) -> None:
        self.net = net
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.item = item
        self.delivered = delivered
        self.extra_delay = extra_delay
        self.stage = 0  # index into ``route``; the rest is set per stage
        if extra_delay > 0:
            # Mirrors Process.Initialize: the delay starts at the current
            # instant but *after* everything already scheduled at it.
            start = Event(net.env)
            start.callbacks.append(self._start)
            net.env.schedule(start, PRIORITY_URGENT, 0.0)
        else:
            self._begin(None)

    def _start(self, _event: Event) -> None:
        delay = self.net.env.timeout(self.extra_delay)
        delay.callbacks.append(self._begin)

    def _begin(self, _event: Optional[Event]) -> None:
        net = self.net
        links, wire = net._links, net._wire
        self.route = [links.get(hop, wire)
                      for hop in net.topology.route(self.src, self.dst)]
        self.route.append(net._recv_stage[self.dst])
        self._next_stage()

    def _next_stage(self) -> None:
        stage = self.stage
        if stage == len(self.route):
            net = self.net
            net.stats.record(self.src, self.dst, self.nbytes, local=False)
            net._deliver(self.dst, self.item, self.delivered)
            return
        self.stage = stage + 1
        self.res, latency, bandwidth, self.track = self.route[stage]
        self.hold = transfer_seconds(latency, bandwidth, self.nbytes)
        self.res.acquire(self, self._acquired)

    def _acquired(self, waited: float) -> None:
        self.queued = waited
        held = self.net.env.timeout(self.hold)
        held.callbacks.append(self._release)

    def _release(self, _event: Event) -> None:
        self.res.release(self)
        net = self.net
        if self.track is not None and net.recorder.enabled:
            # Wire occupancy (plus the wait behind earlier frames that the
            # resource measured, as an arg), from inside the release
            # callback: tracing adds no DES event.
            net.recorder.complete(
                "transfer", net.env.now - self.hold, self.hold,
                track=self.track, src=self.src, dst=self.dst,
                nbytes=self.nbytes, queued=self.queued)
        self._next_stage()


class GraphNetwork:
    """Hosts connected by an arbitrary graph of point-to-point links."""

    def __init__(self, env: Environment, topology: Topology,
                 params: Optional[NetworkParameters] = None) -> None:
        if topology.n_hosts < 1:
            raise ValueError("need at least one host")
        self.env = env
        self.topology = topology
        self.n_hosts = topology.n_hosts
        self.params = params or NetworkParameters()
        # Resource creation order matters for event-queue tie-breaking:
        # wire(s) first, then send NICs, then recv NICs — the exact order
        # the original SharedBusNetwork used.  What a carry's stage needs
        # is built here, once per wire and once per receive NIC — never
        # per message, per hop or per (src, dst) pair.
        self._links: dict[tuple[int, int], _Stage] = {}  # both directions
        self._wire: Optional[_Stage] = None

        def stage(wire: Resource, track: str, u: int, v: int,
                  over: Optional[NetworkParameters]) -> None:
            over = over or self.params
            self._links[(u, v)] = self._links[(v, u)] = (
                wire, over.wire_latency, over.bandwidth, track)

        if topology.shared_medium:
            # One wire, one stage for every edge (the bus edge set is
            # O(P^2)) but those with parameters of their own.
            self.bus = Resource(env, capacity=1, name="ethernet-bus")
            self._wire = (self.bus, self.params.wire_latency,
                          self.params.bandwidth, "link:bus")
            for (u, v), over in topology.link_params:
                stage(self.bus, "link:bus", u, v, over)
        else:
            for u, v in topology.edges:
                stage(Resource(env, capacity=1, name=f"link{u}-{v}"),
                      f"link:{u}-{v}", u, v, topology.params_for(u, v))
        self.send_nic = [Resource(env, name=f"send-nic{i}")
                         for i in range(self.n_hosts)]
        self.recv_nic = [Resource(env, name=f"recv-nic{i}")
                         for i in range(self.n_hosts)]
        # A NIC holds for its overhead whatever the size: infinite bandwidth.
        self._recv_stage: list[_Stage] = [
            (nic, self.params.recv_overhead, float("inf"), None)
            for nic in self.recv_nic]
        self.stats = NetworkStats()
        #: Optional hook called as ``on_deliver(dst, item)`` at delivery time.
        self.on_deliver: Optional[Callable[[int, Any], None]] = None
        #: Optional fault hook consulted per transfer *before* it enters
        #: the wire: ``fault_hook(src, dst, nbytes, item)`` returns
        #: ``None`` (deliver normally), ``"drop"`` (the message vanishes
        #: after the sender-side cost — PVM reports no error to the
        #: sender), or a positive float (extra seconds of delay on the
        #: wire).  Installed by :class:`repro.faults.FaultController`.
        self.fault_hook: Optional[Callable[[int, int, int, Any],
                                           "None | str | float"]] = None
        #: Optional observer for dropped messages: ``on_drop(src, dst, item)``.
        self.on_drop: Optional[Callable[[int, int, Any], None]] = None
        #: Trace sink for per-link transfer spans; the executor swaps in
        #: the run's recorder when tracing is enabled.
        self.recorder = NULL_RECORDER

    def _check_host(self, host: int) -> None:
        if not 0 <= host < self.n_hosts:
            raise ValueError(f"host {host} out of range 0..{self.n_hosts - 1}")

    def link(self, u: int, v: int) -> Resource:
        """The wire resource for the (undirected) edge ``u - v``."""
        return (self._wire or self._links[(u, v)])[0]

    def transmit(self, src: int, dst: int, nbytes: int,
                 item: Any = None) -> Generator[Event, None, Event]:
        """Send ``nbytes`` (+ payload ``item``) from ``src`` to ``dst``.

        A generator to ``yield from`` inside a simulated process.  It
        completes once the sender-side overhead has been paid and returns
        a *delivery event* that fires (with ``item`` as its value) when
        the message reaches ``dst``.
        """
        self._check_host(src)
        self._check_host(dst)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        delivered = self.env.event()
        if src == dst:
            # Same-host transfers never touch the wire; local delivery is
            # assumed reliable (no fault hook consultation).
            yield from self.send_nic[src].use(self.params.local_overhead)
            self.stats.record(src, dst, nbytes, local=True)
            self._deliver(dst, item, delivered)
            return delivered
        verdict = None
        if self.fault_hook is not None:
            verdict = self.fault_hook(src, dst, nbytes, item)
        yield from self.send_nic[src].use(self.params.send_overhead)
        if verdict == "drop":
            # The frame is lost on the wire: the sender has paid its NIC
            # cost (asynchronous sends report no error) and the delivery
            # event simply never fires.
            self.stats.dropped_messages += 1
            if self.on_drop is not None:
                self.on_drop(src, dst, item)
            return delivered
        extra = float(verdict) if isinstance(verdict, (int, float)) else 0.0
        if extra > 0:
            self.stats.delayed_messages += 1
        _Carry(self, src, dst, nbytes, item, delivered, extra)
        return delivered

    def _deliver(self, dst: int, item: Any, delivered: Event) -> None:
        if self.on_deliver is not None:
            self.on_deliver(dst, item)
        if delivered.callbacks:
            delivered.succeed(item)
        else:
            # Nobody listens (receives, not deliveries, synchronize the
            # protocol): the event gets its value without a turn in the
            # schedule, and whoever yields it later resumes at once.
            delivered._value, delivered.callbacks = item, None

    def abandon(self) -> None:
        """Drop the delivery hook and whatever is still in flight: the
        simulation is over, and both hold this network in a reference
        cycle (hook -> message layer -> network; queued request -> carry
        -> network)."""
        self.on_deliver = None
        wires = [self.bus] if self._wire \
            else [stage[0] for stage in self._links.values()]
        for resource in (*wires, *self.send_nic, *self.recv_nic):
            resource.abandon()

    # -- convenience: fire-and-forget send -------------------------------
    def post(self, src: int, dst: int, nbytes: int, item: Any = None) -> Event:
        """Spawn a detached process performing :meth:`transmit`.

        Returns the delivery event.  Used when the sender should not be
        charged in-line (e.g. test harnesses); protocol code should
        prefer ``yield from transmit(...)`` so sender cost is modeled.
        """
        delivered = self.env.event()

        def runner() -> Generator[Event, None, None]:
            inner = yield from self.transmit(src, dst, nbytes, item)
            value = yield inner
            if not delivered.triggered:
                delivered.succeed(value)

        self.env.process(runner(), name=f"post:{src}->{dst}")
        return delivered


class SharedBusNetwork(GraphNetwork):
    """The paper's network: hosts sharing one 10 Mbit Ethernet segment.

    Not a special implementation but the *complete graph through one
    resource* instance of :class:`GraphNetwork`: ``Topology.bus(P)``
    makes every pair of hosts adjacent (all routes are one hop) and
    ``shared_medium=True`` maps every edge onto the single
    ``ethernet-bus`` resource.  Every message crosses three
    serialization points, mirroring PVM over the shared segment:

    1. the **sender's NIC/protocol stack** (one outgoing message at a
       time, ``send_overhead`` each — a one-to-all broadcast therefore
       serializes at the sender);
    2. the **shared bus** (one frame on the wire at a time,
       ``wire_latency + nbytes/bandwidth`` each — all-to-all traffic
       becomes quadratic here);
    3. the **receiver's NIC/protocol stack** (``recv_overhead`` each —
       an all-to-one gather serializes at the receiver).

    Same-host transfers (the co-located central load balancer) skip the
    bus and cost only ``local_overhead``.
    """

    def __init__(self, env: Environment, n_hosts: int,
                 params: Optional[NetworkParameters] = None) -> None:
        super().__init__(env, Topology.bus(n_hosts), params)


def build_network(env: Environment, spec: TopologySpec, n_hosts: int,
                  params: Optional[NetworkParameters] = None) -> GraphNetwork:
    """Build the transport for a topology spec (``None`` => shared bus)."""
    return GraphNetwork(env, resolve_topology(spec, n_hosts), params)
