"""Graph-topology network transport: the generalized substrate S3.

:class:`GraphNetwork` carries messages over an explicit
:class:`~repro.network.topology.Topology` instead of assuming the
paper's shared Ethernet bus.  Every message still crosses the same three
serialization points as the original bus model:

1. the **sender's NIC/protocol stack** (``send_overhead``, one outgoing
   message at a time; a process's back-to-back sends are one
   :class:`_Chain` through it);
2. the **wire** — but now one :class:`~repro.simulation.Resource` *per
   link*, traversed store-and-forward along the deterministic
   shortest-path route, each hop costing that link's
   ``wire_latency + nbytes/bandwidth``.  A ``shared_medium`` topology
   (the bus) has a single wire for every pair of hosts, so all frames
   serialize globally exactly as before;
3. the **receiver's NIC/protocol stack** (``recv_overhead``, paid once
   at the final destination).

Intermediate hops model cut-through switch ports: they hold the link,
not the forwarding host, so a relay host's NICs (and its crash state —
see docs/TOPOLOGY.md for the fault-model consequences) never gate
traffic passing through it.

For a ``shared_medium`` complete graph this reduces to *exactly* the
delivery instants and service orders of the original
``SharedBusNetwork``, which is what keeps the seed oracles
bit-identical — without its wire and receive-NIC resources: a FIFO
single server fed in time order needs no queue, so a frame's way over
the bus is *booked* in closed form the moment it leaves the sender's NIC
(:meth:`GraphNetwork._book`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Generator, Iterable, Iterator, Optional,
                    Protocol)

from ..obs.trace import NULL_RECORDER
from ..simulation import (PRIORITY_NORMAL, PRIORITY_URGENT, Environment,
                          Event, Resource)
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
    :class:`~repro.message.VirtualMachine`: :meth:`transmit_frames` is
    the sender-side generator of back-to-back sends, :meth:`transmit` a
    chain of one returning its delivery event, and the three hooks are
    the observation/fault-injection points.
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

    def transmit_frames(self, frames: Iterable[Frame]
                        ) -> Generator[Event, None, Optional[Event]]: ...

    def post(self, src: int, dst: int, nbytes: int,
             item: Any = None) -> Event: ...


#: What one stage of a carry needs: the resource to hold, the latency and
#: bandwidth that price the hold, and the trace track (``None``: no span).
_Stage = tuple[Resource, float, float, Optional[str]]

#: One frame of a chain of sends: ``(src, dst, nbytes, item)``.
Frame = tuple[int, int, int, Any]


class _Carry(Event):
    """Callback-driven store-and-forward carry of one message.

    One object per message walks ``route`` — a stage per link, then the
    receiver's NIC — through :meth:`Resource.acquire`: the grant *calls*
    :meth:`_acquired`, which schedules the carry itself as the hold
    event, whose firing runs :meth:`_release` and requests the next
    stage.  One engine event per serialization point (the hold) plus the
    delivery; no grant event, no generator frame, no Process, no
    per-hop allocation, and no start event unless a fault delays the
    message.

    Guaranteed: every resource is requested in the order, and held for
    the seconds (:func:`~repro.network.parameters.transfer_seconds` of
    the stage's latency and bandwidth), that the event-per-grant carry
    it replaced produced, and each hold is scheduled at the instant its
    grant event would have been *scheduled*, so its due time is the same
    float and the holds keep their relative order.  Not guaranteed: a
    hold may now precede an event that non-resource code schedules in
    the same instant with a bit-equal due time.  The seed oracles
    (tests/protocol/test_scale_seed_identity.py) and the reference model
    in tests/network/test_store_and_forward_reference.py pin both halves.
    """

    __slots__ = ("net", "src", "dst", "nbytes", "item", "delivered",
                 "extra_delay", "route", "stage", "res", "hold", "track",
                 "queued")

    def __init__(self, net: "GraphNetwork", src: int, dst: int, nbytes: int,
                 item: Any, delivered: Event, extra_delay: float) -> None:
        env = self.env = net.env
        self.callbacks = None  # set to _HOP while a hold is scheduled
        self._value = None
        self._ok = True
        self._defused = False
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
            start = Event(env)
            start.callbacks.append(self._start)
            env.schedule(start, PRIORITY_URGENT, 0.0)
        else:
            self._begin(None)

    def _start(self, _event: Event) -> None:
        delay = self.net.env.timeout(self.extra_delay)
        delay.callbacks.append(self._begin)

    def _begin(self, _event: Optional[Event]) -> None:
        net = self.net
        links = net._links
        self.route = [links[hop]
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
        # At the grant instant: the hold's due time and its place among
        # equal due times are what the Resource contract promises.
        self.queued = waited
        self.callbacks = _HOP
        self.env.schedule(self, PRIORITY_NORMAL, self.hold)

    def _release(self) -> None:
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


def _hop_done(carry: _Carry) -> None:
    carry._release()  # looked up per call, so a wrapped _release is seen


_HOP = (_hop_done,)  # the engine calls ``callback(event)``


class _Arrival(Event):
    """A booked bus frame reaching its destination: the one engine event
    of its whole way over wire and receive NIC.  Slotted, with one
    callbacks tuple shared by every instance — a P=1024 burst keeps some
    31 k frames booked at once."""

    __slots__ = ("net", "src", "dst", "nbytes", "item", "delivered")

    def __init__(self, net: "GraphNetwork", src: int, dst: int, nbytes: int,
                 item: Any, delivered: Event) -> None:
        self.env = net.env
        self.callbacks = _ARRIVE
        self._value = None
        self._ok = True
        self._defused = False
        self.net = net
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.item = item
        self.delivered = delivered

    def _arrive(self) -> None:
        net = self.net
        net.stats.record(self.src, self.dst, self.nbytes, local=False)
        net._deliver(self.dst, self.item, self.delivered)


_ARRIVE = (_Arrival._arrive,)  # the engine calls ``callback(event)``


class _Chain(Event):
    """One process's run of back-to-back sends, walked by callbacks.

    PVM over Ethernet has no hardware multicast: consecutive sends
    serialize at the sender's stack (§6.1), one send-NIC hold each.  A
    chain is the object that holds the NIC for each of its frames in
    turn, and it is its own hold event (as a :class:`_Carry` is), so the
    sending process sleeps through the whole run and resumes once.  At
    each hold's end, in the order the resumed process would have done it,
    the chain releases the NIC, books, carries or locally delivers the
    frame (:meth:`GraphNetwork._launch`), takes the next frame from its
    iterator, consults the fault hook on it, and asks the NIC again.
    After the last hold it fires :attr:`done` *inside* that hold's
    callback, so the waiter resumes at that hold's ``(time, priority,
    eid)``, as it resumed from the hold itself when it sent frame by
    frame.

    Guaranteed: every NIC request, grant and hold, every fault-hook call
    and every delivery happens at the instant and in the order that
    consecutive :meth:`GraphNetwork.transmit` calls made them, the
    engine events are the same (one hold per frame), and a lazy frame
    iterator is advanced at the instant the next send began (so a check
    inside it sees what that send saw).  Not guaranteed: the sender is
    not the engine's active process while the chain runs.  A process
    stopped mid-chain (:meth:`stop`) withdraws or releases its NIC at
    the stop instant and sends nothing more.
    """

    __slots__ = ("net", "frames", "done", "nic", "src", "dst", "nbytes",
                 "item", "delivered", "verdict")

    def __init__(self, net: "GraphNetwork", frames: Iterator[Frame]) -> None:
        env = self.env = net.env
        self.callbacks = None  # set to _SENT while a hold is scheduled
        self._value = None
        self._ok = True
        self._defused = False
        self.net = net
        #: The frames still to send; ``None`` once finished or stopped.
        self.frames: Optional[Iterator[Frame]] = frames
        #: Fires after the last hold, from inside its callback.
        self.done = Event(env)
        self.delivered: Optional[Event] = None
        self._next()

    def _next(self) -> None:
        """Ask the NIC for the next frame; fire :attr:`done` when none
        is left."""
        frame = next(self.frames, None)
        if frame is None:
            self.frames = None
            done = self.done
            done._value = None
            callbacks, done.callbacks = done.callbacks, None
            for callback in callbacks:
                callback(done)
            return
        net = self.net
        src, dst, nbytes, item = frame
        self.src, self.dst, self.nbytes, self.item = frame
        if not (0 <= src < net.n_hosts and 0 <= dst < net.n_hosts
                and nbytes >= 0):
            net._check_host(src)
            net._check_host(dst)
            raise ValueError("nbytes must be non-negative")
        self.delivered = Event(self.env)
        self.verdict = None
        if src != dst and net.fault_hook is not None:
            # Same-host transfers never touch the wire; local delivery
            # is assumed reliable (no fault hook consultation).
            self.verdict = verdict = net.fault_hook(src, dst, nbytes, item)
            if isinstance(verdict, (int, float)) and verdict > 0:
                # Counted as the hook decides, ahead of the sender's
                # overhead: the delay belongs to the stage that sent it.
                net.stats.delayed_messages += 1
        self.nic = net.send_nic[src]
        self.nic.acquire(self, self._granted)

    def _granted(self, _waited: float) -> None:
        # At the grant instant, as the Resource contract promises.
        params = self.net.params
        self.callbacks = _SENT
        self.env.schedule(self, PRIORITY_NORMAL,
                          params.local_overhead if self.src == self.dst
                          else params.send_overhead)

    def _sent(self) -> None:
        if self.frames is None:
            return  # stopped while holding: the NIC is already back
        self.nic.release(self)
        net, src, dst = self.net, self.src, self.dst
        if src == dst:
            net.stats.record(src, dst, self.nbytes, local=True)
            net._deliver(dst, self.item, self.delivered)
        else:
            net._launch(src, dst, self.nbytes, self.item, self.delivered,
                        self.verdict)
        self._next()

    def stop(self) -> None:
        """The sender stopped: withdraw or release the NIC, send no more
        (a no-op once the chain finished)."""
        if self.frames is not None:
            self.frames = None
            # A sender closed at the end of a run still lists itself on
            # ``done``: a reference cycle through its process.
            self.done.callbacks = None
            self.nic.release(self)


def _frame_sent(chain: _Chain) -> None:
    chain._sent()


_SENT = (_frame_sent,)  # the engine calls ``callback(event)``


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
        # What a carry's stage needs is built here, once per wire and once
        # per receive NIC — never per message, per hop or per (src, dst)
        # pair.  A shared medium has neither: the bus is booked (see _book).
        self._links: dict[tuple[int, int], _Stage] = {}  # both directions
        if topology.shared_medium:
            if len(topology.edges) != self.n_hosts * (self.n_hosts - 1) // 2:
                raise ValueError("a shared medium reaches every host in one "
                                 "hop: it needs the complete edge set")
            # The wire and each receive NIC are the instant they fall free.
            self._wire_free = 0.0
            self._recv_free = [0.0] * self.n_hosts
            #: (wire_latency, bandwidth) of the pairs with link_params.
            self._wire_override = {
                pair: (over.wire_latency, over.bandwidth)
                for (u, v), over in topology.link_params
                for pair in ((u, v), (v, u))}
        else:
            for u, v in topology.edges:
                over = topology.params_for(u, v) or self.params
                self._links[(u, v)] = self._links[(v, u)] = (
                    Resource(env, name=f"link{u}-{v}"),
                    over.wire_latency, over.bandwidth, f"link:{u}-{v}")
        self.send_nic = [Resource(env, name=f"send-nic{i}")
                         for i in range(self.n_hosts)]
        self.recv_nic = [] if topology.shared_medium else [
            Resource(env, name=f"recv-nic{i}") for i in range(self.n_hosts)]
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

    def transmit(self, src: int, dst: int, nbytes: int,
                 item: Any = None) -> Generator[Event, None, Event]:
        """Send ``nbytes`` (+ payload ``item``) from ``src`` to ``dst``.

        A generator to ``yield from`` inside a simulated process: a
        chain of one frame (:meth:`transmit_frames`).  It completes once
        the sender-side overhead has been paid and returns a *delivery
        event* that fires (with ``item`` as its value) when the message
        reaches ``dst``.
        """
        return self.transmit_frames(((src, dst, nbytes, item),))

    def transmit_frames(self, frames: Iterable[Frame]
                        ) -> Generator[Event, None, Optional[Event]]:
        """Send ``frames`` back to back (a generator to ``yield from``).

        Each ``(src, dst, nbytes, item)`` frame holds its sender's NIC in
        turn, as consecutive :meth:`transmit` calls would; the frames are
        taken from ``frames`` one at a time, when the previous one has
        left its NIC, so a lazy iterable decides each one at the instant
        it is sent.  The waiting process resumes once, after the last
        hold; a process stopped mid-chain gives its NIC back and sends
        nothing more.  Returns the last frame's delivery event (``None``
        when ``frames`` is empty).
        """
        chain = _Chain(self, iter(frames))
        if chain.frames is not None:
            try:
                yield chain.done
            finally:
                chain.stop()
        return chain.delivered

    def _launch(self, src: int, dst: int, nbytes: int, item: Any,
                delivered: Event, verdict: "None | str | float") -> None:
        """What becomes of a frame that has left ``src``'s send NIC under
        the fault hook's ``verdict``: lost, or carried (``_Carry``) or
        booked (:meth:`_book`) after any extra delay."""
        if verdict == "drop":
            # The frame is lost on the wire: the sender has paid its NIC
            # cost (asynchronous sends report no error) and the delivery
            # event simply never fires.
            self.stats.dropped_messages += 1
            if self.on_drop is not None:
                self.on_drop(src, dst, item)
            return
        extra = float(verdict) if isinstance(verdict, (int, float)) \
            else 0.0
        if not self.topology.shared_medium:
            _Carry(self, src, dst, nbytes, item, delivered, extra)
        elif extra > 0:
            # As a delayed carry starts: at the current instant but after
            # everything already scheduled at it, then the delay, then
            # the wire.
            def delay(_event: Event) -> None:
                self.env.timeout(extra).callbacks.append(
                    lambda _event: self._book(src, dst, nbytes, item,
                                              delivered))
            start = Event(self.env)
            start.callbacks.append(delay)
            self.env.schedule(start, PRIORITY_URGENT, 0.0)
        else:
            self._book(src, dst, nbytes, item, delivered)

    def _book(self, src: int, dst: int, nbytes: int, item: Any,
              delivered: Event) -> None:
        """Book a frame's whole way over the shared medium — the wire,
        then ``dst``'s receive NIC — at the instant it asks for the wire.

        Both are FIFO single servers, the wire fed in engine-time order
        and each receive NIC off that one wire in wire order, so neither
        needs a queue: service starts at ``max(asked, free_at)``, the
        same additions in the same order a :class:`Resource` and its hold
        timeouts would make.  One engine event, the arrival, is scheduled
        at the resulting instant.

        Guaranteed: every delivery instant, every service order (wire,
        and each receive NIC), every :class:`NetworkStats` counter, the
        order of arrivals at a mailbox and every ``transfer`` span
        argument are what a wire ``Resource`` and P receive-NIC
        ``Resource`` objects walked by a :class:`_Carry` produce.  Not
        guaranteed: the arrival is inserted into the schedule when the
        frame is booked, not when its receive NIC is granted, so it can
        precede an event of bit-equal due time created in between (on the
        bus that needs ``(k-1) * recv_overhead == m * wire_hold`` to hold
        in floats).  Not valid on a routed graph, where a queued hold's
        event would be created at request instead of at grant and
        equal-constant links make bit-equal due times structural — there
        :class:`_Carry` stays (docs/PERFORMANCE.md, "The booked bus").
        """
        now = self.env.now
        params = self.params
        latency, bandwidth = self._wire_override.get(
            (src, dst), (params.wire_latency, params.bandwidth))
        hold = transfer_seconds(latency, bandwidth, nbytes)
        start = now if now >= self._wire_free else self._wire_free
        self._wire_free = off_wire = start + hold
        recv_free = self._recv_free[dst]
        granted = off_wire if off_wire >= recv_free else recv_free
        self._recv_free[dst] = done = granted + params.recv_overhead
        if self.recorder.enabled:
            self.recorder.complete(
                "transfer", start, hold, track="link:bus",
                src=src, dst=dst, nbytes=nbytes, queued=start - now)
        self.env.schedule_at(
            _Arrival(self, src, dst, nbytes, item, delivered), done)

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
        wires = [stage[0] for stage in self._links.values()]
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
    wire* instance of :class:`GraphNetwork`: ``Topology.bus(P)``
    makes every pair of hosts adjacent (all routes are one hop) and
    ``shared_medium=True`` puts every edge on the single wire.  Every
    message crosses three serialization points, mirroring PVM over the
    shared segment:

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
