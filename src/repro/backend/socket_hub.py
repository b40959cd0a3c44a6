"""The socket backend's hub (see :mod:`repro.backend.socket`) and the
two ways a run goes: :func:`run_hub` with workers of its own,
:func:`serve_hub` for workers that dial in."""

from __future__ import annotations

import asyncio
import time
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from ..faults.liveness import HeartbeatMonitor
from ..message.frames import (
    PROTOCOL_VERSION,
    FrameError,
    FrameType,
    encode_frame,
    message_from_wire,
    message_to_wire,
)
from ..message.messages import Message
from ..obs.metrics import CounterDict
from ..protocol import BalancerProtocol, PeerDead, PeerJoined, PeerLeft
from ..runtime.assignment import CoverageError
from .base import DRAIN_GRACE_SECONDS, POLL_SECONDS, BackendError, mp_context
from .driver import Reporter, RunPlan, Supervisor, WorkerSpec, drive, pairs
from .socket import JoinEvent, KillEvent, LeaveEvent
from .socket_client import (
    _AbruptStop,
    _Dismissed,
    _frames,
    _run_client,
    _worker_proc_entry,
)

Range = tuple[int, int]

#: Distributed join fence: the announcement becomes effective this many
#: epochs past the newest profile the hub has routed, so no member can
#: complete the fenced gather without having seen the MEMBER frame.
JOIN_EPOCH_SLACK = 2


@dataclass
class _Peer:
    """Hub-side connection state of one registered worker."""

    node: int
    writer: asyncio.StreamWriter
    group: int
    #: "active" | "finished" | "departed" | "crashed" | "dismissed"
    status: str = "active"


class _HubPort(Reporter):
    """The hub-resident balancer's port: instructions leave as MSG
    frames, records go straight into the hub's ledger.  It holds
    nothing, so an event sent into the balancer's pump runs it to its
    next wait, or to its end."""

    def __init__(self, hub: "_Hub") -> None:
        super().__init__(None, 0.0, hub.plan.recorder)
        self._hub = hub

    def now(self) -> float:
        return self._hub.ledger.now()

    def deliver(self, msg: Message) -> None:
        target = self._hub.peers.get(msg.dst)
        if target is not None and target.status == "active":
            self._hub._write(target, FrameType.MSG, message_to_wire(msg))

    def emit(self, body: dict) -> None:
        if self._hub.ledger.book(None, body, self.now()) == "finish":
            self._hub._check_done()


class _Hub:
    """Listener, router, registrar, failure detector, stats collector."""

    def __init__(self, plan: RunPlan, script: Sequence[object],
                 strict: bool) -> None:
        self.plan = plan
        self.script = list(script)
        self.strict = strict
        self.n = len(plan.workers)
        centralized = plan.workers[0].centralized
        self.ledger = Supervisor(
            plan, [*range(self.n)] + (["balancer"] if centralized else []),
            name="hub", tail=self._stall_report)

        self.group_members = {g: list(m) for g, m in enumerate(plan.groups)}
        self.group_of = {node: g for g, members in enumerate(plan.groups)
                         for node in members}
        self.balancer: Optional[BalancerProtocol] = None
        if centralized:
            self.balancer = plan.workers[0].build_balancer(
                plan.groups, table=plan.table)
        self.port = _HubPort(self)
        #: The balancer's pump, parked at its wait; ``None`` once done.
        self._pump = None

        self.peers: dict[int, _Peer] = {}
        self.frames = CounterDict()
        self.expected_crashes: set[int] = set(plan.crash_at)
        self.left: list[int] = []
        self.joined: list[int] = []
        self.group_profile_epoch: dict[int, int] = {}
        self.errors: list[str] = []
        #: Set by :meth:`_check_done`, the moment the run is over.
        self.done = asyncio.Event()
        self._grace: Optional[asyncio.TimerHandle] = None
        self.spawner: Optional[Callable[[], None]] = None
        ft = plan.workers[0].ft
        self.monitor = HeartbeatMonitor.from_ft(ft) if ft.enabled else None
        self._fired: set[int] = set()
        self._next_initial = 0
        self._next_node = self.n
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -------------------------------------------------------
    async def start(self, host: str, port: int) -> int:
        self._server = await asyncio.start_server(self._serve_conn,
                                                  host, port)
        # Before the first balancer event: every hub-side trace
        # timestamp is seconds since here.
        self.ledger.start()
        if self.balancer is not None:
            self._pump = drive(self.balancer, self.port, None,
                               track="balancer")
            next(self._pump)
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- frame output ----------------------------------------------------
    def _write(self, peer: _Peer, ftype: FrameType,
               body: Optional[dict] = None) -> None:
        if peer.writer.is_closing():
            return
        data = encode_frame(ftype, body)
        self.frames.inc(ftype.name, len(data))
        try:
            peer.writer.write(data)
        except (ConnectionError, RuntimeError, OSError):
            pass

    # -- registration ----------------------------------------------------
    def _active_members(self, gid: int) -> list[int]:
        out = []
        for node in self.group_members.get(gid, []):
            peer = self.peers.get(node)
            if peer is None:
                out.append(node)  # expected but not yet connected
            elif peer.status == "active":
                out.append(node)
        return out

    def _register(self, ftype: FrameType, hello: dict):
        """Assign a node id to a newcomer's first frame; returns its
        :class:`~repro.backend.driver.WorkerSpec`, or the
        ``(frame type, body)`` that turns it away."""
        if ftype is not FrameType.HELLO:
            return FrameType.ERR, {"text": f"expected HELLO, "
                                           f"got {ftype.name}"}
        if int(hello.get("v", -1)) != PROTOCOL_VERSION:
            return FrameType.ERR, {
                "text": f"protocol version {hello.get('v')!r} unsupported "
                        f"(hub speaks {PROTOCOL_VERSION})"}
        if self.done.is_set():
            return FrameType.BYE, None
        if self._next_initial < self.n:
            self._next_initial += 1
            return self.plan.workers[self._next_initial - 1]
        # Elastic join: new node id, group 0 by convention.
        gid = 0
        if self.balancer is not None and gid in self.balancer.groups_done:
            return FrameType.BYE, None
        node = self._next_node
        self._next_node += 1
        if self.balancer is not None:
            self._feed(PeerJoined(node, gid))
            epoch = self.balancer.group_epoch.get(gid, 0)
            members = sorted(self.balancer.group_active[gid] | {node})
        else:
            epoch = self.group_profile_epoch.get(gid, 0) + JOIN_EPOCH_SLACK
            members = sorted(set(self._active_members(gid)) | {node})
            for other in self._active_members(gid):
                peer = self.peers.get(other)
                if peer is not None:
                    self._write(peer, FrameType.MEMBER,
                                {"node": node, "epoch": epoch})
        self.group_members.setdefault(gid, []).append(node)
        self.group_of[node] = gid
        self.joined.append(node)
        self.ledger.pending.add(node)
        return replace(self.plan.workers[0], node=node, group=gid,
                       members=tuple(members), ranges=(), epoch=epoch,
                       crash_at=None)

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        peer: Optional[_Peer] = None
        frames = _frames(reader)
        try:
            first = await anext(frames, None)
            if first is None:
                return
            assigned = self._register(*first)
            if not isinstance(assigned, WorkerSpec):
                writer.write(encode_frame(*assigned))
                await writer.drain()
                return
            peer = _Peer(assigned.node, writer, assigned.group)
            self.peers[peer.node] = peer
            if self.monitor is not None:
                self.monitor.watch(peer.node, time.perf_counter())
            self._write(peer, FrameType.WELCOME,
                        {"v": PROTOCOL_VERSION, "node": peer.node,
                         "run": assigned.to_wire()})
            self._check_done()
            async for ftype, body in frames:
                self._on_frame(peer, ftype, body)
        except asyncio.CancelledError:
            # Event-loop teardown at run end: the run is already over,
            # so a cancelled handler is not a peer failure.
            return
        except (ConnectionError, OSError):
            pass
        except FrameError as exc:
            if peer is not None:
                self._write(peer, FrameType.ERR, {"text": str(exc)})
        finally:
            if peer is not None and peer.status == "active":
                # EOF/reset while active: the kernel's failure signal.
                self._mark_crashed(peer,
                                   expected=peer.node
                                   in self.expected_crashes)
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    # -- frame input -----------------------------------------------------
    def _on_frame(self, peer: _Peer, ftype: FrameType, body: dict) -> None:
        if self.monitor is not None:
            self.monitor.note_alive(peer.node, time.perf_counter())
        if ftype is FrameType.MSG:
            self._route(peer, body)
        elif ftype is FrameType.PONG:
            pass  # note_alive above is the whole point
        elif ftype is FrameType.LEAVE:
            self._on_leave(peer, body)
        elif ftype is FrameType.STAT:
            self._on_stat(peer, body)
        elif ftype is FrameType.TRACE:
            # Only sent when our WELCOME asked for it; merge the worker's
            # ring buffer into the hub's run-wide recorder.
            self.ledger.recorder.merge_payload(body)
        elif ftype is FrameType.ERR:
            self._fail(f"worker {peer.node} reported: {body.get('text')}")
        # Unknown-to-this-role frames are ignored (forward compatibility).

    def _route(self, peer: _Peer, body: dict) -> None:
        try:
            dst = int(body["dst"])
            tag = body.get("tag")
            epoch = int(body.get("epoch", 0))
        except (KeyError, TypeError, ValueError):
            self._fail(f"malformed MSG frame from {peer.node}")
            return
        if tag == "profile":
            gid = self.group_of.get(int(body.get("src", peer.node)),
                                    peer.group)
            self.group_profile_epoch[gid] = max(
                self.group_profile_epoch.get(gid, 0), epoch)
        if self.balancer is not None and tag == "profile" and dst == 0:
            # Centralized strategies: profiles addressed to the lb host
            # feed the hub-resident balancer, as on the other backends.
            try:
                msg = message_from_wire(body)
            except FrameError as exc:
                self._fail(f"undecodable profile from {peer.node}: {exc}")
                return
            self._feed(msg)
            return
        target = self.peers.get(dst)
        if target is not None and target.status == "active":
            self._write(target, FrameType.MSG, body)
        # Traffic to terminal/unknown peers is stale; drop it.

    def _feed(self, reply) -> None:
        """Answer the balancer's wait with ``reply``, a message or a
        membership event; a finished pump takes nothing more."""
        if self._pump is None:
            return
        try:
            self._pump.send(reply)
        except StopIteration:
            self._pump = None

    def _on_stat(self, peer: _Peer, body: dict) -> None:
        try:
            kind = self.ledger.book(peer.node, body, self.ledger.now())
        except BackendError as exc:
            self._fail(str(exc))
            return
        if kind == "exec":
            self._fire_script()
            if self.ledger.exec_total >= self.plan.loop.n_iterations:
                self._check_done()
        elif kind == "finish":
            self.frames.merge(body.get("counters", {}).get("frames", {}))
            if peer.status == "active":
                peer.status = "finished"
                if self.monitor is not None:
                    self.monitor.forget(peer.node)
                # A retired peer can no longer answer profiles: announce
                # it so late joiners never gather on it.  (Live peers
                # already learned the retirement from the plan's active
                # set; a leaver/crasher was announced at that event.)
                self._broadcast_death(peer.node, planned=True)
                self._check_done()

    # -- membership transitions ------------------------------------------
    def _broadcast_death(self, node: int, *, planned: bool) -> None:
        for other in self.peers.values():
            if other.node != node and other.status == "active":
                self._write(other, FrameType.DEATH,
                            {"node": node, "planned": planned})

    def _on_leave(self, peer: _Peer, body: dict) -> None:
        if peer.status != "active":
            return
        peer.status = "departed"
        self.left.append(peer.node)
        self.ledger.pending.discard(peer.node)
        if self.monitor is not None:
            self.monitor.forget(peer.node)
        self._broadcast_death(peer.node, planned=True)
        self._feed(PeerLeft(peer.node))
        ranges = pairs(body.get("ranges"))
        if ranges:
            self._grant(peer, ranges)
        self._check_done()

    def _grant(self, leaver: _Peer, ranges: tuple[Range, ...]) -> None:
        """Re-grant a departed worker's residual ranges — exactly once.

        Lowest active node in the leaver's group, else lowest active
        anywhere, else nobody (the end-of-run salvage covers the gap).
        """
        same_group = [p.node for p in self.peers.values()
                      if p.status == "active" and p.group == leaver.group]
        anyone = [p.node for p in self.peers.values()
                  if p.status == "active"]
        pool = same_group or anyone
        if not pool:
            return
        target = self.peers[min(pool)]
        self._write(target, FrameType.GRANT,
                    {"ranges": [[s, e] for s, e in ranges]})

    def _mark_crashed(self, peer: _Peer, *, expected: bool) -> None:
        if peer.status != "active":
            return
        peer.status = "crashed"
        self.ledger.crash(peer.node)
        if self.monitor is not None:
            self.monitor.forget(peer.node)
        if not expected and self.strict:
            self._fail(
                f"worker {peer.node} disconnected outside the fault plan")
        self._broadcast_death(peer.node, planned=False)
        self._feed(PeerDead(peer.node))
        self._check_done()

    # -- scripted orchestration ------------------------------------------
    def _fire_script(self) -> None:
        for event in self.script:
            if id(event) in self._fired:
                continue
            if self.ledger.exec_total < event.after_iterations:
                continue
            self._fired.add(id(event))
            if isinstance(event, JoinEvent):
                if self.spawner is not None:
                    self.spawner()
            elif isinstance(event, LeaveEvent):
                peer = self.peers.get(event.node)
                if peer is not None and peer.status == "active":
                    self._write(peer, FrameType.CTRL, {"op": "leave"})
            elif isinstance(event, KillEvent):
                peer = self.peers.get(event.node)
                if peer is not None and peer.status == "active":
                    self.expected_crashes.add(event.node)
                    self._write(peer, FrameType.CTRL, {"op": "die"})

    # -- background tasks ------------------------------------------------
    async def run_liveness(self) -> None:
        assert self.monitor is not None
        while not self.done.is_set():
            await asyncio.sleep(max(self.monitor.interval / 2.0,
                                    POLL_SECONDS))
            now = time.perf_counter()
            for node in self.monitor.due_probes(now):
                peer = self.peers.get(node)
                if peer is not None and peer.status == "active":
                    self._write(peer, FrameType.PING,
                                {"t": round(self.ledger.now(), 6)})
            for node in self.monitor.overdue(now):
                peer = self.peers.get(node)
                if peer is not None:
                    self._mark_crashed(
                        peer, expected=node in self.expected_crashes)

    # -- completion ------------------------------------------------------
    def _fail(self, text: str) -> None:
        self.errors.append(text)
        self._check_done()

    def _check_done(self) -> None:
        """Decide whether the run is over — called wherever a transition
        can change the answer (a peer registers or turns terminal, the
        balancer finishes, an error is recorded, the last iteration is
        reported), never on a clock.  Its one timer is a duration: the
        grace between coverage holding and the dismissal of whoever
        still waits."""
        if self.done.is_set():
            return
        started = self._next_initial >= self.n
        if self.errors or (started and not self.ledger.pending):
            self._end_run()
            return
        try:
            covered = (started and self.ledger.exec_total
                       >= self.plan.loop.n_iterations
                       and self.ledger.uncovered() == [])
        except CoverageError as exc:  # a duplicate
            self._fail(str(exc))
            return
        if covered and self._grace is None:
            self._grace = asyncio.get_running_loop().call_later(
                DRAIN_GRACE_SECONDS, self._dismiss)
        elif not covered and self._grace is not None:
            self._grace.cancel()
            self._grace = None

    def _dismiss(self) -> None:
        """Every iteration has been accounted for a whole grace long;
        whoever is still waiting (e.g. a joiner whose fence was never
        reached) is no longer needed.  ``_finish_run`` says BYE."""
        for peer in self.peers.values():
            if peer.status == "active":
                peer.status = "dismissed"
                self.ledger.recorder.event("trace_truncated",
                                           track=f"node{peer.node}",
                                           reason="dismissed")
        self._end_run()

    def _end_run(self) -> None:
        if self._grace is not None:
            self._grace.cancel()
        self.done.set()

    def _stall_report(self) -> str:
        """The hub's own part of the run's stall report."""
        balancer = "no balancer"
        if self.balancer is not None:
            groups = {gid: sorted(members) for gid, members
                      in self.balancer.group_active.items()}
            balancer = (f"balancer group_active={groups} "
                        f"all_done={self.balancer.all_done}")
        return (
            f"registered {self._next_initial}/{self.n}; peers "
            f"{dict((p.node, p.status) for p in self.peers.values())}; "
            f"{balancer} bal_done={'balancer' not in self.ledger.pending}; "
            f"drain grace {'armed' if self._grace else 'not armed'}")

    async def run_completion(self) -> None:
        """Close the run once :meth:`_check_done` declared it over, or
        once its deadline passed, with the stall report as its error."""
        try:
            while not self.done.is_set():
                left = self.ledger.remaining()
                with suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self.done.wait(), left)
        except BackendError as exc:
            self._fail(str(exc))
        await self._finish_run()

    async def _finish_run(self) -> None:
        if not self.errors and (self.ledger.stats.crashed_nodes or self.left):
            await self._salvage()
        for peer in self.peers.values():
            self._write(peer, FrameType.BYE)
        for peer in self.peers.values():
            try:
                await peer.writer.drain()
            except (ConnectionError, OSError):
                pass
        if "balancer" in self.ledger.pending:
            # Stragglers were dismissed with the balancer still serving:
            # its traffic counts all the same.
            self.port.finish("dismissed")
        stats = self.ledger.stats
        stats.joined_nodes = tuple(sorted(self.joined))
        stats.left_nodes = tuple(sorted(self.left))
        stats.payload_by_frame = dict(sorted(self.frames.items()))
        stats.transport_payload_bytes = sum(self.frames.values())
        try:
            self.ledger.close(self.ledger.now())
        except CoverageError as exc:
            if not self.errors:
                self._fail(str(exc))

    async def _salvage(self) -> None:
        """Spend the salvage of a crash or a departure, crediting a
        finished survivor (else one not crashed)."""
        survivors = [p.node for p in self.peers.values()
                     if p.status == "finished"] or \
                    [p.node for p in self.peers.values()
                     if p.status != "crashed"]
        try:
            for _node, orphans in self.ledger.salvage(survivors):
                for start, end in orphans:
                    work = self.plan.table.range_work(start, end)
                    await asyncio.sleep(work * self.plan.workers[0].time_scale)
        except CoverageError as exc:
            self._fail(str(exc))


# ---------------------------------------------------------------------------
# A run, start to end.
# ---------------------------------------------------------------------------
async def _await_done(hub: _Hub) -> None:
    """Run the hub until the run is over and closed, then shut it."""
    liveness = asyncio.create_task(hub.run_liveness()) \
        if hub.monitor is not None else None
    try:
        await asyncio.wait_for(hub.run_completion(), hub.ledger.limit + 30.0)
    except asyncio.TimeoutError:
        hub.errors.append("hub watchdog: closing the run stalled")
    finally:
        if liveness is not None:
            liveness.cancel()
        await hub.close()


async def run_hub(hub: _Hub, host: str, workers: str,
                  start_method: Optional[str], procs: list) -> None:
    """Run ``hub`` to its end with ``hub.n`` workers of its own: asyncio
    tasks (``workers="tasks"``), or processes appended to ``procs`` for
    the caller to join."""
    port = await hub.start(host, 0)
    worker_tasks: list[asyncio.Task] = []
    ctx = mp_context(start_method) if workers == "procs" else None

    def spawn() -> None:
        if ctx is not None:
            p = ctx.Process(target=_worker_proc_entry, args=(host, port),
                            name=f"dlb-sock{len(procs)}", daemon=True)
            procs.append(p)
            p.start()
        else:
            worker_tasks.append(asyncio.create_task(
                _run_client(host, port)))

    hub.spawner = spawn
    for _ in range(hub.n):
        spawn()
    try:
        await _await_done(hub)
    finally:
        if worker_tasks:
            done, still = await asyncio.wait(worker_tasks, timeout=5.0)
            for task in still:
                task.cancel()
            for task in done:
                exc = task.exception()
                if exc is not None and not isinstance(
                        exc, (_AbruptStop, _Dismissed)):
                    hub.errors.append(f"worker task failed: {exc!r}")


async def serve_hub(hub: _Hub, host: str, port: int,
                    on_ready: Optional[Callable[[int], None]]) -> None:
    """Listen on ``port`` until a run of outside workers is over."""
    bound = await hub.start(host, port)
    if on_ready is not None:
        on_ready(bound)
    await _await_done(hub)
