"""Real-TCP execution backend: the DLB protocol over sockets.

``SocketBackend`` runs the same pure state machines as every other
backend — :class:`~repro.protocol.worker.WorkerProtocol` in each worker,
:class:`~repro.protocol.balancer.BalancerProtocol` for the centralized
strategies — but its participants are genuine network peers: asyncio
TCP clients connected to a hub, exchanging the length-prefixed JSON
frames of :mod:`repro.message.frames` (documented byte-for-byte in
``docs/WIRE_PROTOCOL.md``).

Topology is a star.  The **hub** owns the listening socket, assigns
node ids at registration (HELLO/WELCOME), routes every worker↔worker
protocol message (MSG frames), hosts the balancer state machine
in-process for the centralized strategies, probes idle peers
(PING/PONG via :class:`~repro.faults.liveness.HeartbeatMonitor`), and
collects the run statistics from each worker's STAT stream.  A
**worker** is a small asyncio client: a reader task that sorts frames
into a mailbox, and a driver that pumps the protocol exactly like the
thread/process backends — compute is a wall-clock delay at iteration
granularity (the socket backend measures *protocol behavior over a
real transport*, not CPU speedup; see the backend map in
``docs/ARCHITECTURE.md``).

Elastic membership
------------------
Beyond the fixed rosters of the other backends, peers may come and go:

* **join** — a worker registering after the initial roster is admitted
  mid-run.  Centralized: the balancer's quorum grows immediately and
  the joiner's natural flow (empty assignment → "finished" → interrupt
  + profile) *is* the paper's §3.1 receiver-initiated sync, so the very
  next plan reshapes the iterations onto the new member set.
  Distributed: the hub broadcasts an epoch-fenced MEMBER announcement
  (effective epoch = latest profile epoch seen + 2) and existing
  members admit the joiner once their own epoch reaches the fence —
  per-stream TCP ordering guarantees nobody can complete the fenced
  epoch's gather without having seen the announcement first.
* **leave** — a planned departure (CTRL ``leave`` or the CLI's
  ``--leave-after``).  Honored at an iteration boundary: the worker
  ships everything still assigned back to the hub in a LEAVE frame and
  exits; the hub re-grants those ranges to a surviving group member
  (GRANT frame, applied at the receiver's next iteration boundary) and
  announces the departure as a *planned* DEATH.
* **crash** — a scheduled fail-stop (fault plan or CTRL ``die``) aborts
  the TCP connection; the hub's failure detector (EOF/reset, or
  heartbeat silence) broadcasts an *unplanned* DEATH and the hardened
  protocol reshapes exactly as on the process backend.

Exactly-once is preserved across all three: grants are issued at most
once, leaves happen only between iterations, and a run that lost a
peer (crashed or departed) ends in a salvage of its coverage gaps
(crash orphans, grants dropped by a retiring receiver), credited to
the lowest finished survivor, before the ledger's audit — the one end
of a run of docs/FAULT_MODEL.md, "End of a run".

What this backend refuses (:class:`BackendError`) is one row of the
capability matrix in ``docs/ARCHITECTURE.md``
(:data:`repro.backend.capabilities.CAPABILITIES`).
"""

from __future__ import annotations

import asyncio
import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from ..apps.workload import LoopSpec
from ..faults.liveness import HeartbeatMonitor
from ..faults.plan import FaultPlan
from ..machine.cluster import ClusterSpec
from ..message.frames import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    FrameType,
    encode_frame,
    message_from_wire,
    message_to_wire,
)
from ..message.messages import ControlMsg, Message, Tag
from ..obs.metrics import CounterDict
from ..obs.trace import TraceRecorder
from ..protocol import (
    AwaitMessage,
    BalancerProtocol,
    Done,
    LeaveRequested,
    MessageReceived,
    PeerDead,
    PeerJoined,
    PeerLeft,
    ProtocolEvent,
    Start,
    WorkerProtocol,
)
from ..runtime.assignment import CoverageError
from ..runtime.options import RunOptions
from ..runtime.stats import LoopRunStats
from .base import (
    CRASH_EXIT_CODE,
    DRAIN_GRACE_SECONDS,
    POLL_SECONDS,
    WATCHDOG_SECONDS,
    BackendError,
    ExecutionBackend,
    StrategyLike,
    join_or_terminate,
    mp_context,
)
from .driver import (
    Burn,
    Deadline,
    Inbox,
    Reporter,
    RunLedger,
    RunPlan,
    WorkerSpec,
    drive,
    execute,
    pairs,
    prepare_run,
)
from .kernels import hold_async

__all__ = ["SocketBackend", "JoinEvent", "LeaveEvent", "KillEvent",
           "run_worker"]

Range = tuple[int, int]

#: Distributed join fence: the announcement becomes effective this many
#: epochs past the newest profile the hub has routed, so no member can
#: complete the fenced gather without having seen the MEMBER frame.
JOIN_EPOCH_SLACK = 2


# ---------------------------------------------------------------------------
# Script events (test/orchestration hooks fired by executed-iteration count).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JoinEvent:
    """Spawn one extra worker once ``after_iterations`` have executed."""

    after_iterations: int


@dataclass(frozen=True)
class LeaveEvent:
    """Ask ``node`` to depart (planned) after ``after_iterations``."""

    node: int
    after_iterations: int


@dataclass(frozen=True)
class KillEvent:
    """Fail-stop ``node`` (connection aborted) after ``after_iterations``.

    Unlike :class:`~repro.faults.plan.CrashFault` this may target node
    0: over sockets the balancer lives at the hub, not on a worker, so
    the paper's reliable-master assumption pins the *hub*, not node 0.
    """

    node: int
    after_iterations: int


class _AbruptStop(Exception):
    """Internal: a scheduled fail-stop fired on this worker."""


class _Dismissed(Exception):
    """Internal: the hub ended the run (BYE) while this worker waited."""


async def _frames(reader: asyncio.StreamReader):
    """Every ``(type, body)`` frame of a connection, until EOF."""
    dec = FrameDecoder()
    while True:
        chunk = await reader.read(65536)
        if not chunk:
            return
        for frame in dec.feed(chunk):
            yield frame


# ---------------------------------------------------------------------------
# Worker client.
# ---------------------------------------------------------------------------
class _ClientReporter(Reporter):
    """A worker's port: everything leaves as a frame.

    On top of the base class's *modeled* counters (the paper's message
    economy, identical across backends), ``frames`` is the *transport*
    layer — bytes actually written per frame type, length prefix
    included.
    """

    def __init__(self, writer: asyncio.StreamWriter,
                 spec: WorkerSpec) -> None:
        super().__init__(spec.node, time.perf_counter(),
                         stream_records=spec.stream_records)
        self.writer = writer
        self.frames = CounterDict()
        self.executed_total = 0

    def write(self, ftype: FrameType, body: Optional[dict] = None) -> None:
        data = encode_frame(ftype, body)
        self.frames.inc(ftype.name, len(data))
        if not self.writer.is_closing():
            self.writer.write(data)

    def deliver(self, msg: Message) -> None:
        if isinstance(msg, ControlMsg) and msg.kind == "leave":
            # The protocol's ``leave`` control rides a LEAVE frame.
            self.write(FrameType.LEAVE, {
                "node": self.me,
                "ranges": [[s, e] for s, e in (msg.payload or ())]})
        else:
            self.write(FrameType.MSG, message_to_wire(msg))

    def emit(self, body: dict) -> None:
        self.write(FrameType.STAT, body)

    def executed(self, ranges: Sequence[Range]) -> None:
        self.executed_total += sum(e - s for s, e in ranges)
        super().executed(ranges)

    def counters(self) -> dict:
        return {**super().counters(), "frames": dict(self.frames)}

    def finish(self, reason: str) -> None:
        if self.recorder.enabled:
            # Ship the trace buffer ahead of the finish record so the
            # hub merges it before the peer turns terminal.
            self.write(FrameType.TRACE,
                       {"node": self.me, **self.recorder.to_payload()})
        super().finish(reason)

    async def drain(self) -> None:
        try:
            await self.writer.drain()
        except (ConnectionError, OSError) as exc:
            raise _Dismissed() from exc


class _ClientMailbox:
    """Worker-side inbox: the reader task sorts frames in here.

    Protocol messages and DEATH notices go through the shared
    :class:`~repro.backend.driver.Inbox`; MEMBER announcements and
    GRANTs apply at epoch / iteration boundaries; resend requests are
    answered from the protocol caches without waking the driver's
    state machine.
    """

    def __init__(self) -> None:
        self.inbox = Inbox()
        self.requests: list[ControlMsg] = []
        self.grants: list[tuple[Range, ...]] = []
        self.admits: list[tuple[int, int]] = []    # (node, effective epoch)
        self.leave = False
        self.die = False
        self.closed = False
        self.error_text: Optional[str] = None
        self.bye = asyncio.Event()
        self.wake = asyncio.Event()
        self.answer: Optional[Callable[[ControlMsg], None]] = None
        #: ``perf_counter`` instant of a scheduled fail-stop, if any.
        self.crash_at: Optional[float] = None

    def pop_due_admit(self, epoch: int) -> Optional[int]:
        for i, (node, eff) in enumerate(self.admits):
            if epoch >= eff:
                self.admits.pop(i)
                return node
        return None

    def check_stop(self) -> None:
        if self.die or (self.crash_at is not None
                        and time.perf_counter() >= self.crash_at):
            raise _AbruptStop()

    async def get(self, spec: AwaitMessage):
        """Next notice or matching message; ``None`` on timeout."""
        deadline = Deadline(spec, "the hub or a peer")
        while True:
            self.check_stop()
            while self.requests and self.answer is not None:
                self.answer(self.requests.pop(0))
            got = self.inbox.take(spec)
            if got is not None:
                return got
            if self.bye.is_set():
                raise _Dismissed()
            if self.closed:
                raise BackendError(
                    "connection to the hub lost" +
                    (f": {self.error_text}" if self.error_text else ""))
            remaining = deadline.remaining()
            if remaining is None:
                return None
            if self.crash_at is not None:
                # Nobody sets ``wake`` for a crash that is merely due.
                remaining = min(remaining, max(
                    0.0, self.crash_at - time.perf_counter()))
            self.wake.clear()
            try:
                await asyncio.wait_for(self.wake.wait(), remaining)
            except asyncio.TimeoutError:
                pass


async def _client_reader(mbox: _ClientMailbox, reporter: _ClientReporter,
                         frames) -> None:
    """Sort the rest of the hub's frames into the mailbox until EOF."""
    def dispatch(ftype: FrameType, body: dict) -> None:
        if ftype is FrameType.MSG:
            msg = message_from_wire(body)
            if (msg.tag is Tag.CONTROL
                    and msg.kind in ("resend-profile", "resend-work")):
                mbox.requests.append(msg)
            else:
                mbox.inbox.post(msg)
        elif ftype is FrameType.PING:
            reporter.write(FrameType.PONG, {"t": body.get("t")})
        elif ftype is FrameType.MEMBER:
            mbox.admits.append((int(body["node"]), int(body["epoch"])))
        elif ftype is FrameType.DEATH:
            node = int(body["node"])
            mbox.inbox.post(PeerLeft(node) if body.get("planned")
                            else PeerDead(node))
        elif ftype is FrameType.GRANT:
            mbox.grants.append(pairs(body.get("ranges")))
        elif ftype is FrameType.CTRL:
            op = body.get("op")
            if op == "leave":
                mbox.leave = True
            elif op == "die":
                mbox.die = True
        elif ftype is FrameType.BYE:
            mbox.bye.set()
        elif ftype is FrameType.ERR:
            mbox.error_text = body.get("text")
            mbox.bye.set()
        # Unknown-to-this-role frames are ignored (forward compatibility).

    try:
        async for ftype, body in frames:
            dispatch(ftype, body)
            mbox.wake.set()
    except (ConnectionError, OSError, FrameError):
        pass
    finally:
        mbox.closed = True
        mbox.bye.set()
        mbox.wake.set()


async def _client_burn(seconds: float, mbox: _ClientMailbox) -> None:
    """Wall-clock compute stand-in: the asyncio deadline hold, so
    fail-stops land mid-burn.  (bench/tracing.py times it by this name.)"""
    await hold_async(seconds, mbox.check_stop)


async def _client_drive(proto: WorkerProtocol, spec: WorkerSpec,
                        mbox: _ClientMailbox, reporter: _ClientReporter,
                        leave_after: Optional[int]) -> str:
    """The asyncio shell around the shared driver."""

    def boundary(_proto: WorkerProtocol) -> Optional[ProtocolEvent]:
        """All the elastic hooks (admits, grants, leave, fail-stop)
        apply at iteration boundaries."""
        mbox.check_stop()
        while True:
            joiner = mbox.pop_due_admit(proto.epoch)
            if joiner is None:
                break
            proto.on_event(PeerJoined(joiner))
        while mbox.grants:
            granted = mbox.grants.pop(0)
            if granted:
                proto.assignment.add(granted)
        if mbox.leave or (leave_after is not None
                          and reporter.executed_total >= leave_after):
            return LeaveRequested()
        return None

    pump = drive(proto, reporter, mbox.inbox, track=f"node{spec.node}",
                 boundary=boundary)
    reply = None
    try:
        while True:
            want = pump.send(reply)
            await reporter.drain()
            if isinstance(want, Burn):
                await _client_burn(want.cost * spec.time_scale, mbox)
                mbox.check_stop()  # fail-stop before the iteration is recorded
                reply = None
            else:
                joiner = mbox.pop_due_admit(proto.epoch)
                reply = PeerJoined(joiner) if joiner is not None \
                    else await mbox.get(want)
    except StopIteration as stop:
        reason = stop.value
    await reporter.drain()
    try:
        await asyncio.wait_for(mbox.bye.wait(), WATCHDOG_SECONDS)
    except asyncio.TimeoutError:
        pass
    return reason


async def _connect(host: str, port: int, *, attempts: int = 40,
                   delay: float = 0.25):
    """Dial the hub, retrying while it is still coming up."""
    last: Optional[Exception] = None
    for _ in range(max(1, attempts)):
        try:
            return await asyncio.open_connection(host, port)
        except (ConnectionError, OSError) as exc:
            last = exc
            await asyncio.sleep(delay)
    raise BackendError(f"cannot reach hub at {host}:{port}: {last}")


async def _run_client(host: str, port: int, *,
                      leave_after: Optional[int] = None) -> str:
    """One worker, HELLO to BYE.  Returns the terminal reason."""
    reader, writer = await _connect(host, port)
    frames = _frames(reader)
    try:
        hello = encode_frame(FrameType.HELLO, {"v": PROTOCOL_VERSION})
        writer.write(hello)
        await writer.drain()
        first = await anext(frames, None)
        if first is None:
            raise BackendError("hub closed the connection before "
                               "answering HELLO")
        ftype, body = first
        if ftype is FrameType.BYE:
            return "dismissed"
        if ftype is FrameType.ERR:
            raise BackendError(
                f"hub refused registration: {body.get('text')}")
        if ftype is not FrameType.WELCOME:
            raise BackendError(f"expected WELCOME, got {ftype.name}")
        spec = WorkerSpec.from_wire(body["node"], body["run"])

        reporter = _ClientReporter(writer, spec)
        # HELLO went out before the reporter existed; count it by hand.
        reporter.frames[FrameType.HELLO.name] = len(hello)
        mbox = _ClientMailbox()
        proto = spec.build_protocol()

        def answer(req: ControlMsg) -> None:
            reply = proto.answer_resend(req)
            if reply is not None:
                reporter.send(reply)
        mbox.answer = answer
        if spec.trace_events:
            reporter.recorder = TraceRecorder(clock=reporter.now)
        if spec.crash_at is not None:
            mbox.crash_at = time.perf_counter() + spec.crash_at
        reader_task = asyncio.create_task(
            _client_reader(mbox, reporter, frames))
        try:
            return await _client_drive(proto, spec, mbox, reporter,
                                       leave_after)
        except _AbruptStop:
            writer.transport.abort()
            return "crashed"
        except _Dismissed:
            return "dismissed"
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, Exception):
                pass
    finally:
        try:
            writer.close()
        except Exception:  # pragma: no cover - transport already aborted
            pass


def run_worker(host: str, port: int, *,
               leave_after: Optional[int] = None) -> str:
    """Blocking entry point for ``python -m repro worker``."""
    return asyncio.run(_run_client(host, port, leave_after=leave_after))


def _worker_proc_entry(host: str, port: int) -> None:
    """Subprocess entry (module-level so spawn contexts can import it)."""
    try:
        status = asyncio.run(_run_client(host, port))
    except BaseException:
        traceback.print_exc()
        os._exit(1)
    if status == "crashed":
        os._exit(CRASH_EXIT_CODE)


# ---------------------------------------------------------------------------
# Hub.
# ---------------------------------------------------------------------------
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
    frames, records go straight into the hub's ledger."""

    def __init__(self, hub: "_Hub") -> None:
        super().__init__(None, 0.0, hub.recorder)
        self._hub = hub

    def now(self) -> float:
        return self._hub.now()

    def deliver(self, msg: Message) -> None:
        target = self._hub.peers.get(msg.dst)
        if target is not None and target.status == "active":
            self._hub._write(target, FrameType.MSG, message_to_wire(msg))

    def emit(self, body: dict) -> None:
        if self._hub.ledger.record(None, body, self.now()) == "finish":
            self._hub.bal_done = True
            self._hub._check_done()


class _Hub:
    """Listener, router, registrar, failure detector, stats collector."""

    def __init__(self, plan: RunPlan, script: Sequence[object],
                 strict: bool) -> None:
        self.plan = plan
        self.script = list(script)
        self.stats = plan.stats
        self.strict = strict
        self.recorder = plan.recorder
        self.ledger = RunLedger(plan.stats, plan.table, plan.recorder,
                                plan.options.on_execute)

        self.n = len(plan.workers)
        self.group_members = {g: list(m) for g, m in enumerate(plan.groups)}
        self.group_of = {node: g for g, members in enumerate(plan.groups)
                         for node in members}
        self.balancer: Optional[BalancerProtocol] = None
        if plan.workers[0].centralized:
            self.balancer = plan.workers[0].build_balancer(
                plan.groups, table=plan.table)
        self.port = _HubPort(self)
        self.bal_done = self.balancer is None

        self.peers: dict[int, _Peer] = {}
        self.frames = CounterDict()
        self.expected_crashes: set[int] = set(plan.crash_at)
        self.crashed: list[int] = []
        self.left: list[int] = []
        self.joined: list[int] = []
        self.group_profile_epoch: dict[int, int] = {}
        self.errors: list[str] = []
        #: Set by :meth:`_check_done`, the moment the run is over.
        self.done = asyncio.Event()
        self._watchdog: Optional[asyncio.TimerHandle] = None
        self._grace: Optional[asyncio.TimerHandle] = None
        self.spawner: Optional[Callable[[], None]] = None
        ft = plan.workers[0].ft
        self.monitor = HeartbeatMonitor.from_ft(ft) if ft.enabled else None
        self._fired: set[int] = set()
        self._next_initial = 0
        self._next_node = self.n
        self._server: Optional[asyncio.AbstractServer] = None
        self._t0 = time.perf_counter()

    # -- lifecycle -------------------------------------------------------
    async def start(self, host: str, port: int) -> int:
        self._server = await asyncio.start_server(self._serve_conn,
                                                  host, port)
        self._t0 = time.perf_counter()
        self._watchdog = asyncio.get_running_loop().call_later(
            WATCHDOG_SECONDS * 2, lambda: self._fail(self._stall_report()))
        if self.recorder.enabled:
            # Clock rebinds before the first balancer event so every
            # hub-side trace timestamp is hub-relative seconds.
            self.recorder.set_clock(self.now)
        if self.balancer is not None:
            self._run_balancer_cmds(self.balancer.on_event(Start()))
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def now(self) -> float:
        return time.perf_counter() - self._t0

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
        node = self._next_node
        self._next_node += 1
        gid = 0
        if self.balancer is not None:
            try:
                self._run_balancer_cmds(
                    self.balancer.on_event(PeerJoined(node, gid)))
            except Exception:
                return FrameType.BYE, None
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
            self.recorder.merge_payload(body)
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
            self._run_balancer_cmds(
                self.balancer.on_event(MessageReceived(msg)))
            return
        target = self.peers.get(dst)
        if target is not None and target.status == "active":
            self._write(target, FrameType.MSG, body)
        # Traffic to terminal/unknown peers is stale; drop it.

    def _run_balancer_cmds(self, cmds) -> None:
        """The hub is event-driven: it feeds the balancer as frames
        arrive, so a batch's ``AwaitMessage`` needs no action."""
        then = execute(cmds, self.port, "balancer")
        if isinstance(then, Done):
            self.port.finish(then.reason)
        if self.balancer.all_done:
            self._check_done()

    def _on_stat(self, peer: _Peer, body: dict) -> None:
        kind = self.ledger.record(peer.node, body, self.now())
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
        elif kind == "error":
            self._fail(f"worker {peer.node} failed:\n{body.get('text')}")
        elif kind not in ("sync", "declared"):
            self._fail(f"unknown stats record {body!r} from {peer.node}")

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
        if self.monitor is not None:
            self.monitor.forget(peer.node)
        self._broadcast_death(peer.node, planned=True)
        if self.balancer is not None:
            self._run_balancer_cmds(
                self.balancer.on_event(PeerLeft(peer.node)))
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
        self.crashed.append(peer.node)
        # A crashed worker never ships its TRACE frame: mark the loss
        # explicitly instead of letting the gap pass silently.
        self.recorder.event("trace_truncated", track=f"node{peer.node}",
                            reason="crashed")
        if self.monitor is not None:
            self.monitor.forget(peer.node)
        if not expected and self.strict:
            self._fail(
                f"worker {peer.node} disconnected outside the fault plan")
        self._broadcast_death(peer.node, planned=False)
        if self.balancer is not None:
            self._run_balancer_cmds(
                self.balancer.on_event(PeerDead(peer.node)))
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
                                {"t": round(self.now(), 6)})
            for node in self.monitor.overdue(now):
                peer = self.peers.get(node)
                if peer is not None:
                    self._mark_crashed(
                        peer, expected=node in self.expected_crashes)

    def _orphans(self) -> Optional[list[Range]]:
        """Iterations nobody has reported yet; ``None`` (and an error)
        when the ledger holds a duplicate."""
        try:
            return self.ledger.uncovered()
        except CoverageError as exc:
            self._fail(str(exc))
            return None

    # -- completion ------------------------------------------------------
    def _fail(self, text: str) -> None:
        self.errors.append(text)
        self._check_done()

    def _check_done(self) -> None:
        """Decide whether the run is over — called wherever a transition
        can change the answer (a peer registers or turns terminal, the
        balancer finishes, an error is recorded, the last iteration is
        reported), never on a clock.  The two timers are durations: the
        watchdog, and the grace between coverage holding and the
        dismissal of whoever still waits."""
        if self.done.is_set():
            return
        started = self._next_initial >= self.n
        active = [p for p in self.peers.values() if p.status == "active"]
        if self.errors or (started and not active and (
                self.bal_done or (self.balancer is not None
                                  and self.balancer.all_done))):
            self._end_run()
            return
        covered = bool(started and active and self.ledger.exec_total
                       >= self.plan.loop.n_iterations
                       and self._orphans() == [])
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
                self.recorder.event("trace_truncated",
                                    track=f"node{peer.node}",
                                    reason="dismissed")
        self._end_run()

    def _end_run(self) -> None:
        for timer in (self._watchdog, self._grace):
            if timer is not None:
                timer.cancel()
        self.done.set()

    def _stall_report(self) -> str:
        """What the hub knows about a run that never completed."""
        balancer = "no balancer"
        if self.balancer is not None:
            groups = {gid: sorted(members) for gid, members
                      in self.balancer.group_active.items()}
            balancer = (f"balancer group_active={groups} "
                        f"all_done={self.balancer.all_done}")
        return (
            f"hub watchdog: run never completed in {WATCHDOG_SECONDS * 2:g}s"
            f" (registered {self._next_initial}/{self.n}; peers "
            f"{dict((p.node, p.status) for p in self.peers.values())}; "
            f"{balancer} bal_done={self.bal_done}; executed "
            f"{self.ledger.exec_total}/{self.plan.loop.n_iterations}, "
            f"first uncovered {(self._orphans() or [])[:4]}; "
            f"drain grace {'armed' if self._grace else 'not armed'})")

    async def run_completion(self) -> None:
        """Close the run once :meth:`_check_done` declared it over."""
        await self.done.wait()
        await self._finish_run()

    async def _finish_run(self) -> None:
        if not self.errors and (self.crashed or self.left):
            await self._salvage()
        for peer in self.peers.values():
            self._write(peer, FrameType.BYE)
        for peer in self.peers.values():
            try:
                await peer.writer.drain()
            except (ConnectionError, OSError):
                pass
        if not self.bal_done:
            # Stragglers were dismissed with the balancer still serving:
            # its traffic counts all the same.
            self.port.finish("dismissed")
        self.stats.crashed_nodes = tuple(sorted(self.crashed))
        self.stats.joined_nodes = tuple(sorted(self.joined))
        self.stats.left_nodes = tuple(sorted(self.left))
        self.stats.payload_by_frame = dict(sorted(self.frames.items()))
        self.stats.transport_payload_bytes = sum(self.frames.values())
        try:
            self.ledger.close(self.now())
        except CoverageError as exc:
            if not self.errors:
                self._fail(str(exc))

    async def _salvage(self) -> None:
        """Re-run the orphans of a crash or a departure, crediting the
        lowest finished survivor (else the lowest not crashed)."""
        orphans = self._orphans()
        if not orphans:
            return
        survivors = [p.node for p in self.peers.values()
                     if p.status == "finished"] or \
                    [p.node for p in self.peers.values()
                     if p.status != "crashed"]
        if not survivors:
            self._fail(f"orphaned iterations {orphans} with no survivor "
                       "to credit")
            return
        for start, end in orphans:
            work = self.plan.table.range_work(start, end)
            await asyncio.sleep(work * self.plan.workers[0].time_scale)
        self.ledger.salvaged(min(survivors), orphans)


# ---------------------------------------------------------------------------
# The backend proper.
# ---------------------------------------------------------------------------
class SocketBackend(ExecutionBackend):
    """Execute the DLB protocol over real TCP sockets (localhost hub)."""

    name = "socket"

    def __init__(self, *, time_scale: float = 1.0,
                 workers: str = "tasks",
                 start_method: Optional[str] = None,
                 host: str = "127.0.0.1",
                 script: Sequence[object] = ()) -> None:
        if time_scale <= 0:
            raise BackendError("time_scale must be positive")
        if workers not in ("tasks", "procs"):
            raise BackendError(
                f"workers must be 'tasks' or 'procs', not {workers!r}")
        self.time_scale = time_scale
        self.workers = workers
        self.start_method = start_method
        self.host = host
        #: Membership script: JoinEvent / LeaveEvent / KillEvent, fired
        #: by cumulative executed-iteration count.
        self.script = tuple(script)

    # -- entry points ----------------------------------------------------
    def run_loop(self, loop: LoopSpec, cluster: ClusterSpec,
                 strategy: StrategyLike,
                 options: Optional[RunOptions] = None,
                 selector: Optional[Callable] = None,
                 fault_plan: Optional[FaultPlan] = None) -> LoopRunStats:
        hub = self._hub(loop, cluster, strategy, options, selector,
                        fault_plan, strict=True)
        procs: list = []
        try:
            asyncio.run(self._run_async(hub, procs))
        finally:
            if procs:
                join_or_terminate(procs, timeout=5.0,
                                  terminate=lambda p: p.terminate(),
                                  kill=lambda p: p.kill())
        if hub.errors:
            raise BackendError("; ".join(hub.errors))
        return hub.stats

    def serve(self, loop: LoopSpec, cluster: ClusterSpec,
              strategy: StrategyLike,
              options: Optional[RunOptions] = None,
              fault_plan: Optional[FaultPlan] = None, *,
              port: int = 7070,
              on_ready: Optional[Callable[[int], None]] = None
              ) -> LoopRunStats:
        """Balancer mode for the CLI: listen and wait for real workers.

        No workers are spawned — they connect from other terminals (or
        hosts) via ``python -m repro worker``.  Unexpected disconnects
        are tolerated (marked crashed, salvaged), not errors.
        """
        hub = self._hub(loop, cluster, strategy, options, None, fault_plan,
                        strict=False)
        asyncio.run(self._serve_async(hub, port, on_ready))
        if hub.errors:
            raise BackendError("; ".join(hub.errors))
        return hub.stats

    def _hub(self, loop: LoopSpec, cluster: ClusterSpec,
             strategy: StrategyLike, options: Optional[RunOptions],
             selector, fault_plan: Optional[FaultPlan], *,
             strict: bool) -> _Hub:
        # A scripted kill is a crash: survivors need the hardened protocol.
        kills = any(isinstance(ev, KillEvent) for ev in self.script)
        # A script fires on the executed count; ``serve`` tolerates
        # disconnects it was not told of.  Either needs every record.
        plan = prepare_run(self.name, loop, cluster.speeds, strategy,
                           options, selector, fault_plan,
                           time_scale=self.time_scale, harden=kills,
                           watched=bool(self.script) or not strict,
                           workers=self.workers)
        return _Hub(plan, self.script, strict)

    async def _await_done(self, hub: _Hub, timeout: float,
                          stalled: str) -> None:
        """Run the hub until the run is over and closed, then shut it."""
        liveness = asyncio.create_task(hub.run_liveness()) \
            if hub.monitor is not None else None
        try:
            await asyncio.wait_for(hub.run_completion(), timeout)
        except asyncio.TimeoutError:
            hub.errors.append(f"hub watchdog: {stalled}")
        finally:
            if liveness is not None:
                liveness.cancel()
            await hub.close()

    async def _run_async(self, hub: _Hub, procs: list) -> None:
        port = await hub.start(self.host, 0)
        worker_tasks: list[asyncio.Task] = []
        ctx = mp_context(self.start_method) \
            if self.workers == "procs" else None

        def spawn() -> None:
            if ctx is not None:
                p = ctx.Process(target=_worker_proc_entry,
                                args=(self.host, port),
                                name=f"dlb-sock{len(procs)}", daemon=True)
                procs.append(p)
                p.start()
            else:
                worker_tasks.append(asyncio.create_task(
                    _run_client(self.host, port)))

        hub.spawner = spawn
        for _ in range(hub.n):
            spawn()
        try:
            await self._await_done(hub, WATCHDOG_SECONDS * 2 + 30.0,
                                   "closing the run stalled")
        finally:
            if worker_tasks:
                done, still = await asyncio.wait(worker_tasks, timeout=5.0)
                for task in still:
                    task.cancel()
                for task in done:
                    exc = task.exception()
                    if exc is not None and not isinstance(
                            exc, (_AbruptStop, _Dismissed)):
                        hub.errors.append(
                            f"worker task failed: {exc!r}")

    async def _serve_async(self, hub: _Hub, port: int,
                           on_ready: Optional[Callable[[int], None]]
                           ) -> None:
        bound = await hub.start(self.host, port)
        if on_ready is not None:
            on_ready(bound)
        await self._await_done(hub, WATCHDOG_SECONDS * 4,
                               "no run completed")
