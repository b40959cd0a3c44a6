"""The socket backend's worker, an asyncio client of the hub (see
:mod:`repro.backend.socket`).  Its compute is the facade's
``_client_burn``, looked up there at each call."""

from __future__ import annotations

import asyncio
import os
import time
import traceback
from typing import Callable, Optional, Sequence

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
    LeaveRequested,
    PeerDead,
    PeerJoined,
    PeerLeft,
    ProtocolEvent,
    WorkerProtocol,
)
from . import socket as socket_backend
from .base import CRASH_EXIT_CODE, WATCHDOG_SECONDS, BackendError
from .driver import Burn, Deadline, Inbox, Reporter, WorkerSpec, drive, pairs

Range = tuple[int, int]


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
    :class:`~repro.message.inbox.Inbox`; MEMBER announcements and
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
        #: Set when the connection ends; how it ended is ``lost``:
        #: ``None`` for the hub's BYE, else what went wrong.
        self.bye = asyncio.Event()
        self.lost: Optional[str] = None
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

    def end(self, lost: Optional[str]) -> None:
        """The connection is over: by the hub's BYE (``lost`` is
        ``None``) or not.  The first call decides."""
        if not self.bye.is_set():
            self.lost = lost
            self.bye.set()
        self.wake.set()

    def check_stop(self) -> None:
        """Raise if this worker is to stop now: a fail-stop fell due, or
        the hub said BYE (the run is over, a burn included)."""
        if self.die or (self.crash_at is not None
                        and time.perf_counter() >= self.crash_at):
            raise _AbruptStop()
        if self.bye.is_set():
            raise _Dismissed()

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
            mbox.end(None)
        elif ftype is FrameType.ERR:
            mbox.end(f"connection to the hub lost: {body.get('text')}")
        # Unknown-to-this-role frames are ignored (forward compatibility).

    try:
        async for ftype, body in frames:
            dispatch(ftype, body)
            mbox.wake.set()
    except (ConnectionError, OSError, FrameError):
        pass
    finally:
        mbox.end("connection to the hub lost")


async def _client_drive(proto: WorkerProtocol, spec: WorkerSpec,
                        mbox: _ClientMailbox, reporter: _ClientReporter,
                        leave_after: Optional[int]) -> str:
    """The asyncio shell around the shared driver."""

    def boundary(_proto: WorkerProtocol) -> Optional[ProtocolEvent]:
        """All the elastic hooks (admits, grants, leave, fail-stop)
        apply at iteration boundaries."""
        mbox.check_stop()
        joiner = mbox.pop_due_admit(proto.epoch)
        if joiner is not None:
            return PeerJoined(joiner)  # admitted, the slice goes on
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
                await socket_backend._client_burn(
                    want.cost * spec.time_scale, mbox)
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
                reporter.send((reply,))
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
            # A failed write can beat the reader to the connection's end.
            await mbox.bye.wait()
            if mbox.lost is not None:
                raise BackendError(mbox.lost) from None
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


def _worker_proc_entry(host: str, port: int) -> None:
    """Subprocess entry (module-level so spawn contexts can import it)."""
    try:
        status = asyncio.run(_run_client(host, port))
    except BaseException:
        traceback.print_exc()
        os._exit(1)
    if status == "crashed":
        os._exit(CRASH_EXIT_CODE)
