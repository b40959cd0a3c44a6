"""The one worker driver of all four backends.

The paper's run-time library is one Figure-3 slave loop whatever the
workstation underneath (§5.1); :mod:`repro.protocol` holds that loop as
a pure state machine, and :func:`drive` is the *single* pump of its
commands for every backend, the simulator included (docs/ARCHITECTURE.md
has the tour).  It is sans-IO: it runs every command against a small
port and **yields** what the port cannot do at once — on a real backend
(:class:`Reporter`) wait for a message and burn one iteration, so a
backend is a ten-line loop around it (:func:`run_blocking`, or the same
loop with ``await``); on the simulator
(:class:`~repro.runtime.port.SimPort`) the discrete events themselves.
Around it: :class:`~repro.message.inbox.Inbox`, the one mailbox rule
(re-exported here); :class:`Reporter`, stats records built once however
they travel; :class:`RunLedger`, where
*all four* backends book a run, the one writer of its ``decision``
instants, and where it ends: salvage and the exactly-once audit;
:class:`Supervisor`, the ledger plus a real run's roster, deadline,
stall report and crash roster.
Last, the one run set-up of all four, the simulator included:
:func:`prepare_run` and the :class:`RunPlan` /
:class:`WorkerSpec` it returns, the only place protocol objects are
built.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Generator, Iterable, Optional, Sequence, Union

from ..apps.workload import LoopSpec, WorkTable
from ..core.decision import model_based_selector
from ..core.diffusion import DiffusionPlanner
from ..core.policy import DlbPolicy
from ..core.redistribution import (
    MovementCostFn,
    make_movement_cost_estimator,
    make_topology_movement_cost_estimator,
)
from ..core.strategies.base import StrategySpec
from ..core.strategies.registry import get_strategy
from ..faults.plan import FaultPlan
from ..machine.cluster import form_groups
from ..message.frames import (
    ft_from_wire,
    ft_to_wire,
    policy_from_wire,
    policy_to_wire,
)
from ..message.inbox import Inbox
from ..message.messages import Message, Tag
from ..network.topology import Topology, resolve_topology
from ..obs.metrics import CounterDict
from ..obs.trace import NULL_RECORDER
from ..protocol import (
    AwaitMessage,
    BalancerProtocol,
    Charge,
    Charged,
    Command,
    ComputeDone,
    DeclareDead,
    Done,
    Emit,
    MessageReceived,
    PeerDead,
    ProtocolEvent,
    RecordSync,
    Send,
    Start,
    StartCompute,
    TimerFired,
    WorkerProtocol,
)
from ..runtime.assignment import (
    Assignment,
    CoverageError,
    check_coverage,
    equal_block_partition,
    merge_ranges,
    proportional_block_partition,
    uncovered,
)
from ..runtime.options import FaultToleranceConfig, RunOptions
from ..runtime.stats import LoopRunStats, SyncRecord, environment_fingerprint
from .base import WATCHDOG_SECONDS, BackendError, StrategyLike
from .capabilities import validate

__all__ = ["Burn", "Inbox", "Deadline", "Reporter", "RunLedger",
           "Supervisor", "WorkerSpec", "RunPlan", "drive", "execute",
           "run_blocking", "prepare_run", "pairs", "movement_estimator"]

Range = tuple[int, int]


def pairs(value) -> tuple[Range, ...]:
    """Iteration ranges as int pairs, whatever container carried them."""
    return tuple((int(s), int(e)) for s, e in value or ())


# ---------------------------------------------------------------------------
# Inbound: how long a wait may block.
# ---------------------------------------------------------------------------
class Deadline:
    """How long a transport may still block on one ``AwaitMessage``."""

    def __init__(self, spec: AwaitMessage, suspect: str) -> None:
        self._spec = spec
        self._suspect = suspect
        self._at = time.perf_counter() + (
            spec.timeout if spec.timeout is not None else WATCHDOG_SECONDS)

    def remaining(self) -> Optional[float]:
        """Seconds left; ``None`` once a timed wait expired (the driver
        then feeds ``TimerFired``).  An *untimed* wait that outlives the
        watchdog raises: somebody died without notice."""
        left = self._at - time.perf_counter()
        if left > 0:
            return left
        if self._spec.timeout is None:
            raise BackendError(
                f"watchdog: no message matching {self._spec} within "
                f"{WATCHDOG_SECONDS}s — {self._suspect} likely died; see "
                "the first reported error")
        return None


# ---------------------------------------------------------------------------
# Outbound: stats records built once, consumed once.
# ---------------------------------------------------------------------------
class Reporter:
    """One participant's port on a real transport: where its commands
    take effect, at once.

    Counts the *modelled* traffic (the paper's message economy,
    identical across backends) and builds every stats record once, in
    the shape of the wire protocol's STAT bodies
    (docs/WIRE_PROTOCOL.md).  A backend subclasses it with
    ``deliver(msg)`` — put a message on its transport — and
    ``emit(body)`` — hand a record to the supervising side's
    :class:`RunLedger`.

    Unless ``stream_records`` (:attr:`WorkerSpec.stream_records`:
    somebody needs each iteration's record as it happens), executed
    ranges are held back and reported merged, in bulk, ahead of the
    next record of any other kind — the ledger still sees them before
    the sync or finish that follows them.
    """

    def __init__(self, me: Optional[int], t0: float,
                 recorder=NULL_RECORDER, *,
                 stream_records: bool = True) -> None:
        #: Node id; ``None`` for a balancer.
        self.me = me
        self.t0 = t0
        self.recorder = recorder
        self.stream_records = stream_records
        self._batch: list[Range] = []
        self.messages = 0
        self.bytes = 0
        self.retries = 0
        self.by_tag = CounterDict()
        #: The epoch whose slice has burnt an iteration (progress).
        self._ran: Optional[int] = None

    def now(self) -> float:
        return time.perf_counter() - self.t0

    # -- what drive() asks of a port ---------------------------------------
    def admit(self, commands: Sequence[Command]) -> None:
        """A look at a whole batch before its first command runs."""

    def send(self, msgs: Iterable[Message]) -> None:
        for msg in msgs:
            self.messages += 1
            self.bytes += msg.nbytes
            self.by_tag.inc(msg.tag.value)
            self.deliver(msg)

    def charge(self, seconds: float) -> None:
        """Planning costs real time here: nothing to spend before it."""

    def wait(self, spec: AwaitMessage) -> Generator[AwaitMessage, object,
                                                    object]:
        """A message, a membership event, or ``None``: timed out."""
        return (yield spec)

    def is_dead(self, peer: int) -> bool:
        """Known dead without a notice: never (detectors post one)."""
        return False

    def note_retry(self) -> None:
        self.retries += 1

    def compute(self, proto: WorkerProtocol, inbox: Inbox, track: str,
                boundary: Optional[Callable]
                ) -> Generator[Burn, None, Union[str, ProtocolEvent]]:
        """Run the assignment an iteration at a time, a :class:`Burn`
        each, to its end or, once this epoch has run one (progress,
        :mod:`repro.protocol.balancer`), to the first boundary with an
        interrupt flagged (the paper's ``DLB_slave_sync`` poll); book
        the window the §3.2 profiles are measured over.
        ``boundary(proto)`` is the backend's own between-iterations
        business (fail-stop checks, queue polls, elastic admissions and
        grants); an event it returns ends the slice."""
        assignment = proto.assignment
        table = proto.table
        while True:
            if boundary is not None:
                event = boundary(proto)
                if event is not None:
                    return event
            if assignment.empty:
                return "finished"
            if self._ran == proto.epoch and proto.is_dlb \
                    and inbox.has_interrupt(proto.epoch):
                return "interrupted"
            self._ran = proto.epoch
            taken = assignment.take_head(1)
            start = taken[0][0]
            cost = table.range_work(start, start + 1)
            t0 = self.now()
            yield Burn(start, cost)
            busy = self.now() - t0
            proto.note_busy(busy)
            self.recorder.complete("compute", t0, busy, track=track,
                                   iteration=start)
            proto.note_work(cost)
            self.executed(taken)

    def flush(self) -> None:
        """Report the executed ranges held back so far."""
        if self._batch:
            batch, self._batch = self._batch, []
            self.emit({"k": "exec", "ranges": merge_ranges(batch)})

    def record(self, body: dict) -> None:
        """Emit ``body``, whatever was held back first."""
        self.flush()
        self.emit(body)

    def executed(self, ranges: Sequence[Range]) -> None:
        if self.stream_records:
            self.record({"k": "exec", "ranges": list(ranges)})
        else:
            self._batch.extend(ranges)

    def sync(self, group: int, epoch: int, plan, part: bool = False) -> None:
        row = asdict(SyncRecord.of_plan(self.now(), group, epoch, plan))
        del row["group"], row["epoch"]
        body = {"k": "sync", "group": group, "epoch": epoch, "row": row}
        if part:
            # One node's share of a neighbour-local sweep: the ledger
            # adds the parts up instead of de-duplicating replicas.
            body["part"] = True
        self.record(body)

    def declared(self, peer: int) -> None:
        self.record({"k": "declared", "peer": peer})

    def counters(self) -> dict:
        return {"messages": self.messages, "bytes": self.bytes,
                "by_tag": dict(self.by_tag), "retries": self.retries}

    def finish(self, reason: str) -> Optional[ProtocolEvent]:
        # Ahead of the counters: a transport counts its own records.
        self.flush()
        self.emit({"k": "finish", "reason": reason,
                   "counters": self.counters()})

    def error(self, text: str) -> None:
        self.record({"k": "error", "text": text})


class RunLedger:
    """Where every backend books a run — executed ranges, one record per
    synchronization and that sync's one ``decision`` trace instant, the
    deaths declared, a salvage — and the one place a run ends
    (:meth:`close`: docs/FAULT_MODEL.md, "End of a run").

    The simulator's session books straight into it; the real backends
    through :meth:`record`, whichever way a :class:`Reporter`'s records
    travelled.  Every replica of a group plan reports the same sync and
    is booked once; the parts of a neighbour-local sweep add up to one
    (:meth:`SyncRecord.absorb`).  A wave is no barrier — nothing says
    when a sweep's last part is in, short of the run being over — so a
    sweep's instant is written at :meth:`close`, stamped with the time
    the sweep began; any other sync's as it is booked.
    """

    def __init__(self, stats: LoopRunStats, table: WorkTable,
                 recorder=NULL_RECORDER,
                 on_execute: Optional[Callable] = None) -> None:
        self.stats = stats
        #: The run's work table: its length is the loop's, its prices
        #: a salvage's work.
        self.table = table
        self.recorder = recorder
        self.on_execute = on_execute
        self.declared: set[int] = set()
        self.exec_total = 0
        self._syncs: dict[tuple[int, int], SyncRecord] = {}
        self._sweeps: list[SyncRecord] = []

    def executed(self, node: Optional[int], ranges: Sequence[Range]) -> None:
        self.stats.executed_by_node.setdefault(node, []).extend(ranges)
        self.exec_total += sum(e - s for s, e in ranges)
        if self.on_execute is not None and ranges:
            self.on_execute(node, list(ranges))

    def sync(self, record: SyncRecord, part: bool = False) -> None:
        key = (record.group, record.epoch)
        known = self._syncs.get(key)
        if known is not None:
            if part:
                known.absorb(record)
            return
        self._syncs[key] = record
        self.stats.record_sync(record)
        if part:
            self._sweeps.append(record)
        else:
            self._decision(record)

    def uncovered(self) -> list[Range]:
        """The iterations nobody has reported yet — what a salvage runs
        after a run lost a participant; raises :class:`CoverageError` on
        a duplicate."""
        return uncovered(self.stats.executed_by_node, self.table.n)

    def salvage(self, survivors: Iterable[int]
                ) -> Generator[tuple[int, list[Range]], None, None]:
        """The re-run a run that lost a participant owes: yields, once,
        the lowest of ``survivors`` and the orphans (:meth:`uncovered`)
        credited to it, for the caller to spend — a simulated compute, a
        burn, a sleep — and books them when the caller comes back.
        Yields nothing when nothing is orphaned; raises
        :class:`CoverageError` when something is and nobody survived."""
        orphans = self.uncovered()
        if not orphans:
            return
        node = min(survivors, default=None)
        if node is None:
            raise CoverageError(f"orphaned iterations {orphans} with no "
                                "survivor to credit")
        yield node, orphans
        count = sum(e - s for s, e in orphans)
        work = sum(self.table.range_work(s, e) for s, e in orphans)
        self.executed(node, orphans)
        self.stats.salvaged_iterations += count
        self.recorder.event("salvage", track=f"node{node}",
                            iterations=count, work=work)

    def close(self, end_time: float) -> None:
        """End the run at ``end_time``: write the ``decision`` instant of
        every sweep, now whole, and the deaths declared, then audit
        exactly-once coverage (:class:`CoverageError`)."""
        for record in self._sweeps:
            self._decision(record, ts=record.time)
        self._sweeps.clear()
        stats = self.stats
        stats.end_time = end_time
        stats.declared_dead = tuple(sorted(self.declared))
        check_coverage(stats.executed_by_node, self.table.n)

    def _decision(self, record: SyncRecord,
                  ts: Optional[float] = None) -> None:
        self.recorder.event(
            "decision", track="balancer", ts=ts, group=record.group,
            epoch=record.epoch, reason=record.reason,
            moved=record.moved_work, n_transfers=record.n_transfers)

    def record(self, node: Optional[int], body: dict, now: float) -> str:
        """Book one record from ``node`` (``None``: a balancer) and
        return its kind; a trace buffer joins the run's.  An error
        record, or one of no known kind, raises :class:`BackendError`."""
        stats = self.stats
        kind = body.get("k")
        if kind == "exec":
            self.executed(node, pairs(body.get("ranges")))
        elif kind == "sync":
            self.sync(SyncRecord(group=int(body["group"]),
                                 epoch=int(body["epoch"]), **body["row"]),
                      bool(body.get("part")))
        elif kind == "declared":
            self.declared.add(int(body["peer"]))
        elif kind == "finish":
            if node is not None:
                stats.node_finish_times[node] = now
            counters = body.get("counters", {})
            stats.network_messages += counters.get("messages", 0)
            stats.network_bytes += counters.get("bytes", 0)
            stats.fault_retries += counters.get("retries", 0)
            stats.transport_payload_bytes += counters.get("payload_bytes", 0)
            stats.shm_data_bytes += counters.get("shm_bytes", 0)
            stats.messages_by_tag.merge(counters.get("by_tag", {}))
        elif kind == "trace":
            self.recorder.merge_payload(body["payload"])
        else:
            who = "balancer" if node is None else node
            raise BackendError(f"worker {who} failed:\n{body['text']}"
                               if kind == "error" else
                               f"unknown stats record {body!r} from {who}")
        return kind


class Supervisor(RunLedger):
    """The supervising side of a real-backend run, the paper's master
    (§5): its :class:`RunLedger`, the roster of participants still
    pending (node ids, and ``"balancer"``), the run's clock, its one
    deadline and stall report, and the crash roster.

    A backend books each record (:meth:`book`) and each fail-stop
    (:meth:`crash`) and waits at most :meth:`remaining` for the next;
    how it waits and who is alive are all it keeps of its own.  ``name``
    heads the stall report, and ``tail`` adds what only the backend
    knows.
    """

    def __init__(self, plan: "RunPlan", roster: Iterable, *, name: str,
                 tail: Optional[Callable[[], str]] = None) -> None:
        super().__init__(plan.stats, plan.table, plan.recorder,
                         plan.options.on_execute)
        self.pending = set(roster)
        #: Wall seconds a run may take before :meth:`remaining` fails it.
        self.limit = WATCHDOG_SECONDS * 2
        self._name = name
        self._tail = tail
        self.start()

    def start(self) -> float:
        """Start the run's clock, and its deadline, now; returns the
        origin.  A trace shares the clock's zero-based domain."""
        self.t0 = time.perf_counter()
        if self.recorder.enabled:
            self.recorder.set_clock(self.now)
        return self.t0

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def remaining(self) -> float:
        """Seconds left to the deadline; past it, the stall report is a
        :class:`BackendError`."""
        left = self.limit - self.now()
        if left <= 0:
            raise BackendError(self.stall_report())
        return left

    def stall_report(self) -> str:
        """Who the run still waits for and what is still uncovered."""
        try:
            gaps = self.uncovered()[:4]
        except CoverageError as exc:
            gaps = exc
        who = sorted(k if isinstance(k, str) else f"node{k}"
                     for k in self.pending)
        tail = self._tail() if self._tail is not None else ""
        return (f"{self._name} watchdog: run never completed in "
                f"{self.limit:g}s (pending {', '.join(who) or 'nobody'}; "
                f"executed {self.exec_total}/{self.table.n}, first uncovered "
                f"{gaps}{'; ' + tail if tail else ''})")

    def book(self, node: Optional[int], body: dict, now: float) -> str:
        """:meth:`record`; a finish takes ``node`` off the roster."""
        kind = self.record(node, body, now)
        if kind == "finish":
            self.pending.discard("balancer" if node is None else node)
        return kind

    def crash(self, node: int) -> None:
        """Book ``node``'s fail-stop: off the roster, onto the crash
        roster (``stats.crashed_nodes``), its trace marked truncated (the
        buffer died with it)."""
        self.pending.discard(node)
        self.stats.crashed_nodes = tuple(sorted({*self.stats.crashed_nodes,
                                                 node}))
        self.recorder.event("trace_truncated", track=f"node{node}",
                            reason="crashed")


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Burn:
    """Yielded by :func:`drive`: burn ``cost`` nominal seconds of CPU
    for ``iteration`` now (the backend scales and picks the kernel)."""

    iteration: int
    cost: float


def execute(commands: Sequence[Command], port, track: str
            ) -> Generator[object, object, Optional[Command]]:
    """Run one batch of protocol commands against ``port``, in order.

    Each maximal run of consecutive ``Send`` commands goes to the port
    in one ``send`` call.  That call, or a ``Charge``, may return a
    *hold* — on the simulator, the events of a NIC held for the whole
    run or of a loaded host computing — which runs where it stands in
    the batch, so what follows it (a ``RecordSync``, an ``Emit``) is
    stamped after it.  Returns the batch's continuation — its
    ``StartCompute``, ``AwaitMessage``, ``Charge`` or ``Done`` (the last
    of these in the batch) — or ``None`` when the batch had none (a
    membership event that changed nothing).
    """
    port.admit(commands)
    then = None
    i, n = 0, len(commands)
    while i < n:
        cmd = commands[i]
        i += 1
        hold = None
        if isinstance(cmd, Send):
            msgs = [cmd.msg]
            while i < n and isinstance(commands[i], Send):
                msgs.append(commands[i].msg)
                i += 1
            hold = port.send(msgs)
        elif isinstance(cmd, RecordSync):
            port.sync(cmd.group, cmd.epoch, cmd.plan, cmd.part)
        elif isinstance(cmd, DeclareDead):
            port.declared(cmd.peer)
        elif isinstance(cmd, Emit):
            port.recorder.event(cmd.name, track=track, **cmd.args())
        elif isinstance(cmd, Charge):
            hold = port.charge(cmd.seconds)
            then = cmd
        elif isinstance(cmd, (StartCompute, AwaitMessage, Done)):
            then = cmd
        else:
            raise BackendError(f"unhandled command {cmd!r}")
        if hold is not None:
            yield from hold
    return then


def _compute(proto: WorkerProtocol, port, inbox: Inbox, track: str,
             boundary: Optional[Callable]
             ) -> Generator[object, object, ProtocolEvent]:
    """One compute slice.  A worker that *finished* it, or whose
    periodic clock ran out (``"deadline"``), interrupts its group (§3.1)
    — unless a peer got there first: then it answers.  An ``"idle"``
    one waits for the interrupt itself."""
    inbox.drain_interrupts(proto.epoch - 1)  # the last sync's are spent
    status = yield from port.compute(proto, inbox, track, boundary)
    if not isinstance(status, str):
        return status
    epoch = proto.epoch
    if status in ("finished", "deadline") and proto.active - {proto.me} \
            and inbox.has_interrupt(epoch):
        status = "interrupted"
    return ComputeDone(status, by=inbox.interrupter(epoch)
                       if status == "interrupted" else None)


def drive(proto: Union[WorkerProtocol, BalancerProtocol], port,
          inbox: Optional[Inbox], *, track: str,
          boundary: Optional[Callable] = None
          ) -> Generator[object, object, str]:
    """Pump ``proto`` from ``Start`` to ``Done``; returns Done's reason.

    The protocol's only feeder, on every backend.  ``port`` runs the
    commands (:func:`execute`), waits, computes a slice and ends the
    pump (``finish`` may hand back an event — more work, a message — or
    a hold that ends in one or in ``None``); ``inbox`` answers the
    worker's interrupt queries.  A real backend's port yields an
    :class:`AwaitMessage`, answered with a message, a membership event
    or ``None`` (timed out), and a :class:`Burn`, answered once burnt.
    A timed-out wait lets go of the awaited peers the port knows dead,
    then fires the timer for the rest: one retry for each group whose
    sync its batch re-requests.
    """
    events: list[ProtocolEvent] = [Start()]
    then: Optional[Command] = None
    while True:
        for event in events:
            commands = proto.on_event(event)
            if isinstance(event, TimerFired):
                # A worker re-requests its own group's sync; the central
                # balancer's probe round, each group it nudges.  The
                # wave of a member that gave up on its clock requests
                # nothing.
                for _group in {proto.group_of[c.msg.dst]
                               if isinstance(proto, BalancerProtocol)
                               else proto.group
                               for c in commands if isinstance(c, Send)
                               and c.msg.tag is not Tag.INTERRUPT}:
                    port.note_retry()
            # A batch without a continuation leaves the pump where it was.
            then = (yield from execute(commands, port, track)) or then
        if isinstance(then, Done):
            more = port.finish(then.reason)
            if more is not None and not isinstance(more, ProtocolEvent):
                more = yield from more
            if more is None:
                return then.reason
            events = [more]
        elif isinstance(then, StartCompute):
            events = [(yield from _compute(proto, port, inbox, track,
                                           boundary))]
        elif isinstance(then, Charge):
            events = [Charged()]  # spent where it stood in its batch
        elif then is None:  # pragma: no cover - defensive
            raise BackendError("protocol yielded neither wait nor compute")
        else:
            got = yield from port.wait(then)
            if got is None:
                dead = [p for p in then.srcs or () if port.is_dead(p)]
                events = [PeerDead(p) for p in dead]
                if then.srcs is None or len(dead) < len(then.srcs):
                    events.append(TimerFired())
            elif isinstance(got, Message):
                events = [MessageReceived(got)]
            else:
                events = [got]


def run_blocking(pump: Generator, wait: Callable[[AwaitMessage], object],
                 burn: Callable[[Burn], None]) -> str:
    """The whole blocking shell: thread and process workers differ only
    in how they ``wait`` for a message and ``burn`` an iteration."""
    reply = None
    try:
        while True:
            want = pump.send(reply)
            reply = burn(want) if isinstance(want, Burn) else wait(want)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# Construction recipes and run set-up.
# ---------------------------------------------------------------------------
def movement_estimator(movement: Optional[tuple[float, float]],
                       dc_bytes: int, table: WorkTable
                       ) -> Optional[MovementCostFn]:
    """The shared-medium movement-cost estimate for ``(latency,
    bandwidth)``; ``None`` when the policy does not price movement."""
    if movement is None:
        return None
    latency, bandwidth = movement
    return make_movement_cost_estimator(
        latency=latency, bandwidth=bandwidth, dc_bytes=dc_bytes,
        mean_iteration_time=table.total_work / table.n)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs, picklable and wire-codable.

    Protocol objects are built *inside* the worker from this spec
    (:meth:`build_protocol`), so nothing with lambdas or thread state
    ever crosses a spawn boundary or a socket; :meth:`to_wire` /
    :meth:`from_wire` are the WELCOME frame's ``run`` body, whose keys
    are the field names.
    """

    node: int
    members: tuple[int, ...]
    group: int
    centralized: bool
    lb_host: int
    policy: DlbPolicy
    n_iterations: int
    iteration_time: Union[float, tuple[float, ...]]
    dc_bytes: int
    movement: Optional[tuple[float, float]]  # (latency, bandwidth)
    ft: FaultToleranceConfig
    profile_window_reset: bool
    ranges: tuple[Range, ...]
    is_dlb: bool
    epoch: int  # non-zero only for an elastic joiner
    time_scale: float
    crash_at: Optional[float]  # wall seconds after t0; None = reliable
    trace_events: bool  # record a worker-side trace; ship it at Done
    #: One ``exec`` record per iteration (somebody may lose one, or
    #: waits for it) instead of bulk reports; see :class:`Reporter`.
    stream_records: bool

    def work_table(self) -> WorkTable:
        return WorkTable(self.iteration_time, self.n_iterations)

    def build_protocol(self, *, table: Optional[WorkTable] = None,
                       movement_cost_fn: Optional[MovementCostFn] = None,
                       planner: Optional[DiffusionPlanner] = None,
                       initial_rate: float = 1.0) -> WorkerProtocol:
        """The worker state machine.  In-process callers share the
        plan's ``table`` and pass its non-picklable pieces (the
        topology-aware cost estimator, the diffusion planner); the
        simulator knows its workstation's nominal speed."""
        table = table or self.work_table()
        if movement_cost_fn is None:
            movement_cost_fn = movement_estimator(
                self.movement, self.dc_bytes, table)
        proto = WorkerProtocol(
            self.node, self.members, group=self.group,
            centralized=self.centralized, lb_host=self.lb_host,
            policy=self.policy, table=table,
            dc_bytes=self.dc_bytes, movement_cost_fn=movement_cost_fn,
            planner=planner, ft=self.ft,
            profile_window_reset=self.profile_window_reset,
            initial_rate=initial_rate,
            assignment=Assignment(self.ranges), is_dlb=self.is_dlb,
            initial_epoch=self.epoch)
        proto.emit_trace = self.trace_events
        return proto

    def build_balancer(self, groups: Sequence[Sequence[int]], *,
                       table: Optional[WorkTable] = None,
                       movement_cost_fn: Optional[MovementCostFn] = None
                       ) -> BalancerProtocol:
        """The central balancer this worker's lb host runs for ``groups``
        (it shares the worker's policy, work table, fault-tolerance
        config and movement-cost estimate)."""
        table = table or self.work_table()
        if movement_cost_fn is None:
            movement_cost_fn = movement_estimator(
                self.movement, self.dc_bytes, table)
        return BalancerProtocol(
            self.lb_host, groups, policy=self.policy, table=table,
            movement_cost_fn=movement_cost_fn, ft=self.ft)

    def to_wire(self) -> dict:
        """Every field but ``node``, under its own name (JSON turns the
        tuples into lists)."""
        run = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "node"}
        run.update(members=sorted(self.members), ft=ft_to_wire(self.ft),
                   policy=policy_to_wire(self.policy))
        return run

    @classmethod
    def from_wire(cls, node: int, run: dict) -> "WorkerSpec":
        it = run["iteration_time"]
        return cls(
            node=int(node),
            members=tuple(int(m) for m in run["members"]),
            group=int(run["group"]),
            centralized=bool(run["centralized"]),
            lb_host=int(run["lb_host"]),
            policy=policy_from_wire(run["policy"]),
            n_iterations=int(run["n_iterations"]),
            iteration_time=tuple(it) if isinstance(it, list) else float(it),
            dc_bytes=int(run["dc_bytes"]),
            movement=tuple(run["movement"]) if run.get("movement") else None,
            ft=ft_from_wire(run["ft"]),
            profile_window_reset=bool(run["profile_window_reset"]),
            ranges=pairs(run["ranges"]),
            is_dlb=bool(run["is_dlb"]),
            epoch=int(run["epoch"]),
            time_scale=float(run["time_scale"]),
            crash_at=run.get("crash_at"),
            # Absent from a pre-tracing hub's WELCOME: default off.
            trace_events=bool(run.get("trace_events", False)),
            # Absent from a hub that predates bulk reports: stream.
            stream_records=bool(run.get("stream_records", True)))


@dataclass
class RunPlan:
    """What :func:`prepare_run` sets up: the paper's one ``DLB_init``
    (§5, Figure 3), whatever backend runs it.  Run-wide parameters
    (``ft``, ``time_scale``, ``centralized``, ``lb_host`` …) are read
    off any of the ``workers``."""

    loop: LoopSpec
    spec: StrategySpec
    options: RunOptions
    table: WorkTable
    #: The run's network graph, resolved once: ``None`` and ``"bus"``
    #: are the same shared bus.  Logical where the transport is flat
    #: (threads share memory): it shapes where work may flow and what
    #: moving it costs, not how a message travels.
    topology: Topology
    #: What moving a transfer list costs on ``topology`` (bus or routed,
    #: priced with the loop's ``DC`` bytes); ``None`` unless the policy
    #: asks (``include_movement_cost``).
    movement_cost_fn: Optional[MovementCostFn]
    #: The §4.3 selector; CUSTOM's default is the model-based one.
    selector: Optional[Callable]
    #: ``{node: wall seconds after t0}`` of the plan's scheduled crashes.
    crash_at: dict[int, float]
    stats: LoopRunStats
    recorder: object
    groups: list[list[int]] = field(default_factory=list)
    #: The diffusion planner bound to ``topology`` (``None``: eq. 3).
    planner: Optional[DiffusionPlanner] = None
    #: The initial roster, one spec per node.
    workers: list[WorkerSpec] = field(default_factory=list)

    def domains(self, spec: StrategySpec, group_size: int
                ) -> tuple[list[list[int]], Optional[DiffusionPlanner]]:
        """Who synchronizes with whom under ``spec``: its groups, and —
        for diffusion — the planner whose :meth:`~DiffusionPlanner.scope`
        cuts every node's domain down to its closed neighbourhood.
        Called for the run's strategy here and again by the simulator
        when §4.3 selects another."""
        options = self.options
        groups = form_groups(spec, self.topology.n_hosts, group_size,
                             options.group_formation, options.group_seed)
        planner = None
        if spec.code == "DIFF":
            planner = DiffusionPlanner(
                self.topology, options.policy, self.table,
                self.movement_cost_fn)
        return groups, planner


def prepare_run(backend: str, loop: LoopSpec, speeds: Sequence[float],
                strategy: StrategyLike, options: Optional[RunOptions],
                selector: Optional[Callable],
                fault_plan: Optional[FaultPlan], *, time_scale: float,
                harden: bool = False, watched: bool = False,
                topology: Optional[Topology] = None,
                **environment) -> RunPlan:
    """Validate a run against ``backend``'s capabilities and set up what
    every backend needs, the simulator included: strategy, topology,
    movement-cost estimate, groups (or diffusion neighbourhoods), each
    node's spec with its block of the initial partition over ``speeds``,
    the fault-tolerance config (armed by a fault plan, or ``harden``)
    and the stats object (``environment`` goes into its fingerprint).
    Workers report executed iterations in bulk unless a record can be
    lost or is waited for: the hardened protocol is armed (a crash may
    take unreported iterations with it), or the backend is ``watched``
    — it acts on the executed count as it grows (a membership script)
    or tolerates unplanned disconnects (``serve``).
    ``topology`` is the graph a caller has already resolved — the
    simulator's network — instead of ``options.topology``."""
    options = options or RunOptions()
    spec = get_strategy(strategy)
    n = len(speeds)
    if fault_plan is not None and fault_plan.empty:
        fault_plan = None
    validate(backend, spec, n, options, selector, fault_plan)
    if spec.code == "CUSTOM" and selector is None:
        selector = model_based_selector
    ft = options.fault_tolerance
    if fault_plan is not None:
        fault_plan.validate_for(n)
    if (fault_plan is not None or harden) and not ft.enabled:
        ft = replace(ft, enabled=True)
    crash_at = {c.node: c.time * time_scale
                for c in fault_plan.crashes} if fault_plan else {}

    table = loop.work_table()
    k = options.effective_group_size(n, spec.group_size)
    stats = LoopRunStats(loop_name=loop.name, strategy=spec.name,
                         n_processors=n, group_size=k, backend=backend,
                         messages_by_tag=CounterDict(),
                         environment=environment_fingerprint(**environment))
    recorder = options.recorder or NULL_RECORDER
    topology = resolve_topology(
        options.topology if topology is None else topology, n)
    movement = None
    if options.policy.include_movement_cost:
        movement = (options.network.latency, options.network.bandwidth)
    if movement is None or topology.shared_medium:
        movement_cost_fn = movement_estimator(movement, loop.dc_bytes, table)
    else:
        movement_cost_fn = make_topology_movement_cost_estimator(
            options.network, topology, dc_bytes=loop.dc_bytes,
            mean_iteration_time=table.total_work / table.n)
    plan = RunPlan(loop=loop, spec=spec, options=options, table=table,
                   topology=topology, movement_cost_fn=movement_cost_fn,
                   selector=selector, crash_at=crash_at, stats=stats,
                   recorder=recorder)
    plan.groups, plan.planner = plan.domains(spec, k)
    scope = plan.planner.scope if plan.planner is not None else None
    it = loop.iteration_time
    if options.initial_partition == "speed":
        parts = proportional_block_partition(loop.n_iterations, speeds)
    else:
        parts = equal_block_partition(loop.n_iterations, n)
    plan.workers = [WorkerSpec(
        node=node, members=scope(node) if scope else members,
        group=gid, centralized=bool(spec.is_dlb and spec.centralized),
        lb_host=0, policy=options.policy, n_iterations=loop.n_iterations,
        iteration_time=it if isinstance(it, tuple) else float(it),
        dc_bytes=loop.dc_bytes, movement=movement, ft=ft,
        profile_window_reset=options.profile_window_reset,
        ranges=tuple(parts[node].ranges), is_dlb=bool(spec.is_dlb),
        epoch=0, time_scale=time_scale, crash_at=crash_at.get(node),
        trace_events=recorder.enabled,
        stream_records=ft.enabled or watched)
        for gid, members in enumerate(map(tuple, plan.groups))
        for node in members]
    plan.workers.sort(key=lambda w: w.node)
    return plan
