"""The one worker driver of the thread, process and socket backends.

The paper's run-time library is one Figure-3 slave loop whatever the
workstation underneath (§5.1); :mod:`repro.protocol` holds that loop as
a pure state machine, and this module is the *single* interpreter of
its commands for every real backend (docs/ARCHITECTURE.md has the
tour).  It is sans-IO: :func:`drive` is a generator that runs every
command against a small port (:class:`Reporter`) and **yields** only
the two things a backend alone can do — wait for a message and burn one
iteration — so a backend is a ten-line loop around it
(:func:`run_blocking`, or the same loop with ``await``).  Around it:
:class:`Inbox`, the one mailbox rule; :class:`Reporter`, stats records
built once however they travel; :class:`RunLedger`, where *all four*
backends book a run, the one writer of its ``decision`` instants, and
where it ends: salvage and the exactly-once audit.
Last, the one run set-up of all four, the simulator included:
:func:`prepare_run` and the :class:`RunPlan` /
:class:`WorkerSpec` it returns, the only place protocol objects are
built.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Generator, Optional, Sequence, Union

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
           "WorkerSpec", "RunPlan", "drive", "execute",
           "run_blocking", "prepare_run", "pairs", "movement_estimator"]

Range = tuple[int, int]


def pairs(value) -> tuple[Range, ...]:
    """Iteration ranges as int pairs, whatever container carried them."""
    return tuple((int(s), int(e)) for s, e in value or ())


# ---------------------------------------------------------------------------
# Inbound: the one mailbox rule.
# ---------------------------------------------------------------------------
class Inbox:
    """One participant's inbox; a transport adds the wait primitive.

    Messages that do not match the current wait stay buffered in arrival
    order.  INTERRUPTs never surface: they fold into per-epoch flags the
    compute loop polls at iteration boundaries (the simulator's mailbox
    ``notify`` hook, on a real transport).  Membership notices — the
    ``PeerDead`` / ``PeerLeft`` / ``PeerJoined`` events a backend's
    failure detector posts — pre-empt any buffered message.

    ``post`` / ``take`` need the transport's own exclusion.  The flags
    may be polled by a computing thread while another posts: nothing
    iterates the flag set (draining raises a floor instead of
    rebuilding it), so the two sides share no compound operation.
    """

    def __init__(self) -> None:
        self._buffer: list[Message] = []
        self._notices: list[ProtocolEvent] = []
        self._interrupts: dict[int, int] = {}  # epoch -> first sender
        self._drained = -1

    def post(self, item: Union[Message, ProtocolEvent]) -> None:
        if not isinstance(item, Message):
            self._notices.append(item)
        elif item.tag is Tag.INTERRUPT:
            self._interrupts.setdefault(item.epoch, item.src)
        else:
            self._buffer.append(item)

    def take(self, spec: AwaitMessage
             ) -> Union[Message, ProtocolEvent, None]:
        """The next notice, else the oldest message matching ``spec``,
        else ``None`` (nothing deliverable yet)."""
        if self._notices:
            return self._notices.pop(0)
        for i, msg in enumerate(self._buffer):
            if spec.matches(msg):
                return self._buffer.pop(i)
        return None

    def has_interrupt(self, epoch: int) -> bool:
        return epoch > self._drained and epoch in self._interrupts

    def interrupter(self, epoch: int) -> Optional[int]:
        """Who first interrupted ``epoch`` (``None``: nobody did)."""
        return self._interrupts.get(epoch)

    def drain_interrupts(self, up_to_epoch: int) -> None:
        """Forget interrupt flags for ``up_to_epoch`` and older."""
        self._drained = max(self._drained, up_to_epoch)


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
    """One participant's port: where its commands take effect.

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

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def send(self, msg: Message) -> None:
        self.messages += 1
        self.bytes += msg.nbytes
        self.by_tag.inc(msg.tag.value)
        self.deliver(msg)

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

    def finish(self, reason: str) -> None:
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

    def salvaged(self, node: int, ranges: Sequence[Range]) -> None:
        """Book orphaned ``ranges`` that survivor ``node`` has re-run."""
        count = sum(e - s for s, e in ranges)
        work = sum(self.table.range_work(s, e) for s, e in ranges)
        self.executed(node, ranges)
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
        return its kind; ``"error"`` and unknown kinds are the caller's
        to report."""
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
        return kind


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Burn:
    """Yielded by :func:`drive`: burn ``cost`` nominal seconds of CPU
    for ``iteration`` now (the backend scales and picks the kernel)."""

    iteration: int
    cost: float


def execute(commands: Sequence[Command], port: Reporter,
            track: str) -> Optional[Command]:
    """Run one batch of protocol commands against ``port``.

    Returns the batch's continuation — its ``StartCompute``,
    ``AwaitMessage``, ``Charge`` or ``Done`` (always the last command
    of a batch) — for the caller to act on, or ``None`` when the batch
    had none (a membership event that changed nothing).
    """
    then = None
    for cmd in commands:
        if isinstance(cmd, Send):
            port.send(cmd.msg)
        elif isinstance(cmd, RecordSync):
            port.sync(cmd.group, cmd.epoch, cmd.plan, cmd.part)
        elif isinstance(cmd, DeclareDead):
            port.declared(cmd.peer)
        elif isinstance(cmd, Emit):
            port.recorder.event(cmd.name, track=track, **cmd.args())
        elif isinstance(cmd, (StartCompute, AwaitMessage, Done, Charge)):
            then = cmd
        else:
            raise BackendError(f"unhandled command {cmd!r}")
    return then


def _compute(proto: WorkerProtocol, port: Reporter, inbox: Inbox,
             track: str, boundary: Optional[Callable]
             ) -> Generator[Burn, None, ProtocolEvent]:
    """Run the assignment an iteration at a time.

    Honors synchronization interrupts at iteration boundaries (the
    paper's ``DLB_slave_sync`` poll) once the slice has run one (progress,
    :mod:`repro.protocol.balancer`), and books the performance window
    so measured rates feed the §3.2 profiles.  ``boundary(proto)`` is
    the backend's own between-iterations business (fail-stop checks,
    queue polls, elastic grants); an event it returns ends the slice.
    """
    assignment = proto.assignment
    table = proto.table
    inbox.drain_interrupts(proto.epoch - 1)
    ran = False
    while True:
        if boundary is not None:
            event = boundary(proto)
            if event is not None:
                return event
        if assignment.empty:
            return ComputeDone("finished")
        if ran and proto.is_dlb and inbox.has_interrupt(proto.epoch):
            return ComputeDone("interrupted",
                               by=inbox.interrupter(proto.epoch))
        ran = True
        taken = assignment.take_head(1)
        start = taken[0][0]
        cost = table.range_work(start, start + 1)
        t0 = port.now()
        yield Burn(start, cost)
        busy = port.now() - t0
        proto.note_busy(busy)
        port.recorder.complete("compute", t0, busy, track=track,
                               iteration=start)
        proto.note_work(cost)
        port.executed(taken)


def drive(proto: Union[WorkerProtocol, BalancerProtocol], port: Reporter,
          inbox: Inbox, *, track: str, boundary: Optional[Callable] = None
          ) -> Generator[Union[AwaitMessage, Burn], object, str]:
    """Pump ``proto`` from ``Start`` to ``Done``; returns Done's reason.

    Yields an :class:`AwaitMessage` and expects back a message, a
    membership event, or ``None`` for "the wait's timeout expired";
    yields a :class:`Burn` and expects the iteration burnt.
    """
    waiting: Optional[AwaitMessage] = None
    commands = proto.on_event(Start())
    while True:
        then = execute(commands, port, track)
        if isinstance(then, Done):
            port.finish(then.reason)
            return then.reason
        if isinstance(then, StartCompute):
            event = yield from _compute(proto, port, inbox, track, boundary)
        elif isinstance(then, Charge):
            # Planning costs real time on a real backend: nothing to
            # spend before the plan.
            event = Charged()
        else:
            # A membership pump can return no commands (the change was
            # irrelevant to the current phase): the previous wait stays
            # armed.
            waiting = then or waiting
            if waiting is None:  # pragma: no cover - defensive
                raise BackendError(
                    "protocol yielded neither wait nor compute")
            got = yield waiting
            if got is None:
                port.retries += 1
                event = TimerFired()
            elif isinstance(got, Message):
                event = MessageReceived(got)
            else:
                event = got
        commands = proto.on_event(event)


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
        it = self.iteration_time
        return (WorkTable(list(it)) if isinstance(it, tuple)
                else WorkTable(float(it), self.n_iterations))

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
