"""True-parallel execution backend: one OS process per worker.

``ProcessBackend`` drives the same protocol state machines as the
simulator and :class:`~repro.backend.thread.ThreadBackend` —
:class:`~repro.protocol.worker.WorkerProtocol` in each worker process,
:class:`~repro.protocol.balancer.BalancerProtocol` in a dedicated
balancer process — but interprets their commands against genuinely
parallel hardware:

* **clock** — ``time.perf_counter()`` (CLOCK_MONOTONIC: comparable
  across processes on every supported platform), measured from a common
  origin the parent stamps just before forking;
* **timers** — bounded waits on the inbox channel (``poll(timeout)``
  wakes on arrival), so fault-tolerance timeouts and crash schedules
  fire even while blocked;
* **transport** — one :class:`Channel` per participant: a pipe the
  *sending thread* writes under a cross-process lock, so a message is
  on its way when ``put`` returns, whatever the sender computes next.
  Control traffic (profiles, instructions, interrupts, work *orders*)
  crosses the pipe pickled; iteration **data** does not — see below;
* **compute** — calibrated CPU-burn op kernels
  (:mod:`~repro.backend.kernels`): each iteration executes a fixed
  number of floating-point operations, so — unlike GIL-sharing threads
  — P workers on a P-core host really do run P× as much arithmetic per
  wall second.

Data movement over shared memory
--------------------------------
The paper's §4 cost model charges redistribution for moving each
iteration's ``DC`` bytes of array data.  Here the whole iteration-data
array lives in one ``multiprocessing.shared_memory`` block (one
``dc_bytes`` row per iteration) that every worker maps.  A
redistribution ships only a :class:`~repro.message.messages.WorkMsg`
with *iteration ranges* — offsets into the block — while the rows
themselves never touch a pipe.  Both sides are measured:
``LoopRunStats.transport_payload_bytes`` counts the bytes actually
pickled onto channels and ``LoopRunStats.shm_data_bytes`` the iteration
data that moved by remapping instead of copying.  After every run the
parent audits the block: each executed iteration's row must carry the
stamp of exactly the node the coverage ledger credits.

Fault injection
---------------
Crash faults from a :class:`~repro.faults.plan.FaultPlan` are *lifted*
(ThreadBackend rejects them): the victim process fail-stops via
``os._exit`` once its wall clock passes ``time * time_scale`` — also
mid-iteration, between op chunks — so it reports nothing further
(always *between* messages: a write completes on the thread that
checks the crash schedule, so a victim never dies inside one).  The
parent detects the distinctive exit code, broadcasts peer-death notices
(the backend's failure detector), and the surviving workers' hardened
protocol (timed receives, resends, death declarations) reshapes the
group exactly as on the other backends.  Iterations the victim executed
but never reported — and those still in its assignment — are salvaged:
re-executed by the parent and credited to the lowest-numbered survivor,
so exactly-once coverage holds for every crash plan.

What this backend refuses (:class:`BackendError`) is one row of the
capability matrix in ``docs/ARCHITECTURE.md``
(:data:`repro.backend.capabilities.CAPABILITIES`).
"""

from __future__ import annotations

import os
import pickle
import queue as queue_mod
import struct
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..apps.workload import LoopSpec, WorkTable
from ..faults.plan import FaultPlan
from ..machine.cluster import ClusterSpec
from ..message.messages import Message, Tag
from ..obs.trace import TraceRecorder
from ..protocol import AwaitMessage, PeerDead, WorkerProtocol
from ..runtime.assignment import check_coverage, uncovered
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
from .capabilities import require_kernel
from .driver import (
    Burn,
    Deadline,
    Inbox,
    Reporter,
    RunLedger,
    WorkerSpec,
    drive,
    prepare_run,
    run_blocking,
)
from .kernels import burn, calibrate, shm_row_view

__all__ = ["ProcessBackend", "Channel"]

Range = tuple[int, int]

#: Bytes of the per-iteration ownership stamp at the head of each row.
STAMP_BYTES = 8


@dataclass(frozen=True)
class _ChildConfig:
    """What a child process needs beyond its protocol spec."""

    spec: WorkerSpec
    #: Set for the balancer child: it runs the lb host's balancer for
    #: these groups instead of ``spec``'s worker.
    groups: Optional[tuple[tuple[int, ...], ...]]
    kernel: str  # "ops" (scalar burn) or "numpy" (vectorized, in-row)
    ops_rate: float  # calibrated rate of the chosen kernel
    shm_name: str
    row_bytes: int
    fail_after: Optional[int]  # test hook: raise after N iterations


class Channel:
    """Many-writer / one-reader message channel between processes.

    A pipe whose write end all senders share under one cross-process
    lock.  ``put`` pickles and writes **on the calling thread** — no
    ``multiprocessing.Queue`` feeder thread that must first win the
    sender's GIL back from a compute loop — so a ``put`` that returned
    is in the pipe, and a process that fail-stops *between* ``put``
    calls never dies holding the lock.  One reader: reads take no lock.

    Capacity: once the pipe buffer (>= 64 KiB) is full a write blocks,
    holding the lock, so readers must keep draining.  They do: control
    messages are a few hundred bytes, every worker drains its inbox at
    each iteration boundary (``_ChildMailbox.poll``) and whenever it
    waits, and the parent drains the stats stream continuously — which
    is what lets a megabyte of trace payload cross at ``finish``.
    """

    def __init__(self, ctx) -> None:
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._lock = ctx.Lock()

    def put(self, obj) -> int:
        """Send ``obj``; returns the pickled bytes written."""
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._writer.send_bytes(data)
        return len(data)

    def get(self, timeout: float):
        """Next object; ``queue.Empty`` if none arrives in ``timeout``."""
        if not self._reader.poll(timeout):
            raise queue_mod.Empty
        return pickle.loads(self._reader.recv_bytes())

    def get_nowait(self):
        return self.get(0)

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


class _CrashClock:
    """The child-local realization of a scheduled fail-stop."""

    def __init__(self, crash_at: Optional[float], t0: float) -> None:
        self.crash_at = crash_at
        self.t0 = t0

    def due(self) -> bool:
        return (self.crash_at is not None
                and time.perf_counter() - self.t0 >= self.crash_at)

    def check(self) -> None:
        """Fail-stop right now if the schedule says so.  Only ever
        called between two channel writes of this (single-threaded)
        child, so no cross-process write lock dies with it."""
        if self.due():
            os._exit(CRASH_EXIT_CODE)


def _attach_shm(name: str):
    """Attach to a named shared-memory block without tracker handover.

    A child that merely *attaches* must not let its resource tracker
    unlink the block when the child exits; only the creating parent
    unlinks.  Under ``fork`` the child shares the parent's tracker
    process, whose registry is a set — the duplicate register from the
    attach collapses and nothing need be done (unregistering here would
    strip the *parent's* entry).  Under ``spawn``/``forkserver`` the
    attach spins up a child-owned tracker that would unlink the segment
    at child exit (the bpo-39959 footgun), so there the registration
    must be withdrawn.
    """
    from multiprocessing import resource_tracker, shared_memory
    tracker_preexisting = getattr(
        resource_tracker._resource_tracker, "_fd", None) is not None
    shm = shared_memory.SharedMemory(name=name)
    if not tracker_preexisting:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return shm


class _ChildMailbox:
    """One process's :class:`~repro.backend.driver.Inbox` over its
    :class:`Channel`; the parent's failure detector posts
    :class:`~repro.protocol.events.PeerDead` events into the same one.
    """

    def __init__(self, q, crash: _CrashClock) -> None:
        self.inbox = Inbox()
        self._q = q
        self._crash = crash

    def poll(self) -> None:
        """Drain everything currently queued, without blocking."""
        while True:
            try:
                self.inbox.post(self._q.get_nowait())
            except queue_mod.Empty:
                return

    def get(self, spec: AwaitMessage):
        """Next notice or matching message; ``None`` on spec timeout."""
        deadline = Deadline(spec, "a peer process")
        self.poll()
        while True:
            got = self.inbox.take(spec)
            if got is not None:
                return got
            remaining = deadline.remaining()
            if remaining is None:
                return None
            self._crash.check()
            try:
                self.inbox.post(self._q.get(
                    timeout=min(remaining, POLL_SECONDS * 2.5)))
            except queue_mod.Empty:
                continue


class _ChildReporter(Reporter):
    """A child's port: routes messages onto peer channels, streams stats
    records to the parent, stamps executed rows in the shared block."""

    def __init__(self, cfg: _ChildConfig, queues, balancer_q, stats_q,
                 crash: _CrashClock) -> None:
        me = cfg.spec.node if cfg.groups is None else None
        super().__init__(me, crash.t0,
                         stream_records=cfg.spec.stream_records)
        self._cfg = cfg
        self._queues = queues
        self._balancer_q = balancer_q
        self._stats_q = stats_q
        self._crash = crash
        #: Centralized workers' PROFILEs feed the balancer process.
        self._lb_host = cfg.spec.lb_host \
            if me is not None and cfg.spec.centralized else None
        self.shm = None
        self.payload_bytes = 0
        self.shm_bytes = 0
        self._executed = 0
        self._row_pattern = b""
        if me is not None:
            self._row_pattern = struct.pack("<Q", me + 1)
            if cfg.kernel != "numpy":
                # The scalar kernels never touch the row payload, so
                # stamp the whole row; the numpy kernel computed *into*
                # it, so write only the ownership stamp and keep the
                # results.
                self._row_pattern += b"\x5a" * (cfg.row_bytes - STAMP_BYTES)

    def deliver(self, msg: Message) -> None:
        self._crash.check()
        if msg.tag is Tag.WORK:
            # The ranges ride the pipe; the data rows stay in shm.
            self.shm_bytes += msg.data_bytes
        to_balancer = msg.tag is Tag.PROFILE and msg.dst == self._lb_host
        channel = self._balancer_q if to_balancer else self._queues[msg.dst]
        self.payload_bytes += channel.put(msg)

    def emit(self, body: dict) -> None:
        self._stats_q.put((self.me, self.now(), body))

    def executed(self, ranges: Sequence[Range]) -> None:
        cfg = self._cfg
        for start, end in ranges:
            for i in range(start, end):
                off = i * cfg.row_bytes
                self.shm.buf[off:off + len(self._row_pattern)] = \
                    self._row_pattern
        self._executed += sum(e - s for s, e in ranges)
        if cfg.fail_after is not None and self._executed >= cfg.fail_after:
            raise RuntimeError(
                f"injected test failure on node {self.me} "
                f"after {self._executed} iterations")
        super().executed(ranges)

    def counters(self) -> dict:
        return {**super().counters(), "payload_bytes": self.payload_bytes,
                "shm_bytes": self.shm_bytes}

    def finish(self, reason: str) -> None:
        if self.recorder.enabled:
            # Ship the trace buffer before the finish record so the
            # parent merges it ahead of run teardown.
            self.emit({"k": "trace", "payload": self.recorder.to_payload()})
        super().finish(reason)


# ---------------------------------------------------------------------------
# Child entry point (module-level: spawn start methods must import it).
# ---------------------------------------------------------------------------
def _child_main(cfg: _ChildConfig, queues, balancer_q, stats_q,
                t0: float) -> None:
    """One worker (reading its own channel) or, with ``cfg.groups`` set,
    the balancer (reading ``balancer_q``; it is never crashed)."""
    spec = cfg.spec
    is_worker = cfg.groups is None
    crash = _CrashClock(spec.crash_at if is_worker else None, t0)
    reporter = _ChildReporter(cfg, queues, balancer_q, stats_q, crash)
    try:
        if is_worker:
            reporter.shm = _attach_shm(cfg.shm_name)
        proto = spec.build_protocol() if is_worker \
            else spec.build_balancer(cfg.groups)
        if spec.trace_events:
            reporter.recorder = TraceRecorder(clock=reporter.now)
        mailbox = _ChildMailbox(
            queues[spec.node] if is_worker else balancer_q, crash)
        probe = crash.due if crash.crash_at is not None else None

        def boundary(_proto: WorkerProtocol) -> None:
            crash.check()
            mailbox.poll()

        def burn_one(want: Burn) -> None:
            # The numpy kernel computes *in* the iteration's own data
            # row: a zero-copy float64 view of the shared block past the
            # ownership stamp (None when the row payload is too small —
            # the kernel then burns on private scratch instead).
            view = None
            if cfg.kernel == "numpy":
                view = shm_row_view(
                    reporter.shm.buf,
                    want.iteration * cfg.row_bytes + STAMP_BYTES,
                    cfg.row_bytes - STAMP_BYTES)
            burn(cfg.kernel, want.cost * spec.time_scale, cfg.ops_rate,
                 out=view, should_abort=probe)
            crash.check()  # fail-stop before the iteration is recorded

        run_blocking(
            drive(proto, reporter, mailbox.inbox,
                  track=f"node{spec.node}" if is_worker else "balancer",
                  boundary=boundary),
            mailbox.get, burn_one)
    except BaseException:
        reporter.error(traceback.format_exc())
        os._exit(1)
    finally:
        if reporter.shm is not None:
            reporter.shm.close()


# ---------------------------------------------------------------------------
# The backend proper (parent side).
# ---------------------------------------------------------------------------
class ProcessBackend(ExecutionBackend):
    """Execute the DLB protocol on real processes with shared memory."""

    name = "process"

    def __init__(self, *, time_scale: float = 1.0,
                 start_method: Optional[str] = None,
                 kernel: str = "ops") -> None:
        if time_scale <= 0:
            raise BackendError("time_scale must be positive")
        require_kernel(self.name, kernel)
        self.time_scale = time_scale
        self.start_method = start_method
        #: ``"ops"`` burns scalar multiply-adds; ``"numpy"`` burns the
        #: same calibrated op counts as vectorized passes computing
        #: in place on the shared-memory data rows (see kernels.py).
        self.kernel = kernel
        #: Test hook: ``{node: n_iterations}`` after which the worker
        #: raises, exercising the shutdown/teardown path.
        self._fail_after: dict[int, int] = {}

    # -- entry point -----------------------------------------------------
    def run_loop(self, loop: LoopSpec, cluster: ClusterSpec,
                 strategy: StrategyLike,
                 options: Optional[RunOptions] = None,
                 selector: Optional[Callable] = None,
                 fault_plan: Optional[FaultPlan] = None) -> LoopRunStats:
        ctx = mp_context(self.start_method)
        plan = prepare_run(
            self.name, loop, cluster.speeds, strategy, options, selector,
            fault_plan, time_scale=self.time_scale,
            start_method=getattr(ctx, "_name", None) or self.start_method,
            kernel=self.kernel)
        stats, recorder = plan.stats, plan.recorder
        row_bytes = max(STAMP_BYTES, loop.dc_bytes)
        # Calibrate the numpy kernel at the element count the workers
        # actually burn over (the row payload), so per-iteration wall
        # time stays cost * time_scale whatever the row width.
        ops_rate = calibrate(self.kernel, (row_bytes - STAMP_BYTES) // 8)

        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, loop.n_iterations * row_bytes))
        queues = [Channel(ctx) for _ in plan.workers]
        balancer_q = Channel(ctx)
        stats_q = Channel(ctx)

        t0 = time.perf_counter()
        if recorder.enabled:
            # Children timestamp against the same parent-stamped origin
            # (perf_counter is CLOCK_MONOTONIC: comparable across
            # processes), so merged buffers share one time domain.
            recorder.set_clock(lambda: time.perf_counter() - t0)
        cast: dict[object, WorkerSpec] = dict(enumerate(plan.workers))
        if plan.workers[0].centralized:
            cast["balancer"] = plan.workers[0]
        procs: dict[object, object] = {}
        try:
            for key, spec in cast.items():
                cfg = _ChildConfig(
                    spec=spec, groups=tuple(map(tuple, plan.groups))
                    if key == "balancer" else None,
                    kernel=self.kernel, ops_rate=ops_rate,
                    shm_name=shm.name, row_bytes=row_bytes,
                    fail_after=self._fail_after.get(key))
                procs[key] = ctx.Process(
                    target=_child_main,
                    args=(cfg, queues, balancer_q, stats_q, t0),
                    name="dlb-balancer" if key == "balancer"
                    else f"dlb-node{key}", daemon=True)
            for p in procs.values():
                p.start()

            ledger = RunLedger(stats, recorder, plan.options.on_execute)
            crashed = self._supervise(ledger, recorder, procs, queues,
                                      balancer_q, stats_q,
                                      set(plan.crash_at))
            ledger.close()
            for node in sorted(crashed):
                # A crashed child's buffer died with it (os._exit ships
                # nothing): mark the truncation explicitly rather than
                # dropping the node silently.
                recorder.event("trace_truncated", track=f"node{node}",
                               reason="crashed")

            for p in procs.values():
                p.join(timeout=5.0)
            salvaged = self._salvage(ledger, loop, plan.table, crashed,
                                     ops_rate, shm, row_bytes)
            stats.end_time = time.perf_counter() - t0
            stats.crashed_nodes = tuple(sorted(crashed))
            stats.declared_dead = tuple(sorted(ledger.declared))
            stats.salvaged_iterations = salvaged
            check_coverage(stats.executed_by_node, loop.n_iterations)
            self._verify_shm(stats, shm, row_bytes)
            return stats
        finally:
            join_or_terminate(procs.values(), timeout=2.0,
                              terminate=lambda p: p.terminate(),
                              kill=lambda p: p.kill())
            for q in (*queues, balancer_q, stats_q):
                q.close()
            shm.close()
            shm.unlink()

    # -- supervision -----------------------------------------------------
    def _supervise(self, ledger: RunLedger, recorder, procs, queues,
                   balancer_q, stats_q,
                   expected_crashes: set[int]) -> set[int]:
        """Drain the stats stream and police child liveness.

        Returns the nodes that fail-stopped on schedule.  Raises
        :class:`BackendError` when a child dies outside the fault plan.
        """
        crashed: set[int] = set()
        suspect_since: dict = {}
        pending = set(procs)
        deadline = time.perf_counter() + WATCHDOG_SECONDS * 2

        def handle(record) -> None:
            node, now, body = record
            kind = ledger.record(node, body, now)
            if kind == "trace":
                recorder.merge_payload(body["payload"])
            elif kind == "finish":
                pending.discard("balancer" if node is None else node)
            elif kind == "error":
                raise BackendError(
                    f"worker {'balancer' if node is None else node} "
                    f"failed:\n{body['text']}")

        while pending:
            try:
                handle(stats_q.get(timeout=POLL_SECONDS))
                continue
            except queue_mod.Empty:
                pass
            now = time.perf_counter()
            if now > deadline:
                raise BackendError(
                    f"supervision watchdog: {sorted(map(str, pending))} "
                    "never finished")
            for key in list(pending):
                p = procs[key]
                if p.is_alive():
                    continue
                code = p.exitcode
                if code == CRASH_EXIT_CODE and key in expected_crashes:
                    crashed.add(key)
                    pending.discard(key)
                    notice = PeerDead(key)
                    for node, q in enumerate(queues):
                        if node != key and node not in crashed:
                            q.put(notice)
                    if "balancer" in procs:
                        balancer_q.put(notice)
                elif code == 0:
                    # Clean exit: its finish record is still draining.
                    continue
                else:
                    # Errored children report through the stats channel;
                    # give the record a moment to surface.
                    since = suspect_since.setdefault(key, now)
                    if now - since > DRAIN_GRACE_SECONDS:
                        raise BackendError(
                            f"worker {key} died unexpectedly "
                            f"(exit code {code})")
        while True:  # trailing records flushed at child exit
            try:
                handle(stats_q.get_nowait())
            except queue_mod.Empty:
                return crashed

    # -- salvage / verification -----------------------------------------
    def _salvage(self, ledger: RunLedger, loop: LoopSpec,
                 table: WorkTable, crashed: set[int], ops_rate: float,
                 shm, row_bytes: int) -> int:
        """Re-execute orphaned iterations; credit the lowest survivor."""
        stats = ledger.stats
        orphans = uncovered(stats.executed_by_node, loop.n_iterations) \
            if crashed else []
        if not orphans:
            return 0
        survivor = min(node for node in range(stats.n_processors)
                       if node not in crashed)
        pattern = (struct.pack("<Q", survivor + 1)
                   + b"\x5a" * (row_bytes - STAMP_BYTES))
        count = 0
        for start, end in orphans:
            view = None
            if self.kernel == "numpy":
                # Burn over the first orphaned row's payload — the same
                # element count the rate was calibrated at.
                view = shm_row_view(shm.buf,
                                    start * row_bytes + STAMP_BYTES,
                                    row_bytes - STAMP_BYTES)
            burn(self.kernel, table.range_work(start, end) * self.time_scale,
                 ops_rate, out=view)
            for i in range(start, end):
                off = i * row_bytes
                shm.buf[off:off + len(pattern)] = pattern
            count += end - start
        ledger.executed(survivor, orphans)
        return count

    @staticmethod
    def _verify_shm(stats: LoopRunStats, shm, row_bytes: int) -> None:
        """Audit the data block: every executed row stamped by its owner."""
        for node, ranges in stats.executed_by_node.items():
            for start, end in ranges:
                for i in range(start, end):
                    off = i * row_bytes
                    stamp = struct.unpack_from("<Q", shm.buf, off)[0]
                    if stamp != node + 1:
                        raise AssertionError(
                            f"shared-memory row {i} stamped by "
                            f"{stamp - 1}, but the coverage ledger "
                            f"credits node {node}")
