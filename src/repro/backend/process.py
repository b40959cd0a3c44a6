"""True-parallel execution backend: one OS process per worker.

``ProcessBackend`` drives the same protocol state machines as the
simulator and :class:`~repro.backend.thread.ThreadBackend` —
:class:`~repro.protocol.worker.WorkerProtocol` in each worker process,
:class:`~repro.protocol.balancer.BalancerProtocol` in a dedicated
balancer process — but interprets their commands against genuinely
parallel hardware:

* **clock** — ``time.perf_counter()`` (CLOCK_MONOTONIC: comparable
  across processes on every supported platform), measured from a common
  origin the parent stamps just before it hands out a run's orders;
* **timers** — bounded waits on the inbox channel (``poll(timeout)``
  wakes on arrival), cut short by the child's own crash time, so
  fault-tolerance timeouts and crash schedules fire even while blocked;
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

Lifetime
--------
The paper's run-time library lives in SPMD tasks started once (§5,
Figure 3: one ``DLB_init``) that balance every loop of the program.
Here too the children are *resident across runs*: one **cast** per
interpreter — P worker children and one balancer child, each blocked
on its own :class:`Channel` — serves every run of its shape.

* **Shape.** The first run of a (start method, P) shape forks the
  cast; a run of another shape replaces it.  The balancer child is
  forked whatever the strategy and idles through distributed runs.
* **Run orders.** A run sends each participant one order on its
  channel — its ``_ChildConfig`` (the run's shared-memory block
  included), the time origin ``t0`` and the run number — instead of
  starting a process.  The child runs the loop against that block,
  detaches and waits for the next order.  A clean run joins nothing.
* **Run numbers.** Everything on a channel is stamped with the run it
  belongs to.  A child drops what an earlier run left behind, and
  keeps what a later run sent before the child's own order arrived
  (a peer that got its order first may already have written).
* **Discard.** A run that does not end clean — a crash fault, a worker
  error, the watchdog, an exception or ``KeyboardInterrupt`` in the
  parent — tears the whole cast down through
  :func:`~repro.backend.base.join_or_terminate`, closes its channels
  and processes, and the next run forks a fresh one.
  :func:`release_cast` does the same on demand.
* **Parent death.** An idle child waits on its channel *and* on
  ``multiprocessing.parent_process().sentinel``: it exits when the
  parent dies, however the parent died, so no cast outlives it.
* **One run at a time.** Runs on the cast are serialized by a lock:
  two threads running ``ProcessBackend`` at once run one after the
  other.

Data movement over shared memory
--------------------------------
The paper's §4 cost model charges redistribution for moving each
iteration's ``DC`` bytes of array data.  Here the whole iteration-data
array lives in one POSIX shared-memory block (:class:`_Block`, one
``dc_bytes`` row per iteration) that every worker maps for the run.
The parent creates it as ``/dlb-<pid>-<8 hex>`` and registers the name
with ``multiprocessing``'s resource tracker, so a killed parent's block
is still unlinked; at the end of the run the parent unlinks it first,
then unmaps it, and the workers only ever map and unmap.  A
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
parent sees the exit on the child's sentinel, broadcasts peer-death
notices (the backend's failure detector), and the surviving workers'
hardened protocol (timed receives, resends, death declarations)
reshapes the group exactly as on the other backends.  Iterations the
victim executed but never reported — and those still in its assignment
— are salvaged: re-executed by the parent and credited to the
lowest-numbered survivor (docs/FAULT_MODEL.md, "End of a run"), so
exactly-once coverage holds for every crash plan.  A crash run discards
the cast.

What this backend refuses (:class:`BackendError`) is one row of the
capability matrix in ``docs/ARCHITECTURE.md``
(:data:`repro.backend.capabilities.CAPABILITIES`).
"""

from __future__ import annotations

import mmap
import os
import pickle
import queue as queue_mod
import signal
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import _posixshmem

from ..apps.workload import LoopSpec
from ..faults.plan import FaultPlan
from ..machine.cluster import ClusterSpec
from ..message.messages import Message, Tag
from ..obs.trace import TraceRecorder
from ..protocol import AwaitMessage, PeerDead, WorkerProtocol
from ..runtime.options import RunOptions
from ..runtime.stats import LoopRunStats
from .base import (
    CRASH_EXIT_CODE,
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

__all__ = ["ProcessBackend", "Channel", "release_cast"]

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
    block_name: str  # the run's data block (_Block), mapped by name
    block_size: int
    row_bytes: int
    fail_after: Optional[int]  # test hook: raise after N iterations


@dataclass(frozen=True)
class _RunOrder:
    """Start a run: the parent's one message to each participant."""

    cfg: _ChildConfig
    t0: float  # the run's time origin (parent's perf_counter)


class Channel:
    """Many-writer / one-reader message channel between processes.

    A pipe whose write end all senders share under one cross-process
    lock.  ``put`` pickles and writes **on the calling thread** — no
    ``multiprocessing.Queue`` feeder thread that must first win the
    sender's GIL back from a compute loop — so a ``put`` that returned
    is in the pipe, and a process that fail-stops *between* ``put``
    calls never dies holding the lock.  One reader: reads take no lock,
    and ``multiprocessing.connection.wait`` accepts the channel itself
    (:meth:`fileno`).

    Capacity: once the pipe buffer (>= 64 KiB) is full a write blocks,
    holding the lock, so readers must keep draining.  They do: control
    messages are a few hundred bytes, every worker drains its inbox at
    each iteration boundary (``_ChildMailbox.poll``), whenever it waits
    and while it idles between runs, and the parent drains the stats
    stream continuously — which is what lets a megabyte of trace
    payload cross at ``finish``.
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

    def fileno(self) -> int:
        return self._reader.fileno()

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

    def bound(self, timeout: float) -> float:
        """``timeout``, cut short to end when the crash falls due."""
        if self.crash_at is None:
            return timeout
        return max(0.0, min(timeout, self.t0 + self.crash_at
                            - time.perf_counter()))

    def check(self) -> None:
        """Fail-stop right now if the schedule says so.  Only ever
        called between two channel writes of this (single-threaded)
        child, so no cross-process write lock dies with it."""
        if self.due():
            os._exit(CRASH_EXIT_CODE)


class _Block:
    """A run's data block: a named POSIX shared-memory segment of
    ``size`` bytes, and ``buf``, its writable ``mmap`` (sliceable, and a
    buffer that numpy views in place).

    The system calls are those of ``multiprocessing.shared_memory``,
    whose import loads OpenSSL (through ``secrets``) to draw a name.
    Without a ``name`` the block is created, and this process owns it:
    the name is registered with the resource tracker as soon as it
    exists, and the tracker unlinks it if the owner dies first — or if
    sizing or mapping a new block fails.  With a ``name``, an existing
    block is mapped and nothing is registered.
    """

    def __init__(self, size: int, name: Optional[str] = None) -> None:
        self.owner = name is None
        self.name = name or f"/dlb-{os.getpid()}-{os.urandom(4).hex()}"
        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if self.owner else 0)
        fd = _posixshmem.shm_open(self.name, flags, mode=0o600)
        try:
            if self.owner:
                from multiprocessing import resource_tracker
                resource_tracker.register(self.name, "shared_memory")
                os.ftruncate(fd, size)
            self.buf = mmap.mmap(fd, size)
        finally:
            os.close(fd)

    def stamp(self, ranges, node: int, kernel: str, row_bytes: int) -> None:
        """Credit the rows of ``ranges`` to ``node``: its stamp heads
        each row.  The scalar kernels never touch the payload, so it is
        filled too; what the numpy kernel computed into it stays."""
        fill = 0 if kernel == "numpy" else row_bytes - STAMP_BYTES
        pattern = struct.pack("<Q", node + 1) + b"\x5a" * fill
        for start, end in ranges:
            for i in range(start, end):
                self.buf[i * row_bytes:i * row_bytes + len(pattern)] = pattern

    def payload(self, kernel: str, i: int, row_bytes: int):
        """What ``kernel`` burns into for row ``i``: for numpy, a
        zero-copy float64 view of the row past its stamp (``None`` when
        too small to vectorize over); for the scalar kernels, nothing."""
        return None if kernel != "numpy" else shm_row_view(
            self.buf, i * row_bytes + STAMP_BYTES, row_bytes - STAMP_BYTES)

    def close(self) -> None:
        """Unmap.  The owner unlinks the name first, so a close that
        raises leaks no segment."""
        if self.owner:
            from multiprocessing import resource_tracker
            _posixshmem.shm_unlink(self.name)
            resource_tracker.unregister(self.name, "shared_memory")
        self.buf.close()


class _ChildMailbox:
    """One process's :class:`~repro.backend.driver.Inbox` over its
    :class:`Channel` for run ``run``; the parent's failure detector
    posts :class:`~repro.protocol.events.PeerDead` events into the same
    one.  ``early`` is what this run's peers sent before the order.
    """

    def __init__(self, channel: Channel, run: int, crash: _CrashClock,
                 early: Sequence = ()) -> None:
        self.inbox = Inbox()
        self._channel = channel
        self._run = run
        self._crash = crash
        for item in early:
            self.inbox.post(item)

    def _post(self, stamped) -> None:
        run, item = stamped
        # An earlier run's leftover is dropped.  Nothing of a later run
        # reaches a child mid-run: the next run starts once every
        # participant has finished this one.
        if run == self._run:
            self.inbox.post(item)

    def poll(self) -> None:
        """Drain everything currently queued, without blocking."""
        while True:
            try:
                self._post(self._channel.get_nowait())
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
                self._post(self._channel.get(
                    timeout=self._crash.bound(remaining)))
            except queue_mod.Empty:
                continue


class _ChildReporter(Reporter):
    """A child's port: routes messages onto peer channels, streams stats
    records to the parent, stamps executed rows in the shared block."""

    def __init__(self, cfg: _ChildConfig, run: int, queues, balancer_q,
                 stats_q, crash: _CrashClock) -> None:
        me = cfg.spec.node if cfg.groups is None else None
        super().__init__(me, crash.t0,
                         stream_records=cfg.spec.stream_records)
        self._cfg = cfg
        self._run = run
        self._queues = queues
        self._balancer_q = balancer_q
        self._stats_q = stats_q
        self._crash = crash
        #: Centralized workers' PROFILEs feed the balancer process.
        self._lb_host = cfg.spec.lb_host \
            if me is not None and cfg.spec.centralized else None
        self.block: Optional[_Block] = None
        self.payload_bytes = 0
        self.shm_bytes = 0
        self._executed = 0

    def deliver(self, msg: Message) -> None:
        self._crash.check()
        if msg.tag is Tag.WORK:
            # The ranges ride the pipe; the data rows stay in shm.
            self.shm_bytes += msg.data_bytes
        to_balancer = msg.tag is Tag.PROFILE and msg.dst == self._lb_host
        channel = self._balancer_q if to_balancer else self._queues[msg.dst]
        self.payload_bytes += channel.put((self._run, msg))

    def emit(self, body: dict) -> None:
        self._stats_q.put((self._run, self.me, self.now(), body))

    def executed(self, ranges: Sequence[Range]) -> None:
        cfg = self._cfg
        self.block.stamp(ranges, self.me, cfg.kernel, cfg.row_bytes)
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
def _child_main(me: Optional[int], queues, balancer_q, stats_q) -> None:
    """A resident cast member — worker ``me`` (reading its own channel)
    or, with ``me`` ``None``, the balancer (reading ``balancer_q``):
    run each order that arrives, until the parent dies."""
    # A Ctrl-C at a terminal reaches the whole process group: the
    # parent alone answers it, by discarding the cast.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    import multiprocessing
    from multiprocessing.connection import wait
    channel = balancer_q if me is None else queues[me]
    parent = multiprocessing.parent_process().sentinel
    last = 0  # the last run this child took part in
    early: list = []  # (run, item) a later run sent ahead of its order
    while True:
        if parent in wait([channel, parent]):
            return
        run, item = channel.get_nowait()
        if isinstance(item, _RunOrder):
            _run_order(item, run, channel,
                       [got for stamp, got in early if stamp == run],
                       queues, balancer_q, stats_q)
            last, early = run, []
        elif run > last:
            early.append((run, item))


def _run_order(order: _RunOrder, run: int, channel: Channel, early,
               queues, balancer_q, stats_q) -> None:
    """Run one order: a worker, or (``cfg.groups`` set) the balancer,
    which is never crashed.  A run that raises ends the child."""
    cfg = order.cfg
    spec = cfg.spec
    is_worker = cfg.groups is None
    crash = _CrashClock(spec.crash_at if is_worker else None, order.t0)
    reporter = _ChildReporter(cfg, run, queues, balancer_q, stats_q, crash)
    try:
        if is_worker:
            reporter.block = _Block(cfg.block_size, cfg.block_name)
        proto = spec.build_protocol() if is_worker \
            else spec.build_balancer(cfg.groups)
        if spec.trace_events:
            reporter.recorder = TraceRecorder(clock=reporter.now)
        mailbox = _ChildMailbox(channel, run, crash, early)
        probe = crash.due if crash.crash_at is not None else None

        def boundary(_proto: WorkerProtocol) -> None:
            crash.check()
            mailbox.poll()

        def burn_one(want: Burn) -> None:
            # The numpy kernel computes *in* the iteration's own data
            # row (on private scratch when the row is too small).
            burn(cfg.kernel, want.cost * spec.time_scale, cfg.ops_rate,
                 should_abort=probe, out=reporter.block.payload(
                     cfg.kernel, want.iteration, cfg.row_bytes))
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
        if reporter.block is not None:
            reporter.block.close()


# ---------------------------------------------------------------------------
# The resident cast (parent side; the rules are "Lifetime" above).
# ---------------------------------------------------------------------------
class _Cast:
    """P resident worker children and one balancer child."""

    def __init__(self, ctx, n_workers: int) -> None:
        self.shape = (ctx.get_start_method(), n_workers)
        self.queues = [Channel(ctx) for _ in range(n_workers)]
        self.balancer_q = Channel(ctx)
        self.stats_q = Channel(ctx)
        #: Number of the last run ordered (0: none yet).
        self.run = 0
        self.procs: dict[object, object] = {}
        try:
            for key in (*range(n_workers), "balancer"):
                self.procs[key] = proc = ctx.Process(
                    target=_child_main,
                    args=(None if key == "balancer" else key, self.queues,
                          self.balancer_q, self.stats_q),
                    name="dlb-balancer" if key == "balancer"
                    else f"dlb-node{key}", daemon=True)
                proc.start()
        except BaseException:
            self.close()
            raise

    def alive(self) -> bool:
        return all(p.is_alive() for p in self.procs.values())

    def post(self, key, item) -> None:
        """Stamp ``item`` with the current run; put it on ``key``'s channel."""
        channel = self.balancer_q if key == "balancer" else self.queues[key]
        channel.put((self.run, item))

    def close(self) -> None:
        """Stop every child and release every handle, now: nothing is
        left for a later collector pass to finalize."""
        join_or_terminate(self.procs.values(), timeout=2.0,
                          terminate=lambda p: p.terminate(),
                          kill=lambda p: p.kill())
        for p in self.procs.values():
            if not p.is_alive():
                p.close()
        for channel in (*self.queues, self.balancer_q, self.stats_q):
            channel.close()


_cast: Optional[_Cast] = None
_run_lock = threading.Lock()


def _discard_cast() -> None:
    global _cast
    cast, _cast = _cast, None
    if cast is not None:
        cast.close()


def _cast_for(ctx, n_workers: int) -> _Cast:
    """The cast for this shape: the resident one, else a fresh one."""
    global _cast
    if _cast is not None and (
            _cast.shape != (ctx.get_start_method(), n_workers)
            or not _cast.alive()):
        _discard_cast()
    if _cast is None:
        _cast = _Cast(ctx, n_workers)
    return _cast


def release_cast() -> None:
    """Stop the resident cast, if any (after a run in progress ends)."""
    with _run_lock:
        _discard_cast()


def _forget_cast() -> None:
    # A forked child does not own its parent's cast (nor its lock).
    global _cast, _run_lock
    _cast, _run_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_cast)


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
            start_method=ctx.get_start_method(), kernel=self.kernel)
        stats, recorder = plan.stats, plan.recorder
        row_bytes = max(STAMP_BYTES, loop.dc_bytes)
        # Calibrate the numpy kernel at the element count the workers
        # actually burn over (the row payload), so per-iteration wall
        # time stays cost * time_scale whatever the row width.
        ops_rate = calibrate(self.kernel, (row_bytes - STAMP_BYTES) // 8)
        participants: dict[object, WorkerSpec] = dict(enumerate(plan.workers))
        if plan.workers[0].centralized:
            participants["balancer"] = plan.workers[0]

        with _run_lock:
            block = _Block(max(1, loop.n_iterations * row_bytes))
            clean = False
            try:
                cast = _cast_for(ctx, len(plan.workers))
                cast.run += 1
                t0 = time.perf_counter()
                if recorder.enabled:
                    # Children timestamp against the same parent-stamped
                    # origin (perf_counter is CLOCK_MONOTONIC: comparable
                    # across processes), so merged buffers share one
                    # time domain.
                    recorder.set_clock(lambda: time.perf_counter() - t0)
                for key, spec in participants.items():
                    cast.post(key, _RunOrder(_ChildConfig(
                        spec=spec, groups=tuple(map(tuple, plan.groups))
                        if key == "balancer" else None,
                        kernel=self.kernel, ops_rate=ops_rate,
                        block_name=block.name, block_size=len(block.buf),
                        row_bytes=row_bytes,
                        fail_after=self._fail_after.get(key)), t0))

                ledger = RunLedger(stats, plan.table, recorder,
                                   plan.options.on_execute)
                crashed = self._supervise(ledger, recorder, cast,
                                          set(participants),
                                          set(plan.crash_at))
                for node in sorted(crashed):
                    # A crashed child's buffer died with it (os._exit
                    # ships nothing): mark the truncation explicitly
                    # rather than dropping the node silently.
                    recorder.event("trace_truncated", track=f"node{node}",
                                   reason="crashed")
                stats.crashed_nodes = tuple(sorted(crashed))
                if crashed:
                    self._salvage(ledger, crashed, ops_rate, block, row_bytes)
                ledger.close(time.perf_counter() - t0)
                self._verify_shm(stats, block, row_bytes)
                clean = not crashed
                return stats
            finally:
                if not clean:
                    _discard_cast()
                block.close()

    # -- supervision -----------------------------------------------------
    def _supervise(self, ledger: RunLedger, recorder, cast: _Cast,
                   pending: set, expected_crashes: set[int]) -> set[int]:
        """Drain the stats stream and police child liveness, waking on
        a record or on a participant's exit, whichever comes first.

        Returns the nodes that fail-stopped on schedule.  Raises
        :class:`BackendError` when a child dies outside the fault plan.
        """
        from multiprocessing.connection import wait
        crashed: set[int] = set()
        run, stats_q = cast.run, cast.stats_q
        deadline = time.perf_counter() + WATCHDOG_SECONDS * 2

        def handle(record) -> None:
            stamp, node, now, body = record
            if stamp != run:
                return  # an earlier run's leftover
            kind = ledger.record(node, body, now)
            if kind == "trace":
                recorder.merge_payload(body["payload"])
            elif kind == "finish":
                pending.discard("balancer" if node is None else node)
            elif kind == "error":
                raise BackendError(
                    f"worker {'balancer' if node is None else node} "
                    f"failed:\n{body['text']}")

        def drain() -> None:
            while True:
                try:
                    handle(stats_q.get_nowait())
                except queue_mod.Empty:
                    return

        while pending:
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                raise BackendError(
                    f"supervision watchdog: {sorted(map(str, pending))} "
                    "never finished")
            exits = {cast.procs[key].sentinel: key for key in pending}
            ready = wait([stats_q, *exits], timeout)
            if stats_q in ready:
                handle(stats_q.get_nowait())
                continue
            for sentinel in ready:
                key = exits[sentinel]
                proc = cast.procs[key]
                proc.join()
                if proc.exitcode == CRASH_EXIT_CODE \
                        and key in expected_crashes:
                    crashed.add(key)
                    pending.discard(key)
                    notice = PeerDead(key)
                    for peer in pending:
                        cast.post(peer, notice)
                    continue
                # Whatever it wrote is in the pipe before its exit: an
                # error record explains the death (and raises).
                drain()
                raise BackendError(
                    f"worker {key} died unexpectedly "
                    f"(exit code {proc.exitcode})")
        drain()  # records of crashed children still in the pipe
        return crashed

    # -- salvage / verification -----------------------------------------
    def _salvage(self, ledger: RunLedger, crashed: set[int],
                 ops_rate: float, block, row_bytes: int) -> None:
        """Re-run the orphans of a crash on the lowest survivor: burn
        their work and stamp their rows in its name."""
        orphans = ledger.uncovered()
        if not orphans:
            return
        survivor = min(set(range(ledger.stats.n_processors)) - crashed)
        for start, end in orphans:
            try:
                # numpy burns over the first orphaned row's payload: the
                # element count the rate was calibrated at.
                work = ledger.table.range_work(start, end) * self.time_scale
                burn(self.kernel, work, ops_rate,
                     out=block.payload(self.kernel, start, row_bytes))
            except BaseException as exc:
                # The traceback keeps the burn's frames, and the row
                # view in them would pin the block open: drop them.
                traceback.clear_frames(exc.__traceback__)
                raise
        block.stamp(orphans, survivor, self.kernel, row_bytes)
        ledger.salvaged(survivor, orphans)

    @staticmethod
    def _verify_shm(stats: LoopRunStats, block, row_bytes: int) -> None:
        """Audit the data block: every executed row stamped by its owner."""
        for node, ranges in stats.executed_by_node.items():
            for start, end in ranges:
                for i in range(start, end):
                    off = i * row_bytes
                    stamp = struct.unpack_from("<Q", block.buf, off)[0]
                    if stamp != node + 1:
                        raise AssertionError(
                            f"shared-memory row {i} stamped by "
                            f"{stamp - 1}, but the coverage ledger "
                            f"credits node {node}")
