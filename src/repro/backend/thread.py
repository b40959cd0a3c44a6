"""Real-time execution backend: threads, queues, wall-clock time.

``ThreadBackend`` drives the *same* protocol state machines as the
simulator — :class:`~repro.protocol.worker.WorkerProtocol` and
:class:`~repro.protocol.balancer.BalancerProtocol` — through the shared
:mod:`~repro.backend.driver`, and supplies what only threads can:

* **clock** — ``time.perf_counter()``; durations in the returned stats
  are wall-clock seconds,
* **timers** — condition-variable waits with timeouts,
* **transport** — per-node in-process mailboxes (lock + condition
  around an :class:`~repro.message.inbox.Inbox`); a ``Send``
  is an append to the destination's inbox,
* **compute** — synthetic kernels (:mod:`~repro.backend.kernels`):
  each iteration holds the thread for its
  :class:`~repro.apps.workload.WorkTable` cost (scaled by
  ``time_scale``) — to a wall-clock deadline with the GIL released, or
  executing a calibrated op count — and synchronization interrupts are
  honored at iteration boundaries exactly as in the paper's Figure 3
  loop.

What carries over for free — because it lives in the protocol layer —
is the whole §3 semantics: receiver-initiated interrupts, epochs,
profile exchange, the redistribution planner, retirement, and the
exactly-once coverage invariant (verified after every run).

What this backend refuses (:class:`BackendError`) is one row of the
capability matrix in ``docs/ARCHITECTURE.md``
(:data:`repro.backend.capabilities.CAPABILITIES`).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from ..apps.workload import LoopSpec
from ..faults.plan import FaultPlan
from ..machine.cluster import ClusterSpec
from ..message.messages import Message
from ..protocol import AwaitMessage
from ..runtime.options import RunOptions
from ..runtime.stats import LoopRunStats
from .base import (
    BackendError,
    ExecutionBackend,
    StrategyLike,
    join_or_terminate,
)
from .capabilities import require_kernel
from .driver import (
    Burn,
    Deadline,
    Inbox,
    Reporter,
    Supervisor,
    drive,
    prepare_run,
    run_blocking,
)
from .kernels import burn, calibrate

__all__ = ["ThreadBackend"]


class _Mailbox:
    """One node's inbox behind a lock and a condition variable."""

    def __init__(self, abort: threading.Event) -> None:
        self.inbox = Inbox()
        self._cond = threading.Condition()
        self._abort = abort

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def post(self, msg: Message) -> None:
        with self._cond:
            self.inbox.post(msg)
            self._cond.notify_all()

    def get(self, spec: AwaitMessage) -> Optional[Message]:
        """Block until a message matches ``spec``; None on timeout."""
        deadline = Deadline(spec, "a peer thread")
        with self._cond:
            while True:
                if self._abort.is_set():
                    raise BackendError("aborted: a peer thread failed")
                got = self.inbox.take(spec)
                if got is not None:
                    return got
                remaining = deadline.remaining()
                if remaining is None:
                    return None
                self._cond.wait(remaining)


class _ThreadReporter(Reporter):
    """A thread's port: posts into peer mailboxes, books records
    straight into the run's supervisor (threads share one address
    space)."""

    def __init__(self, me: Optional[int], t0: float, recorder,
                 mailboxes: list[_Mailbox], supervisor: Supervisor,
                 lock: threading.Lock, stream_records: bool) -> None:
        super().__init__(me, t0, recorder, stream_records=stream_records)
        self._mailboxes = mailboxes
        self._supervisor = supervisor
        self._lock = lock

    def deliver(self, msg: Message) -> None:
        self._mailboxes[msg.dst].post(msg)

    def emit(self, body: dict) -> None:
        with self._lock:
            self._supervisor.book(self.me, body, self.now())


class ThreadBackend(ExecutionBackend):
    """Execute the DLB protocol on real threads in wall-clock time."""

    name = "thread"

    def __init__(self, *, time_scale: float = 1.0,
                 kernel: str = "wall") -> None:
        #: Multiplier applied to every iteration's nominal cost before
        #: burning CPU; < 1 shrinks wall time without changing the work
        #: *ratios* the balancer sees.
        if time_scale <= 0:
            raise BackendError("time_scale must be positive")
        require_kernel(self.name, kernel)
        self.time_scale = time_scale
        #: ``"wall"`` holds each iteration to a wall-clock deadline
        #: (exact timing, but GIL threads overlap "for free");
        #: ``"ops"`` executes a calibrated op count (real CPU work that
        #: GIL threads must serialize — the honest baseline for
        #: thread-vs-process speedup comparisons; see kernels.py).
        self.kernel = kernel

    def run_loop(self, loop: LoopSpec, cluster: ClusterSpec,
                 strategy: StrategyLike,
                 options: Optional[RunOptions] = None,
                 selector: Optional[Callable] = None,
                 fault_plan: Optional[FaultPlan] = None) -> LoopRunStats:
        plan = prepare_run(self.name, loop, cluster.speeds, strategy, options,
                           selector, fault_plan, time_scale=self.time_scale,
                           kernel=self.kernel)
        stats, lead = plan.stats, plan.workers[0]
        n = len(plan.workers)
        # (protocol, node id — None for the balancer —, track)
        cast = [(worker.build_protocol(
                     table=plan.table, movement_cost_fn=plan.movement_cost_fn,
                     planner=plan.planner), node, f"node{node}")
                for node, worker in enumerate(plan.workers)]
        if lead.centralized:
            cast.insert(0, (lead.build_balancer(
                plan.groups, table=plan.table,
                movement_cost_fn=plan.movement_cost_fn),
                None, "balancer"))

        abort = threading.Event()
        mailboxes = [_Mailbox(abort) for _ in range(n)]
        supervisor = Supervisor(
            plan, ["balancer" if me is None else me for _, me, _ in cast],
            name=self.name)
        lock = threading.Lock()
        errors: list[BaseException] = []
        ops_rate = calibrate(self.kernel)

        def abort_all() -> None:
            # Unblock every waiter and stop every compute loop at its
            # next poll: peers abort instead of hanging to the watchdog.
            abort.set()
            for box in mailboxes:
                box.wake()

        def burn_one(want: Burn) -> None:
            if abort.is_set():
                raise BackendError("aborted: a peer thread failed")
            burn(self.kernel, want.cost * self.time_scale, ops_rate,
                 should_abort=abort.is_set)

        def run(proto, port: _ThreadReporter, box: _Mailbox,
                track: str) -> None:
            try:
                run_blocking(drive(proto, port, box.inbox, track=track),
                             box.get, burn_one)
            except BaseException as exc:  # noqa: BLE001 - reported below
                with lock:
                    errors.append(exc)
                abort_all()

        # The run's clock starts just before the threads do.
        t0 = supervisor.start()
        # The balancer reads the lb host's (node 0's) mailbox: in
        # centralized mode PROFILEs are addressed there and nothing else
        # in it matches the balancer's wait.
        threads = [threading.Thread(
            target=run, name=f"dlb-{track}", daemon=True,
            args=(proto, _ThreadReporter(me, t0, plan.recorder, mailboxes,
                                         supervisor, lock,
                                         lead.stream_records),
                  mailboxes[me or 0], track))
            for proto, me, track in cast]
        try:
            for t in threads:
                t.start()
            for t in threads:
                while t.is_alive():
                    with lock:  # the stall report reads the ledger
                        left = supervisor.remaining()
                    t.join(left)
            if errors:
                raise errors[0]
        except BaseException:
            # Shutdown contract: never leave dlb-* threads running —
            # CI hangs on orphans.
            abort_all()
            join_or_terminate(threads, timeout=5.0)
            raise
        supervisor.close(supervisor.now())
        return stats
