"""Real-TCP execution backend: the DLB protocol over sockets.

``SocketBackend`` runs the same pure state machines as every other
backend — :class:`~repro.protocol.worker.WorkerProtocol` in each worker,
:class:`~repro.protocol.balancer.BalancerProtocol` for the centralized
strategies — but its participants are genuine network peers: asyncio
TCP clients connected to a hub, exchanging the length-prefixed JSON
frames of :mod:`repro.message.frames` (documented byte-for-byte in
``docs/WIRE_PROTOCOL.md``).

Topology is a star.  The **hub** (:mod:`.socket_hub`) owns the
listening socket, assigns node ids at registration (HELLO/WELCOME),
routes every worker↔worker protocol message (MSG frames), hosts the
balancer state machine in-process for the centralized strategies,
probes idle peers (PING/PONG via
:class:`~repro.faults.liveness.HeartbeatMonitor`), and collects the run
statistics from each worker's STAT stream.  A **worker**
(:mod:`.socket_client`) is a small asyncio client: a reader task that
sorts frames into a mailbox, and a driver that pumps the protocol
exactly like the thread/process backends — compute is a wall-clock
delay at iteration granularity (the socket backend measures *protocol
behavior over a real transport*, not CPU speedup; see the backend map
in ``docs/ARCHITECTURE.md``).  This module is the facade; it imports
the other two, and asyncio with them, only when a run, ``serve`` or a
worker starts.

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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..apps.workload import LoopSpec
from ..faults.plan import FaultPlan
from ..machine.cluster import ClusterSpec
from ..runtime.options import RunOptions
from ..runtime.stats import LoopRunStats
from .base import (
    BackendError,
    ExecutionBackend,
    StrategyLike,
    join_or_terminate,
)
from .driver import prepare_run
from .kernels import hold_async

if TYPE_CHECKING:
    from .socket_client import _ClientMailbox
    from .socket_hub import _Hub

__all__ = ["SocketBackend", "JoinEvent", "LeaveEvent", "KillEvent",
           "run_worker"]


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


async def _client_burn(seconds: float, mbox: _ClientMailbox) -> None:
    """Wall-clock compute stand-in: the asyncio deadline hold, so
    fail-stops land mid-burn.  (bench/tracing.py times it by this name,
    so the client looks it up here at each call.)"""
    await hold_async(seconds, mbox.check_stop)


def run_worker(host: str, port: int, *,
               leave_after: Optional[int] = None) -> str:
    """Blocking entry point for ``python -m repro worker``."""
    import asyncio

    from .socket_client import _run_client
    return asyncio.run(_run_client(host, port, leave_after=leave_after))


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
        import asyncio

        from .socket_hub import run_hub
        hub = self._hub(loop, cluster, strategy, options, selector,
                        fault_plan, strict=True)
        procs: list = []
        try:
            asyncio.run(run_hub(hub, self.host, self.workers,
                                self.start_method, procs))
        finally:
            if procs:
                join_or_terminate(procs, timeout=5.0, escalate=True)
        if hub.errors:
            raise BackendError("; ".join(hub.errors))
        return hub.ledger.stats

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
        import asyncio

        from .socket_hub import serve_hub
        hub = self._hub(loop, cluster, strategy, options, None, fault_plan,
                        strict=False)
        asyncio.run(serve_hub(hub, self.host, port, on_ready))
        if hub.errors:
            raise BackendError("; ".join(hub.errors))
        return hub.ledger.stats

    def _hub(self, loop: LoopSpec, cluster: ClusterSpec,
             strategy: StrategyLike, options: Optional[RunOptions],
             selector, fault_plan: Optional[FaultPlan], *,
             strict: bool) -> _Hub:
        from .socket_hub import _Hub
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

