"""Backend-agnostic DLB protocol core.

The paper's four strategies (GCDLB / GDDLB / LCDLB / LDDLB, §3) are
pure protocols — profile, interrupt, redistribute.  This package holds
them as event-in / command-out state machines with no knowledge of the
discrete-event simulator, generators, threads, or wall clocks:

* :class:`~repro.protocol.worker.WorkerProtocol` — the Figure-3 slave
  loop (compute, interrupt at iteration boundaries, profile, move
  work), including the fault-tolerance hardening as ordinary
  transitions.
* :class:`~repro.protocol.balancer.BalancerProtocol` — the central
  balancer's group service (GCDLB / LCDLB, §3.5).
* :mod:`~repro.protocol.events` / :mod:`~repro.protocol.commands` —
  the vocabulary between a protocol object and its execution backend.

Execution backends (:mod:`repro.backend`) interpret the commands: the
simulation backend maps them onto the deterministic event heap, the
thread backend onto real threads, queues, and CPU-burn kernels.  New
backends (async, multiprocess, sharded balancers) plug in here without
touching protocol logic.
"""

from .balancer import BalancerProtocol
from .commands import (
    AwaitMessage,
    Charge,
    Command,
    DeclareDead,
    Done,
    Emit,
    RecordSync,
    Send,
    StartCompute,
)
from .errors import ProtocolError, ProtocolRetryExhausted
from .events import (
    Charged,
    ComputeDone,
    LeaveRequested,
    MessageReceived,
    PeerDead,
    PeerJoined,
    PeerLeft,
    ProtocolEvent,
    Start,
    TimerFired,
    WorkReclaimed,
)
from .worker import WorkerProtocol

__all__ = [
    "AwaitMessage",
    "BalancerProtocol",
    "Charge",
    "Charged",
    "Command",
    "ComputeDone",
    "DeclareDead",
    "Done",
    "Emit",
    "LeaveRequested",
    "MessageReceived",
    "PeerDead",
    "PeerJoined",
    "PeerLeft",
    "ProtocolError",
    "ProtocolEvent",
    "ProtocolRetryExhausted",
    "RecordSync",
    "Send",
    "Start",
    "StartCompute",
    "TimerFired",
    "WorkReclaimed",
    "WorkerProtocol",
]
