"""Exception types raised by the discrete-event simulation kernel.

The kernel distinguishes two *families* of exceptional condition:

* **Kernel-misuse errors** (:class:`SimulationError` and subclasses) —
  programming errors in the use of the kernel: scheduling into the
  past, re-triggering events, yielding non-events.  These indicate a
  bug in the caller and should never be caught by protocol code.
* **Modeled failures** (:class:`FaultError` and subclasses) — events
  that the simulation *deliberately models*: a workstation crashing, a
  message being lost.  These are part of the fault model (see
  ``docs/FAULT_MODEL.md``) and are raised, caught and recovered from by
  the fault-tolerant runtime in :mod:`repro.faults` and
  :mod:`repro.runtime`.  (A peer exceeding its retry budget is the
  protocol's :class:`~repro.protocol.ProtocolRetryExhausted`, the same
  on every backend.)

Two further control-flow exceptions complete the picture:

* :class:`Interrupt` — thrown *into* a simulated process by
  :meth:`repro.simulation.engine.Process.interrupt`; carries an arbitrary
  ``cause`` so protocols can distinguish e.g. a DLB synchronization
  interrupt from a CPU-steal notification.
* :class:`StopProcess` — internal sentinel used to abort a process from
  the outside without treating it as a failure (this is also how an
  injected node crash halts the victim's generator).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "SimulationError",
    "ScheduleInPastError",
    "Interrupt",
    "StopProcess",
    "FaultError",
    "NodeCrashedError",
    "MessageLostError",
    "UnrecoverableFaultError",
]


class SimulationError(RuntimeError):
    """A misuse of the simulation kernel (not a modeled failure)."""


class ScheduleInPastError(SimulationError):
    """An event was scheduled at a time earlier than the current clock."""

    def __init__(self, now: float, when: float) -> None:
        super().__init__(f"cannot schedule at t={when!r} before now={now!r}")
        self.now = now
        self.when = when


class Interrupt(Exception):
    """Thrown into a process by ``Process.interrupt(cause)``.

    Attributes
    ----------
    cause:
        The object passed to ``interrupt``; by convention a short string or
        a message instance describing why the process was interrupted.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interrupt(cause={self.cause!r})"


class StopProcess(Exception):
    """Internal sentinel: terminate a process without error."""


class FaultError(Exception):
    """Base of the *modeled-failure* family (see docs/FAULT_MODEL.md).

    Unlike :class:`SimulationError`, a :class:`FaultError` does not mean
    the simulation was misused — it means the simulated system hit a
    condition the fault model describes.  The fault-tolerant runtime
    catches and recovers from most of these; only
    :class:`UnrecoverableFaultError` is expected to escape to callers.
    """


class NodeCrashedError(FaultError):
    """An operation addressed a node that has (been) crashed or fenced."""

    def __init__(self, node: int, detail: str = "") -> None:
        super().__init__(f"node {node} is crashed{': ' + detail if detail else ''}")
        self.node = node


class MessageLostError(FaultError):
    """A message was dropped by the fault injector and will not arrive."""


class UnrecoverableFaultError(FaultError):
    """The fault load exceeded what graceful degradation can absorb
    (e.g. every processor crashed, or the reliable master was lost)."""
