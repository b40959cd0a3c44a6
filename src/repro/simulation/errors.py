"""Exception types raised by the discrete-event simulation kernel.

**Kernel-misuse errors** (:class:`SimulationError` and subclasses) are
programming errors in the use of the kernel: scheduling into the past,
re-triggering events, yielding non-events.  These indicate a bug in the
caller and should never be caught by protocol code.  A *modeled*
failure (docs/FAULT_MODEL.md) raises nothing here: a crash stops the
victim's process, a lost message never arrives, and the protocol's
timeouts and the fault controller recover; a peer exceeding its retry
budget is the protocol's :class:`~repro.protocol.ProtocolRetryExhausted`,
the same on every backend.

Two control-flow exceptions complete the picture:

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

