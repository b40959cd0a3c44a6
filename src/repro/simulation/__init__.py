"""Discrete-event simulation kernel (substrate S1).

Everything in :mod:`repro` that "takes time" — loop iterations slowed by
external load, PVM messages crossing the Ethernet bus, the central load
balancer serving one group after another — runs as processes on this
kernel.  See :mod:`repro.simulation.engine` for the programming model.
"""

from .engine import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Process,
    Timeout,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from .errors import (
    Interrupt,
    ScheduleInPastError,
    SimulationError,
    StopProcess,
)
from .mailbox import Mailbox
from .resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "Mailbox",
    "Process",
    "Resource",
    "ScheduleInPastError",
    "SimulationError",
    "StopProcess",
    "Timeout",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
]
