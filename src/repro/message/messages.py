"""Typed messages exchanged by the DLB protocols (substrate S4).

Message kinds mirror the paper's Figure 1 timeline: a computation-
finished processor sends INTERRUPT, the others answer with PROFILE, a
load balancer answers with INSTRUCTION (centralized only), WORK carries
migrated iterations plus their data rows, and CONTROL carries
termination / configuration notices.  DATA messages are the initial
scatter / final gather payloads.

Sizes are modeled, not real: each class reports the number of bytes its
wire representation would occupy, which is what the network layer charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, ClassVar, Optional

__all__ = [
    "Tag",
    "Message",
    "InterruptMsg",
    "ProfileMsg",
    "InstructionMsg",
    "WorkMsg",
    "ControlMsg",
    "DataMsg",
    "TransferOrder",
]

#: Fixed per-message header (task ids, tag, epoch) in bytes.
HEADER_BYTES = 16


class Tag(Enum):
    """Wire-level message tags."""

    INTERRUPT = "interrupt"
    PROFILE = "profile"
    INSTRUCTION = "instruction"
    WORK = "work"
    CONTROL = "control"
    DATA = "data"


@dataclass(frozen=True)
class Message:
    """Base class: routing plus the modeled wire size."""

    #: Wire tag, a per-class constant (hot-path: read millions of times
    #: per run, so a plain class attribute rather than a property).
    tag: ClassVar[Optional[Tag]] = None

    src: int
    dst: int
    epoch: int = 0

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES

    def to(self, dst: int) -> "Message":
        """``replace(self, dst=dst)`` without re-running ``__init__``."""
        msg = object.__new__(type(self))
        msg.__dict__.update(self.__dict__, dst=dst)
        return msg


@dataclass(frozen=True)
class InterruptMsg(Message):
    """The receiver-initiated synchronization interrupt (§3.1)."""

    group: int = 0

    tag: ClassVar[Tag] = Tag.INTERRUPT


@dataclass(frozen=True)
class ProfileMsg(Message):
    """Performance profile: work left and observed rate (§3.2).

    ``rate`` is base-processor-seconds of work completed per busy second
    since the last synchronization point — for a uniform loop this is the
    paper's "iterations per second" metric scaled by the iteration time.
    ``ranges`` (the iterations the sender holds, so that planners cut
    orders as the sender will) are left out of the modelled size.
    """

    group: int = 0
    remaining_work: float = 0.0
    remaining_count: int = 0
    rate: float = 0.0
    ranges: tuple[tuple[int, int], ...] = ()

    tag: ClassVar[Tag] = Tag.PROFILE

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES + 48  # group + two floats + count + rate window


@dataclass(frozen=True)
class TransferOrder:
    """One work transfer in a redistribution plan: src sends dst work."""

    src: int
    dst: int
    work: float

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError("transfer work must be non-negative")


@dataclass(frozen=True)
class InstructionMsg(Message):
    """Load-balancer instructions (centralized schemes, §3.5).

    Carries the node's outgoing transfer orders, the number of incoming
    transfers to expect, whether the node should retire, and the new
    active set of its group (so everyone addresses future interrupts
    consistently).  ``done`` signals global/group termination.
    """

    group: int = 0
    outgoing: tuple[TransferOrder, ...] = ()
    incoming: int = 0
    retire: bool = False
    done: bool = False
    active: tuple[int, ...] = ()
    # Customized selection (§4.3): the master announces the committed
    # scheme and group size with the first-synchronization instruction.
    select_scheme: str = ""
    select_group_size: int = 0
    # Fault tolerance (docs/FAULT_MODEL.md): the senders behind
    # ``incoming`` (so a timed receive knows whom to nudge), and orphaned
    # iteration ranges the balancer grants this node from the reclaim pool.
    incoming_srcs: tuple[int, ...] = ()
    grant: tuple[tuple[int, int], ...] = ()

    tag: ClassVar[Tag] = Tag.INSTRUCTION

    @property
    def nbytes(self) -> int:
        return (HEADER_BYTES + 32 + 16 * len(self.outgoing)
                + 4 * len(self.active) + 4 * len(self.incoming_srcs)
                + 16 * len(self.grant))


@dataclass(frozen=True)
class WorkMsg(Message):
    """Migrated iterations plus the data rows they operate on (§3.3)."""

    ranges: tuple[tuple[int, int], ...] = ()
    count: int = 0
    data_bytes: int = 0

    tag: ClassVar[Tag] = Tag.WORK

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES + 16 * len(self.ranges) + self.data_bytes


@dataclass(frozen=True)
class ControlMsg(Message):
    """Out-of-band control notices (configuration, termination)."""

    kind: str = "done"
    payload: Any = None

    tag: ClassVar[Tag] = Tag.CONTROL

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES + 16


@dataclass(frozen=True)
class DataMsg(Message):
    """Bulk array data: initial scatter / final gather segments."""

    label: str = "scatter"
    data_bytes: int = 0

    tag: ClassVar[Tag] = Tag.DATA

    @property
    def nbytes(self) -> int:
        return HEADER_BYTES + self.data_bytes
