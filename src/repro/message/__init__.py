"""PVM-like message layer (substrate S4)."""

from .frames import (
    FrameDecoder,
    FrameError,
    FrameType,
    decode_frame,
    encode_frame,
    message_from_wire,
    message_to_wire,
)
from .inbox import Inbox
from .messages import (
    ControlMsg,
    DataMsg,
    InstructionMsg,
    InterruptMsg,
    Message,
    ProfileMsg,
    Tag,
    TransferOrder,
    WorkMsg,
)
from .pvm import VirtualMachine

__all__ = [
    "ControlMsg",
    "DataMsg",
    "FrameDecoder",
    "FrameError",
    "FrameType",
    "Inbox",
    "InstructionMsg",
    "InterruptMsg",
    "Message",
    "ProfileMsg",
    "Tag",
    "TransferOrder",
    "VirtualMachine",
    "WorkMsg",
    "decode_frame",
    "encode_frame",
    "message_from_wire",
    "message_to_wire",
]
