"""Wire-frame codec for the socket backend (docs/WIRE_PROTOCOL.md).

A frame is the transport unit of the TCP backend: a 4-byte big-endian
length prefix, a 1-byte frame-type tag, and a UTF-8 JSON body.  The
length counts everything after the prefix (type byte + body), so a
reader needs no lookahead::

    0      4      5            4 + length
    +------+------+----------------+
    | len  | type | JSON body      |
    +------+------+----------------+

JSON (not pickle) keeps the protocol language-agnostic and injection-
safe across trust boundaries; bodies are encoded with sorted keys and
compact separators so a given frame has exactly one byte representation
(the examples in docs/WIRE_PROTOCOL.md are asserted byte-for-byte in
``tests/message/test_frames.py``).

:class:`~repro.message.messages.Message` payloads ride in ``MSG``
frames: :func:`message_to_wire` flattens a message (epoch stamp
included) into a JSON-clean dict and :func:`message_from_wire` rebuilds
the frozen dataclass.  Unknown body keys are ignored on decode — the
forward-compatibility rule of the wire protocol's versioning policy.
"""

from __future__ import annotations

import json
import struct
from enum import IntEnum
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - imported lazily below to keep
    # this module importable from anywhere in the package (the policy
    # and options modules sit above ``message`` in the import order).
    from ..core.policy import DlbPolicy
    from ..runtime.options import FaultToleranceConfig

from .messages import (
    ControlMsg,
    DataMsg,
    InstructionMsg,
    InterruptMsg,
    Message,
    ProfileMsg,
    TransferOrder,
    WorkMsg,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FrameType",
    "FrameError",
    "FrameDecoder",
    "encode_frame",
    "decode_frame",
    "message_to_wire",
    "message_from_wire",
    "policy_to_wire",
    "policy_from_wire",
    "ft_to_wire",
    "ft_from_wire",
]

#: Major version negotiated in HELLO/WELCOME; a hub refuses mismatches.
PROTOCOL_VERSION = 2

#: Upper bound on one frame (type byte + body); a longer length prefix
#: means a corrupt or hostile stream and kills the connection.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameType(IntEnum):
    """The 1-byte wire tag of each frame kind."""

    HELLO = 0x01      # worker -> hub: registration / join request
    WELCOME = 0x02    # hub -> worker: node id + full run configuration
    MSG = 0x03        # both ways: one DLB protocol message
    PING = 0x04       # hub -> worker: liveness probe
    PONG = 0x05       # worker -> hub: liveness answer
    LEAVE = 0x06      # worker -> hub: planned departure + residual ranges
    MEMBER = 0x07     # hub -> workers: epoch-fenced join announcement
    DEATH = 0x08      # hub -> workers: peer crashed or departed
    GRANT = 0x09      # hub -> worker: orphaned ranges granted
    STAT = 0x0A       # worker -> hub: run-statistics records
    CTRL = 0x0B       # hub -> worker: orchestration (leave-now, die)
    BYE = 0x0C        # hub -> worker: run over, disconnect cleanly
    ERR = 0x0D        # either way: protocol violation, then close
    # Strictly opt-in (see docs/WIRE_PROTOCOL.md): a worker sends TRACE
    # only when the hub's WELCOME carried ``run.trace_events`` — a peer
    # that predates it never receives one, so no version bump.
    TRACE = 0x0E      # worker -> hub: trace-buffer handoff at teardown


class FrameError(ValueError):
    """A frame could not be encoded or decoded."""


def encode_frame(ftype: FrameType, body: Optional[dict] = None) -> bytes:
    """One wire frame: length prefix, type byte, canonical JSON body."""
    payload = b"" if body is None else json.dumps(
        body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if 1 + len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame body too large ({len(payload)} bytes)")
    return _LEN.pack(1 + len(payload)) + bytes([ftype]) + payload


def decode_frame(data: bytes) -> tuple[FrameType, dict, int]:
    """Decode one frame from the head of ``data``.

    Returns ``(type, body, bytes_consumed)``; raises
    :class:`FrameError` on truncation or garbage (use
    :class:`FrameDecoder` for incremental stream parsing).
    """
    if len(data) < _LEN.size + 1:
        raise FrameError("truncated frame")
    (length,) = _LEN.unpack_from(data)
    if length < 1 or length > MAX_FRAME_BYTES:
        raise FrameError(f"bad frame length {length}")
    if len(data) < _LEN.size + length:
        raise FrameError("truncated frame body")
    try:
        ftype = FrameType(data[_LEN.size])
    except ValueError as exc:
        raise FrameError(f"unknown frame type 0x{data[_LEN.size]:02x}") \
            from exc
    raw = data[_LEN.size + 1:_LEN.size + length]
    if not raw:
        return ftype, {}, _LEN.size + length
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"bad frame body: {exc}") from exc
    if not isinstance(body, dict):
        raise FrameError("frame body must be a JSON object")
    return ftype, body, _LEN.size + length


class FrameDecoder:
    """Incremental stream decoder: feed byte chunks, iterate frames.

    TCP gives no record boundaries; the decoder buffers partial frames
    across :meth:`feed` calls and yields each complete
    ``(FrameType, body)`` pair exactly once, in stream order.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> Iterator[tuple[FrameType, dict]]:
        self._buf.extend(chunk)
        while True:
            if len(self._buf) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(self._buf)
            if length < 1 or length > MAX_FRAME_BYTES:
                raise FrameError(f"bad frame length {length}")
            if len(self._buf) < _LEN.size + length:
                return
            ftype, body, used = decode_frame(bytes(self._buf))
            del self._buf[:used]
            yield ftype, body


# ---------------------------------------------------------------------------
# Message <-> MSG-frame body.
# ---------------------------------------------------------------------------
#: Message-specific body fields beyond the src/dst/epoch routing header.
_MSG_FIELDS: dict[str, tuple[type, tuple[str, ...]]] = {
    "interrupt": (InterruptMsg, ("group",)),
    "profile": (ProfileMsg, ("group", "remaining_work", "remaining_count",
                             "rate", "ranges")),
    "instruction": (InstructionMsg, ("group", "outgoing", "incoming",
                                     "retire", "done", "active",
                                     "select_scheme", "select_group_size",
                                     "incoming_srcs", "grant")),
    "work": (WorkMsg, ("ranges", "count", "data_bytes")),
    "control": (ControlMsg, ("kind", "payload")),
    "data": (DataMsg, ("label", "data_bytes")),
}


def _to_jsonable(value: Any) -> Any:
    if isinstance(value, TransferOrder):
        return [value.src, value.dst, value.work]
    if isinstance(value, (tuple, list)):
        return [_to_jsonable(v) for v in value]
    return value


def message_to_wire(msg: Message) -> dict:
    """Flatten a protocol message into a JSON-clean MSG-frame body."""
    tag = msg.tag.value
    if tag not in _MSG_FIELDS:  # pragma: no cover - defensive
        raise FrameError(f"cannot encode message tag {tag!r}")
    body: dict[str, Any] = {"tag": tag, "src": msg.src, "dst": msg.dst,
                            "epoch": msg.epoch}
    for name in _MSG_FIELDS[tag][1]:
        body[name] = _to_jsonable(getattr(msg, name))
    return body


def _pairs(value: Any) -> tuple[tuple[int, int], ...]:
    return tuple((int(s), int(e)) for s, e in value or ())


def message_from_wire(body: dict) -> Message:
    """Rebuild the frozen message dataclass from a MSG-frame body."""
    tag = body.get("tag")
    if tag not in _MSG_FIELDS:
        raise FrameError(f"unknown message tag {tag!r}")
    cls, names = _MSG_FIELDS[tag]
    fields: dict[str, Any] = {name: body[name] for name in names
                              if name in body}
    if tag == "instruction":
        fields["outgoing"] = tuple(
            TransferOrder(int(s), int(d), float(w))
            for s, d, w in fields.get("outgoing", ()))
        fields["active"] = tuple(int(n) for n in fields.get("active", ()))
        fields["incoming_srcs"] = tuple(
            int(n) for n in fields.get("incoming_srcs", ()))
        fields["grant"] = _pairs(fields.get("grant"))
    elif tag in ("work", "profile"):
        fields["ranges"] = _pairs(fields.get("ranges"))
    elif tag == "control" and isinstance(fields.get("payload"), list):
        # Range payloads (leave/grant bookkeeping) round-trip as tuples.
        fields["payload"] = _pairs(fields["payload"])
    return cls(src=int(body["src"]), dst=int(body["dst"]),
               epoch=int(body["epoch"]), **fields)


# ---------------------------------------------------------------------------
# Config dataclasses <-> WELCOME-frame fragments.
# ---------------------------------------------------------------------------
def policy_to_wire(policy: "DlbPolicy") -> dict:
    from dataclasses import asdict
    return asdict(policy)


def policy_from_wire(body: dict) -> "DlbPolicy":
    from dataclasses import fields as dc_fields

    from ..core.policy import DlbPolicy
    known = {f.name for f in dc_fields(DlbPolicy)}
    return DlbPolicy(**{k: v for k, v in body.items() if k in known})


def ft_to_wire(ft: "FaultToleranceConfig") -> dict:
    from dataclasses import asdict
    return asdict(ft)


def ft_from_wire(body: dict) -> "FaultToleranceConfig":
    from dataclasses import fields as dc_fields

    from ..runtime.options import FaultToleranceConfig
    known = {f.name for f in dc_fields(FaultToleranceConfig)}
    return FaultToleranceConfig(
        **{k: v for k, v in body.items() if k in known})
