"""Tests for the socket backend's wire-frame codec.

No network involved: everything here exercises the pure byte codec in
``repro.message.frames``.  The byte-for-byte examples mirror the ones
in docs/WIRE_PROTOCOL.md — if an encoding change breaks these, update
the document in the same commit.
"""

import json
import random

import pytest

from repro.core.policy import DlbPolicy
from repro.message.frames import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    FrameType,
    decode_frame,
    encode_frame,
    ft_from_wire,
    ft_to_wire,
    message_from_wire,
    message_to_wire,
    policy_from_wire,
    policy_to_wire,
)
from repro.message.messages import (
    ControlMsg,
    DataMsg,
    InstructionMsg,
    InterruptMsg,
    ProfileMsg,
    TransferOrder,
    WorkMsg,
)
from repro.runtime.options import FaultToleranceConfig


# ---------------------------------------------------------------------------
# Frame layout.
# ---------------------------------------------------------------------------
def test_frame_layout_byte_for_byte():
    # The docs/WIRE_PROTOCOL.md worked example: length prefix counts the
    # type byte plus the canonical-JSON body.
    data = encode_frame(FrameType.PING, {"t": 1.5})
    assert data.hex() == "0000000a047b2274223a312e357d"
    assert data[:4] == (1 + len(b'{"t":1.5}')).to_bytes(4, "big")
    assert data[4] == FrameType.PING


def test_hello_frame_example():
    data = encode_frame(FrameType.HELLO, {"v": PROTOCOL_VERSION})
    assert data.hex() == "00000008017b2276223a327d"


def test_canonical_json_is_unique():
    # Same body dict in any insertion order encodes identically.
    a = encode_frame(FrameType.STAT, {"k": "exec", "node": 3})
    b = encode_frame(FrameType.STAT, {"node": 3, "k": "exec"})
    assert a == b


def test_empty_body_round_trip():
    data = encode_frame(FrameType.BYE)
    ftype, body, used = decode_frame(data)
    assert (ftype, body, used) == (FrameType.BYE, {}, len(data))


def test_decode_round_trip_all_types():
    for ftype in FrameType:
        data = encode_frame(ftype, {"x": 1})
        got_type, body, used = decode_frame(data)
        assert got_type is ftype
        assert body == {"x": 1}
        assert used == len(data)


# ---------------------------------------------------------------------------
# Error cases.
# ---------------------------------------------------------------------------
def test_truncated_header_rejected():
    with pytest.raises(FrameError):
        decode_frame(b"\x00\x00")


def test_truncated_body_rejected():
    data = encode_frame(FrameType.MSG, {"tag": "control"})
    with pytest.raises(FrameError):
        decode_frame(data[:-1])


def test_zero_length_rejected():
    with pytest.raises(FrameError):
        decode_frame(b"\x00\x00\x00\x00")


def test_oversize_length_rejected():
    bad = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\x01"
    with pytest.raises(FrameError):
        decode_frame(bad)


def test_unknown_frame_type_rejected():
    data = bytearray(encode_frame(FrameType.PING, {"t": 0}))
    data[4] = 0x7F
    with pytest.raises(FrameError, match="unknown frame type"):
        decode_frame(bytes(data))


def test_non_object_body_rejected():
    payload = json.dumps([1, 2, 3]).encode()
    data = ((1 + len(payload)).to_bytes(4, "big")
            + bytes([FrameType.STAT]) + payload)
    with pytest.raises(FrameError, match="JSON object"):
        decode_frame(data)


def test_garbage_body_rejected():
    payload = b"\xff\xfenot json"
    data = ((1 + len(payload)).to_bytes(4, "big")
            + bytes([FrameType.STAT]) + payload)
    with pytest.raises(FrameError):
        decode_frame(data)


def test_encode_oversize_body_rejected():
    with pytest.raises(FrameError, match="too large"):
        encode_frame(FrameType.MSG, {"blob": "x" * MAX_FRAME_BYTES})


# ---------------------------------------------------------------------------
# Incremental decoding.
# ---------------------------------------------------------------------------
def test_decoder_byte_at_a_time():
    frames = [encode_frame(FrameType.HELLO, {"v": 1}),
              encode_frame(FrameType.MSG, message_to_wire(
                  InterruptMsg(src=0, dst=1, epoch=2, group=0))),
              encode_frame(FrameType.BYE)]
    stream = b"".join(frames)
    dec = FrameDecoder()
    got = []
    for i in range(len(stream)):
        got.extend(dec.feed(stream[i:i + 1]))
    assert [t for t, _ in got] == [FrameType.HELLO, FrameType.MSG,
                                   FrameType.BYE]
    assert got[0][1] == {"v": 1}


def test_decoder_random_chunking_fuzz():
    rng = random.Random(20260808)
    msgs = []
    for _ in range(50):
        msgs.append(encode_frame(
            FrameType(rng.choice(list(FrameType))),
            {"n": rng.randrange(1000),
             "s": "".join(rng.choice("abc{}:,\"") for _ in range(
                 rng.randrange(40))),
             "f": rng.random(),
             "l": [rng.randrange(10) for _ in range(rng.randrange(5))]}))
    stream = b"".join(msgs)
    dec = FrameDecoder()
    got = []
    pos = 0
    while pos < len(stream):
        step = rng.randrange(1, 17)
        got.extend(dec.feed(stream[pos:pos + step]))
        pos += step
    assert len(got) == len(msgs)
    for (ftype, body), raw in zip(got, msgs):
        ref_type, ref_body, _ = decode_frame(raw)
        assert ftype is ref_type and body == ref_body


def test_decoder_rejects_bad_length_mid_stream():
    dec = FrameDecoder()
    list(dec.feed(encode_frame(FrameType.PING, {"t": 0})))
    with pytest.raises(FrameError):
        list(dec.feed(b"\xff\xff\xff\xff"))


# ---------------------------------------------------------------------------
# Message <-> MSG-frame body.
# ---------------------------------------------------------------------------
_SAMPLES = [
    InterruptMsg(src=3, dst=0, epoch=5, group=1),
    ProfileMsg(src=2, dst=0, epoch=1, group=0, remaining_work=3.5,
               remaining_count=7, rate=0.5, ranges=((13, 20),)),
    InstructionMsg(src=0, dst=2, epoch=4, group=0,
                   outgoing=(TransferOrder(2, 1, 1.5),
                             TransferOrder(2, 3, 0.25)),
                   incoming=1.0, retire=True, done=False,
                   active=(0, 1, 2, 3), select_scheme="GCDLB",
                   select_group_size=2, incoming_srcs=(1,),
                   grant=((10, 14), (20, 21))),
    WorkMsg(src=1, dst=2, epoch=4, ranges=((0, 5), (9, 12)), count=8,
            data_bytes=6400),
    ControlMsg(src=2, dst=0, epoch=3, kind="leave",
               payload=((4, 9), (11, 12))),
    ControlMsg(src=0, dst=1, epoch=0, kind="done"),
    DataMsg(src=1, dst=3, epoch=2, label="stage", data_bytes=1234),
]


@pytest.mark.parametrize("msg", _SAMPLES,
                         ids=lambda m: type(m).__name__)
def test_message_round_trip(msg):
    body = message_to_wire(msg)
    # The body must survive canonical JSON (what actually hits the wire).
    _, wired, _ = decode_frame(encode_frame(FrameType.MSG, body))
    assert message_from_wire(wired) == msg


def test_wire_body_carries_routing_header():
    body = message_to_wire(InterruptMsg(src=3, dst=0, epoch=5, group=1))
    assert body == {"tag": "interrupt", "src": 3, "dst": 0, "epoch": 5,
                    "group": 1}


def test_profile_body_canonical_bytes():
    # The docs/WIRE_PROTOCOL.md MSG example, byte-for-byte.
    msg = ProfileMsg(src=2, dst=0, epoch=1, group=0, remaining_work=3.5,
                     remaining_count=7, rate=0.5, ranges=((13, 20),))
    frame = encode_frame(FrameType.MSG, message_to_wire(msg))
    assert frame[5:] == (b'{"dst":0,"epoch":1,"group":0,"ranges":[[13,20]],'
                         b'"rate":0.5,"remaining_count":7,'
                         b'"remaining_work":3.5,"src":2,"tag":"profile"}')


def test_unknown_body_keys_ignored():
    # Forward compatibility: a newer peer may add fields.
    body = message_to_wire(InterruptMsg(src=0, dst=1, epoch=1))
    body["future_field"] = {"nested": True}
    assert message_from_wire(body) == InterruptMsg(src=0, dst=1, epoch=1)


def test_unknown_tag_rejected():
    with pytest.raises(FrameError, match="unknown message tag"):
        message_from_wire({"tag": "telepathy", "src": 0, "dst": 1,
                           "epoch": 0})


# ---------------------------------------------------------------------------
# Config fragments (WELCOME frame).
# ---------------------------------------------------------------------------
def test_policy_round_trip():
    policy = DlbPolicy(improvement_threshold=0.25, min_move_fraction=0.02)
    assert policy_from_wire(policy_to_wire(policy)) == policy


def test_welcome_policy_example():
    # The docs/WIRE_PROTOCOL.md WELCOME ``run.policy``, byte-for-byte.
    body = encode_frame(FrameType.WELCOME, policy_to_wire(DlbPolicy()))[5:]
    assert body == (b'{"context_switch_seconds":0.002,"delta_seconds":0.002,'
                    b'"improvement_threshold":0.1,'
                    b'"include_movement_cost":false,'
                    b'"min_move_fraction":0.02,"rate_floor_fraction":0.001,'
                    b'"retire_fraction":0.5,"selection_seconds":0.05}')


def test_policy_ignores_unknown_keys():
    body = policy_to_wire(DlbPolicy())
    body["from_the_future"] = 1
    assert policy_from_wire(body) == DlbPolicy()


def test_ft_round_trip():
    ft = FaultToleranceConfig(enabled=True, request_timeout=0.125,
                              max_retries=3)
    assert ft_from_wire(ft_to_wire(ft)) == ft
