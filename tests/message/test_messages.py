"""Tests for typed protocol messages."""

import ast
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.message.frames import message_to_wire
from repro.message.messages import (
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

#: One message of every kind, every field off its default.
SAMPLES = (
    InterruptMsg(src=2, dst=0, epoch=3, group=1),
    ProfileMsg(src=2, dst=0, epoch=3, group=1, remaining_work=1.5,
               remaining_count=7, rate=0.8, ranges=((0, 4), (9, 12))),
    InstructionMsg(src=0, dst=2, epoch=3, group=1,
                   outgoing=(TransferOrder(2, 3, 0.5),), incoming=1,
                   retire=True, done=True, active=(0, 2, 3),
                   select_scheme="GDDLB", select_group_size=4,
                   incoming_srcs=(3,), grant=((20, 24),)),
    WorkMsg(src=2, dst=3, epoch=3, ranges=((10, 12),), count=2,
            data_bytes=1600),
    ControlMsg(src=2, dst=3, epoch=3, kind="leave", payload=((1, 2),)),
    DataMsg(src=0, dst=3, epoch=3, label="gather", data_bytes=800),
)


def test_tags_distinct():
    msgs = [InterruptMsg(0, 1), ProfileMsg(0, 1), InstructionMsg(0, 1),
            WorkMsg(0, 1), ControlMsg(0, 1), DataMsg(0, 1)]
    assert len({m.tag for m in msgs}) == 6


def test_interrupt_is_small():
    assert InterruptMsg(0, 1).nbytes <= 32


def test_profile_carries_metrics():
    msg = ProfileMsg(src=2, dst=0, epoch=3, remaining_work=1.5,
                     remaining_count=10, rate=0.8)
    assert msg.tag is Tag.PROFILE
    assert msg.remaining_work == 1.5
    assert msg.nbytes > InterruptMsg(0, 1).nbytes


def test_transfer_order_validation():
    with pytest.raises(ValueError):
        TransferOrder(src=0, dst=1, work=-1.0)


def test_instruction_size_grows_with_orders():
    small = InstructionMsg(0, 1)
    big = InstructionMsg(0, 1, outgoing=(TransferOrder(1, 2, 1.0),
                                         TransferOrder(1, 3, 1.0)),
                         active=(0, 1, 2, 3))
    assert big.nbytes > small.nbytes


def test_work_message_counts_data_bytes():
    msg = WorkMsg(src=0, dst=1, ranges=((0, 5),), count=5, data_bytes=4000)
    assert msg.nbytes >= 4000
    assert msg.count == 5


def test_data_message_bytes():
    assert DataMsg(0, 1, data_bytes=1000).nbytes >= 1000


def test_messages_are_immutable():
    msg = InterruptMsg(0, 1)
    with pytest.raises(Exception):
        msg.src = 5  # type: ignore[misc]


def test_epoch_defaults_to_zero():
    assert ProfileMsg(0, 1).epoch == 0


def test_instruction_selection_fields():
    msg = InstructionMsg(0, 1, select_scheme="LD", select_group_size=4)
    assert msg.select_scheme == "LD"
    assert msg.select_group_size == 4


def _kinds(cls=Message):
    for sub in cls.__subclasses__():
        yield sub
        yield from _kinds(sub)


def test_every_message_kind_is_sampled():
    assert {type(m) for m in SAMPLES} == set(_kinds())


@pytest.mark.parametrize("msg", SAMPLES, ids=lambda m: type(m).__name__)
def test_to_is_replace_of_dst(msg):
    """``m.to(d)`` is ``replace(m, dst=d)``, short of re-running
    ``__init__``: same type, equal, equal hash, the same pickle and
    wire body; the original keeps its address."""
    moved, expected = msg.to(5), replace(msg, dst=5)
    assert type(moved) is type(expected)
    assert moved == expected and hash(moved) == hash(expected)
    assert msg.dst != 5
    assert pickle.loads(pickle.dumps(moved)) == expected
    assert message_to_wire(moved) == message_to_wire(expected)


def test_protocol_readdresses_with_to():
    """No ``replace(..., dst=...)`` is left under ``repro/protocol``."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted((Path(repro.__file__).parent / "protocol")
                           .glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "replace"
        and any(kw.arg == "dst" for kw in node.keywords)]
    assert calls == []
