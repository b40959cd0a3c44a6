"""``repro.backend.process.Channel``: the feeder-less process transport.

One pipe, many writers under a cross-process lock, one reader; the
``put`` / ``get(timeout)`` / ``get_nowait`` surface of a queue.  These
pin what the process backend relies on: per-writer FIFO order, bounded
``get`` timeouts, records far larger than the pipe buffer crossing
while the reader drains, and a ``put`` that is complete when it returns
(so a process that exits right after one loses nothing and leaves no
lock behind).
"""

from __future__ import annotations

import os
import queue
import time

import pytest

from repro.backend.base import mp_context
from repro.backend.process import Channel

N_WRITERS = 3
PER_WRITER = 200


@pytest.fixture
def ctx():
    return mp_context(None)


@pytest.fixture
def channel(ctx):
    chan = Channel(ctx)
    yield chan
    chan.close()


def _join(procs) -> None:
    for proc in procs:
        proc.join(timeout=10.0)
        assert not proc.is_alive() and proc.exitcode == 0


def _write_sequence(chan: Channel, writer: int) -> None:
    for seq in range(PER_WRITER):
        chan.put((writer, seq))
    # No feeder thread: nothing is left to flush, so even the hardest
    # exit right after the last put loses no record and holds no lock.
    os._exit(0)


def test_per_writer_fifo_order_with_three_writer_processes(ctx, channel):
    procs = [ctx.Process(target=_write_sequence, args=(channel, writer),
                         daemon=True) for writer in range(N_WRITERS)]
    for proc in procs:
        proc.start()
    seen: dict[int, list[int]] = {writer: [] for writer in range(N_WRITERS)}
    for _ in range(N_WRITERS * PER_WRITER):
        writer, seq = channel.get(timeout=10.0)
        seen[writer].append(seq)
    _join(procs)
    assert all(seqs == list(range(PER_WRITER)) for seqs in seen.values())
    # ... and the lock is free: the next put goes straight through.
    channel.put("after")
    assert channel.get_nowait() == "after"


def test_get_raises_empty_within_twice_the_timeout(channel):
    timeout = 0.05
    t0 = time.perf_counter()
    with pytest.raises(queue.Empty):
        channel.get(timeout=timeout)
    assert timeout <= time.perf_counter() - t0 <= 2 * timeout
    t0 = time.perf_counter()
    with pytest.raises(queue.Empty):
        channel.get_nowait()
    assert time.perf_counter() - t0 < timeout


def test_put_reports_the_pickled_size_and_round_trips(channel):
    record = (3, 0.25, {"k": "sync", "epoch": 2})
    written = channel.put(record)
    assert 0 < written < 200
    assert channel.get(timeout=1.0) == record


def _write_large(chan: Channel, size: int) -> None:
    chan.put({"k": "trace", "payload": b"\xa5" * size})
    chan.put("done")


def test_megabyte_record_crosses_while_the_reader_drains(ctx, channel):
    """A worker's trace payload at ``finish`` is ~1 MiB, sixteen times
    the pipe buffer: the writer blocks until the reader catches up."""
    size = 1 << 20
    proc = ctx.Process(target=_write_large, args=(channel, size),
                       daemon=True)
    proc.start()
    record = channel.get(timeout=10.0)
    assert record["payload"] == b"\xa5" * size
    assert channel.get(timeout=10.0) == "done"
    _join([proc])
