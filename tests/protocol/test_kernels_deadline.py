"""The deadline hold: how a real backend holds one ``wall`` iteration.

``burn_wall`` (threads) and ``hold_async`` (asyncio tasks) must let N
holders each reach their *own* deadline — the kernel sleeps with the
GIL / the loop released instead of spinning — must never return early,
and must notice an abort at the next slice.  What is pinned here is
the property; *how close* to nominal N concurrent holders finish and
what rate a run profiles are wall-clock facts of the host, which
``bench/run.py`` repeats and reports with their spread
(``kernels.useful_frac``, ``backend.coord_overhead_s`` on
``thread_skew_p2`` / ``socket_skew_p2``).  The two timing bounds left
are checked best-of-3.
"""

from __future__ import annotations

import asyncio
import statistics
import threading
import time

import pytest

from repro.apps.workload import LoopSpec
from repro.backend import ThreadBackend
from repro.backend import kernels
from repro.backend import thread as thread_backend
from repro.backend.kernels import (
    HOLD_SLICE,
    HOLD_SLICE_ASYNC,
    burn_wall,
    hold_async,
)
from repro.machine.cluster import ClusterSpec
from repro.protocol import ComputeDone, WorkerProtocol
from repro.runtime.options import RunOptions

ATTEMPTS = 3


def _best_of(measure) -> float:
    return min(measure() for _ in range(ATTEMPTS))


def _threads_elapsed(n_threads: int, cost: float, count: int) -> float:
    def work():
        for _ in range(count):
            burn_wall(cost)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    elapsed = time.perf_counter() - t0
    assert not any(t.is_alive() for t in threads)
    return elapsed


@pytest.mark.parametrize("n_threads,cost,count", [
    (4, 1e-3, 100),
    (2, 1e-4, 400),
])
def test_concurrent_thread_holds_all_finish_on_time(n_threads, cost, count):
    """No holder is let go early, however many share the GIL."""
    assert _threads_elapsed(n_threads, cost, count) >= cost * count


def test_hold_never_returns_early_and_barely_overshoots():
    def overshoots():
        out = []
        for _ in range(101):
            t0 = time.perf_counter()
            burn_wall(1e-3)
            out.append(time.perf_counter() - t0 - 1e-3)
        return out

    runs = [overshoots() for _ in range(ATTEMPTS)]
    assert min(min(run) for run in runs) >= 0.0
    assert min(statistics.median(run) for run in runs) < 0.5e-3


@pytest.fixture
def slices(monkeypatch):
    """Every ``time.sleep`` a blocking hold asks for, none of it slept."""
    asked = []
    monkeypatch.setattr(kernels.time, "sleep", asked.append)
    return asked


def test_hold_of_nothing_returns_at_once(slices):
    burn_wall(0.0)
    burn_wall(-1.0)
    assert slices == []


def test_abort_mid_hold_returns_within_ten_milliseconds(slices):
    """An abort is honoured at the next probe, and two probes are never
    more than one slice of at most 5 ms apart."""
    probes = iter([False, False, True])
    burn_wall(5.0, lambda: next(probes))
    assert len(slices) == 2
    assert HOLD_SLICE <= 0.005
    assert all(0.0 < asked <= HOLD_SLICE for asked in slices)


async def _tasks_elapsed(n_tasks: int, cost: float, count: int) -> float:
    async def work():
        for _ in range(count):
            await hold_async(cost, lambda: None)

    t0 = time.perf_counter()
    await asyncio.gather(*(work() for _ in range(n_tasks)))
    return time.perf_counter() - t0


def test_concurrent_asyncio_holds_all_finish_on_time():
    nominal = 100 * 1e-3
    best = _best_of(lambda: asyncio.run(_tasks_elapsed(4, 1e-3, 100)))
    assert nominal <= best <= 1.25 * nominal


def test_check_stop_lands_within_one_asyncio_slice(monkeypatch):
    class Stop(Exception):
        pass

    asked = []

    async def sleep(seconds):
        asked.append(seconds)

    def check_stop():
        if len(asked) == 2:
            raise Stop

    monkeypatch.setattr(asyncio, "sleep", sleep)
    with pytest.raises(Stop):
        asyncio.run(hold_async(5.0, check_stop))
    # ``check_stop`` is consulted before every slice, and no slice is
    # longer than one ``HOLD_SLICE_ASYNC``.
    assert len(asked) == 2
    assert all(0.0 < seconds <= HOLD_SLICE_ASYNC for seconds in asked)


def test_two_thread_skew_run_profiles_the_nominal_rate(monkeypatch):
    """``Reporter.compute`` books ``busy = now - t0`` around each burn,
    so the section-3.2 rate a worker profiles is work / busy.  A hold
    never returns early, so nobody ever profiles *faster* than nominal
    — every rate of the run is checked, not only the last window's.
    How far *below* nominal a rate falls is the host's scheduling
    (the spin gave ~0.6 whenever both threads computed):
    ``kernels.useful_frac`` on ``thread_skew_p2`` reports it."""
    rates: list[float] = []
    real_drive = thread_backend.drive

    def spy(proto, *args, **kwargs):
        if isinstance(proto, WorkerProtocol):
            real_on_event = proto.on_event

            def on_event(event):
                commands = real_on_event(event)
                if isinstance(event, ComputeDone):
                    rates.append(proto.rate)
                return commands
            proto.on_event = on_event
        return real_drive(proto, *args, **kwargs)

    monkeypatch.setattr(thread_backend, "drive", spy)
    n = 64
    loop = LoopSpec("skew", n, tuple(1e-3 + 3e-3 * j / n for j in range(n)),
                    dc_bytes=4096)
    cluster = ClusterSpec.homogeneous(2, max_load=0, persistence=1.0, seed=7)
    stats = ThreadBackend(kernel="wall").run_loop(
        loop, cluster, "GDDLB", RunOptions())
    assert stats.n_syncs >= 1 and len(rates) >= 2
    assert all(0.0 < rate <= 1.0 for rate in rates)
