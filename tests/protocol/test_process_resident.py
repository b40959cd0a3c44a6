"""The process backend's resident cast: spawn once, run many loops.

``ProcessBackend`` forks its P workers and the balancer once per shape
(start method, P) and hands every later run to them as one order per
child (``backend/process.py``, "Lifetime").  These tests pin the rules
of that cast: a same-shape run forks nothing; run numbers keep one
run's leftovers out of the next and never drop a message that arrives
ahead of its run's order; a run that does not end clean, or a change of
shape, replaces the cast; an owner's death takes the cast with it; a
forked child runs a cast of its own; two threads share it one run at a
time; repeated spawn runs leak no shared-memory registration; an owner
killed mid-run leaves neither a child nor its run's block behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro import ClusterSpec
from repro.apps.workload import LoopSpec
from repro.backend import BackendError, ProcessBackend
from repro.backend import process
from repro.backend.base import mp_context
from repro.faults.plan import FaultPlan
from repro.runtime.options import RunOptions

from .test_process_backend import _segments, needs_dev_shm

SRC = Path(__file__).resolve().parents[2] / "src"


def _cluster(n=2):
    return ClusterSpec.homogeneous(n, max_load=0, seed=7)


def _skewed(n=32):
    """Node 0's half is cheap and node 1's dear: node 0 finishes first
    and a synchronization follows, whatever the host's speed."""
    costs = tuple(1e-4 if j < n // 2 else 4e-3 for j in range(n))
    return LoopSpec(name="skew", n_iterations=n, iteration_time=costs,
                    dc_bytes=64)


def _run(backend=None, strategy="GDDLB", n=2, **kwargs):
    stats = (backend or ProcessBackend()).run_loop(
        _skewed(), _cluster(n), strategy, RunOptions(), **kwargs)
    executed = sorted(i for ranges in stats.executed_by_node.values()
                      for s, e in ranges for i in range(s, e))
    assert executed == list(range(32))  # exactly once
    return stats


def _cast_pids() -> dict[str, int]:
    return {p.name: p.pid for p in multiprocessing.active_children()
            if p.name.startswith("dlb-")}


def _gone(pid: int) -> bool:
    """No such process, or only its zombie (an orphan's reaper may be
    slow to collect it)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _wait_gone(pids, seconds=10.0) -> None:
    deadline = time.monotonic() + seconds
    while not all(map(_gone, pids)):
        assert time.monotonic() < deadline, \
            [pid for pid in pids if not _gone(pid)]
        time.sleep(0.02)


@pytest.fixture
def after_order(monkeypatch):
    """``after_order(fn)``: call ``fn(cast, key)`` right after the parent
    posts participant ``key``'s run order (before the next one's)."""
    def install(fn):
        real = process._Cast.post

        def post(self, key, item):
            real(self, key, item)
            if isinstance(item, process._RunOrder):
                fn(self, key)

        monkeypatch.setattr(process._Cast, "post", post)
    return install


def test_second_same_shape_run_forks_nothing(monkeypatch):
    _run()
    before = _cast_pids()
    assert sorted(before) == ["dlb-balancer", "dlb-node0", "dlb-node1"]
    ctx = mp_context(None)
    started = []
    real_start = ctx.Process.start
    monkeypatch.setattr(ctx.Process, "start",
                        lambda p: started.append(p) or real_start(p))
    _run()
    _run(strategy="GCDLB")
    assert started == []
    assert _cast_pids() == before


def test_earlier_runs_leftover_never_reaches_the_next_run(after_order):
    """A string is no protocol event: posted to a worker's inbox, it
    fails the run (the control below).  Stamped with the run before,
    it is dropped — whether the child reads it while idle or mid-run."""
    _run()
    cast = process._cast
    cast.post(0, "leftover")  # stamped with the finished run

    def plant(cast, key):
        if key == 0:
            cast.queues[0].put((cast.run - 1, "leftover"))

    after_order(plant)
    _run()

    def poison(cast, key):
        if key == 0:
            cast.queues[0].put((cast.run, "poison"))

    after_order(poison)
    with pytest.raises(BackendError, match="unknown event 'poison'"):
        _run()


def test_message_ahead_of_its_run_order_is_kept(after_order, monkeypatch):
    """The balancer's order is held back until both workers have long
    finished their blocks: their PROFILEs reach its channel first.  Were
    they dropped, the sync would never be answered and the parent's
    watchdog (cut to 5 s) would end the run."""
    monkeypatch.setattr(process, "WATCHDOG_SECONDS", 2.5)
    _run(strategy="GCDLB")

    def hold_back(cast, key):
        if key == len(cast.queues) - 1:  # last worker: balancer is next
            time.sleep(0.3)

    after_order(hold_back)
    stats = _run(strategy="GCDLB")
    assert stats.syncs  # the balancer answered the early profiles


def _interrupted(*_args):
    raise KeyboardInterrupt


@pytest.mark.faults
@pytest.mark.parametrize("failure",
                         ["crash", "fail_after", "watchdog", "interrupt"])
def test_run_that_ends_unclean_leaves_a_fresh_cast(failure, monkeypatch):
    _run()
    before = _cast_pids()
    backend = ProcessBackend()
    with monkeypatch.context() as patch:
        if failure == "crash":
            stats = backend.run_loop(
                _skewed(), _cluster(), "GDDLB", RunOptions(),
                fault_plan=FaultPlan.single_crash(node=1, time=0.01))
            assert stats.crashed_nodes == (1,)
        elif failure == "fail_after":
            backend._fail_after = {1: 2}
            with pytest.raises(BackendError, match="worker 1 failed"):
                _run(backend)
        elif failure == "watchdog":
            patch.setattr(process, "WATCHDOG_SECONDS", 0.0)
            with pytest.raises(BackendError, match="watchdog"):
                _run(backend)
        else:  # an exception in the parent, after the children finish
            patch.setattr(backend, "_verify_shm", _interrupted)
            with pytest.raises(KeyboardInterrupt):
                _run(backend)
    assert _cast_pids() == {}  # discarded, not left idle
    _wait_gone(before.values())
    _run()
    after = _cast_pids()
    assert sorted(after) == sorted(before)
    assert not set(after.values()) & set(before.values())


def test_change_of_shape_replaces_the_cast():
    shapes = [ProcessBackend(), ProcessBackend(),
              ProcessBackend(start_method="spawn")]
    previous: dict[str, int] = {}
    for backend, n in zip(shapes, (2, 4, 4)):
        _run(backend, n=n)
        cast = _cast_pids()
        assert len(cast) == n + 1
        assert not set(cast.values()) & set(previous.values())
        _wait_gone(previous.values())
        previous = cast
    process.release_cast()


def test_killed_owner_leaves_no_child():
    script = textwrap.dedent("""
        import json, multiprocessing, time
        from repro import ClusterSpec
        from repro.apps.workload import LoopSpec
        from repro.backend import ProcessBackend
        from repro.runtime.options import RunOptions
        ProcessBackend().run_loop(
            LoopSpec("null", 4, 1e-4, dc_bytes=64),
            ClusterSpec.homogeneous(2, max_load=0), "GCDLB", RunOptions())
        print(json.dumps([p.pid for p in multiprocessing.active_children()]),
              flush=True)
        time.sleep(120)
    """)
    owner = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    try:
        pids = json.loads(owner.stdout.readline())
        assert len(pids) == 3
        assert not any(map(_gone, pids))
    finally:
        owner.send_signal(signal.SIGKILL)
        owner.wait()
        owner.stdout.close()
    _wait_gone(pids)


@needs_dev_shm
def test_owner_killed_mid_run_leaves_no_child_and_no_segment():
    """SIGKILLed about a second into a two-second run, the owner gets
    no say: its cast must end itself, and the resource tracker must
    unlink the run's block, both within ten seconds."""
    script = textwrap.dedent("""
        import json, multiprocessing
        from repro import ClusterSpec
        from repro.apps.workload import LoopSpec
        from repro.backend import ProcessBackend
        from repro.runtime.options import RunOptions
        def run(n, cost):
            ProcessBackend().run_loop(
                LoopSpec("steady", n, cost, dc_bytes=64),
                ClusterSpec.homogeneous(2, max_load=0), "GCDLB",
                RunOptions())
        run(4, 1e-4)  # forks the cast
        print(json.dumps([p.pid for p in multiprocessing.active_children()]),
              flush=True)
        run(64, 0.06)  # ~2 s on each of the two workers
    """)
    owner = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    try:
        pids = json.loads(owner.stdout.readline())
        assert len(pids) == 3
        deadline = time.monotonic() + 10.0
        while not _segments(owner.pid):  # the second run's block
            assert time.monotonic() < deadline and owner.poll() is None
            time.sleep(0.01)
        time.sleep(1.0)
        assert owner.poll() is None  # still mid-run
    finally:
        owner.send_signal(signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        owner.wait()
        owner.stdout.close()
    _wait_gone(pids, deadline - time.monotonic())
    while _segments(owner.pid):
        assert time.monotonic() < deadline, _segments(owner.pid)
        time.sleep(0.02)


def _run_in_forked_child() -> None:
    _run()
    process.release_cast()


def test_forked_child_runs_its_own_cast():
    """A process forked from an owner inherits the owner's cast object
    but not the cast: its own run forks its own children."""
    _run()
    child = mp_context("fork").Process(target=_run_in_forked_child)
    child.start()
    child.join(timeout=60)
    assert child.exitcode == 0
    _run()  # the owner's cast is untouched


def test_two_threads_run_one_after_the_other(monkeypatch):
    _run()  # no fork while two threads live
    spans = []
    real = ProcessBackend._supervise

    def timed(self, *args):
        t0 = time.perf_counter()
        try:
            return real(self, *args)
        finally:
            spans.append((t0, time.perf_counter()))

    monkeypatch.setattr(ProcessBackend, "_supervise", timed)
    errors = []

    def one():
        try:
            _run()
        except BaseException as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=one) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(spans) == 2
    first, second = sorted(spans)
    assert first[1] <= second[0]


def test_repeated_spawn_attaches_leak_no_registration():
    """Two spawn runs attach twice per child; with every warning an
    error, neither the parent nor a resource tracker may complain."""
    script = textwrap.dedent("""
        from repro import ClusterSpec
        from repro.apps.workload import LoopSpec
        from repro.backend import ProcessBackend
        from repro.backend.process import release_cast
        from repro.runtime.options import RunOptions
        backend = ProcessBackend(start_method="spawn")
        for _ in range(2):
            backend.run_loop(LoopSpec("null", 4, 1e-4, dc_bytes=64),
                             ClusterSpec.homogeneous(2, max_load=0),
                             "GCDLB", RunOptions())
        release_cast()
    """)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert "resource_tracker" not in done.stderr
    assert "leaked" not in done.stderr
