"""ProcessBackend: true-parallel execution, shm data movement, crashes.

The cross-backend suite already pins exactly-once coverage for all four
strategies; this file covers what is *specific* to processes — the
shared-memory data path and its audit trail, the transport/shm byte
split, alternate start methods, lifted crash-fault injection with
reclaim/salvage, the shutdown contract (no orphaned processes after a
mid-run failure, only the idle resident cast after a clean one; the
cast's own rules are ``test_process_resident.py``), and the rejection
surface for simulation-only features.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro import ClusterSpec
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.workload import LoopSpec
from repro.backend import BackendError, ProcessBackend, base, process
from repro.backend.process import STAMP_BYTES, release_cast
from repro.faults.plan import (
    FaultPlan,
    MessageDropFault,
    SlowdownFault,
)
from repro.runtime.options import RunOptions


def _cluster(n=4):
    return ClusterSpec.homogeneous(n, max_load=3, persistence=1.0, seed=7)


def _skewed_loop():
    """Front-loaded costs: node 0's block dominates, forcing the
    balancer to move work (and therefore data) off it.

    The block *ends* in cheap iterations: a transfer order is rounded
    down to whole iterations from the tail
    (``Assignment.take_tail_work``), so with an expensive tail every
    order a busy host produces can round to an empty parcel — work is
    "redistributed" and no row moves.  Any order worth 1 ms moves one
    here, whatever the schedule.
    """
    times = (0.03,) * 6 + (0.001,) * 6 + (0.002,) * 36
    return LoopSpec(name="skew", n_iterations=48, iteration_time=times,
                    dc_bytes=256)


def _no_orphans():
    return [p.name for p in multiprocessing.active_children()
            if p.name.startswith("dlb-")]


def _segments(pid=None):
    """The run blocks an owner (default: this process) has in /dev/shm."""
    prefix = f"dlb-{os.getpid() if pid is None else pid}-"
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


needs_dev_shm = pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                                   reason="no /dev/shm to list")


# -- data movement over shared memory -----------------------------------
@pytest.mark.parametrize("strategy", ["GCDLB", "GDDLB"])
def test_redistribution_moves_data_through_shm(strategy):
    stats = ProcessBackend(time_scale=0.5).run_loop(
        _skewed_loop(), _cluster(), strategy, RunOptions())
    executed = sum(stats.executed_count(n) for n in stats.executed_by_node)
    assert executed == 48
    assert stats.n_redistributions >= 1
    # Work moved, so iteration rows moved — by remapping, not copying:
    # the shm ledger counts them, and they never inflate the pipe
    # payload by more than the pickled range descriptors.  Every
    # iteration executed off its home block (12 per node) was shipped
    # at least once.
    off_home = sum(i // 12 != node
                   for node, ranges in stats.executed_by_node.items()
                   for s, e in ranges for i in range(s, e))
    assert off_home >= 1
    assert stats.shm_data_bytes >= 256 * off_home
    assert stats.shm_data_bytes % 256 == 0
    assert stats.transport_payload_bytes > 0


def test_shm_audit_catches_misattributed_rows(monkeypatch):
    backend = ProcessBackend(time_scale=0.2)
    real_verify = backend._verify_shm

    seen = {}

    def spying_verify(stats, shm, row_bytes):
        real_verify(stats, shm, row_bytes)  # the genuine audit passes
        seen["row_bytes"] = row_bytes
        # ... and it really checks: corrupt one row, expect a scream.
        shm.buf[0:STAMP_BYTES] = b"\xff" * STAMP_BYTES
        with pytest.raises(AssertionError, match="stamped by"):
            real_verify(stats, shm, row_bytes)

    monkeypatch.setattr(backend, "_verify_shm", spying_verify)
    loop = mxm_loop(MxmConfig(48, 16, 16), op_seconds=4e-7)
    backend.run_loop(loop, _cluster(), "LDDLB", RunOptions())
    assert seen["row_bytes"] >= STAMP_BYTES


def test_start_method_spawn_end_to_end():
    loop = mxm_loop(MxmConfig(32, 8, 8), op_seconds=4e-7)
    stats = ProcessBackend(time_scale=0.2, start_method="spawn").run_loop(
        loop, _cluster(), "GCDLB", RunOptions())
    executed = sum(stats.executed_count(n) for n in stats.executed_by_node)
    assert executed == 32
    assert stats.backend == "process"


def test_unknown_start_method_rejected():
    loop = mxm_loop(MxmConfig(16, 8, 8), op_seconds=4e-7)
    with pytest.raises(BackendError, match="start method"):
        ProcessBackend(start_method="telepathy").run_loop(
            loop, _cluster(), "GCDLB", RunOptions())


# -- crash faults: lifted, not rejected ---------------------------------
@pytest.mark.faults
@pytest.mark.parametrize("strategy", ["GCDLB", "GDDLB", "LCDLB", "LDDLB"])
def test_crash_fault_salvages_exactly_once(strategy):
    loop = LoopSpec(name="steady", n_iterations=64, iteration_time=0.01,
                    dc_bytes=64)
    plan = FaultPlan.single_crash(node=1, time=0.05)
    stats = ProcessBackend(time_scale=1.0).run_loop(
        loop, _cluster(), strategy, RunOptions(), fault_plan=plan)
    assert stats.crashed_nodes == (1,)
    executed = sum(stats.executed_count(n) for n in stats.executed_by_node)
    assert executed == 64  # coverage also re-verified inside run_loop
    # The victim's unfinished share was recovered by someone.
    assert stats.salvaged_iterations + stats.executed_count(1) <= 64
    assert stats.node_finish_times  # survivors finished and reported
    assert 1 not in stats.node_finish_times


@pytest.mark.faults
def test_crash_before_any_work_is_fully_salvaged():
    loop = mxm_loop(MxmConfig(48, 16, 16), op_seconds=4e-7)
    plan = FaultPlan.single_crash(node=2, time=1e-9)
    stats = ProcessBackend(time_scale=0.2).run_loop(
        loop, _cluster(), "LDDLB", RunOptions(), fault_plan=plan)
    assert stats.crashed_nodes == (2,)
    assert stats.executed_count(2) + stats.salvaged_iterations >= 12
    executed = sum(stats.executed_count(n) for n in stats.executed_by_node)
    assert executed == 48


@pytest.mark.faults
def test_crash_plan_times_scale_with_time_scale():
    # At time_scale=0.5, a nominal-time-0.1 crash fires at 0.05s wall;
    # the run (0.64s of nominal work / 4 nodes at scale 0.5 ≈ 0.08s)
    # is still in flight, so the crash must actually land.
    loop = LoopSpec(name="steady", n_iterations=64, iteration_time=0.01,
                    dc_bytes=0)
    plan = FaultPlan.single_crash(node=3, time=0.1)
    stats = ProcessBackend(time_scale=0.5).run_loop(
        loop, _cluster(), "GDDLB", RunOptions(), fault_plan=plan)
    assert stats.crashed_nodes == (3,)


@pytest.mark.faults
@needs_dev_shm
def test_failing_salvage_raises_its_own_error_and_unlinks(monkeypatch):
    """A salvage burn that raises while its numpy row view is live:
    the run raises that error, not a ``BufferError`` from closing a
    block the view still pins, and the block is unlinked."""
    pytest.importorskip("numpy")
    owner, real, calls = os.getpid(), process.burn, []

    def burn(*args, **kwargs):
        if os.getpid() != owner:  # a forked child burns as ever
            return real(*args, **kwargs)
        calls.append(kwargs["out"] is not None)
        raise RuntimeError("salvage burn failed")

    monkeypatch.setattr(process, "burn", burn)
    before = set(os.listdir("/dev/shm"))
    loop = LoopSpec(name="steady", n_iterations=64, iteration_time=0.01,
                    dc_bytes=256)
    with pytest.raises(RuntimeError, match="salvage burn failed"):
        ProcessBackend(kernel="numpy").run_loop(
            loop, _cluster(), "GDDLB", RunOptions(),
            fault_plan=FaultPlan.single_crash(node=1, time=0.05))
    assert calls[:1] == [True]  # it burned into a row view
    assert set(os.listdir("/dev/shm")) <= before
    assert _segments() == []


@pytest.mark.faults
def test_non_crash_faults_stay_simulation_only():
    loop = mxm_loop(MxmConfig(16, 8, 8), op_seconds=4e-7)
    backend = ProcessBackend(time_scale=0.2)
    slow = FaultPlan(slowdowns=(SlowdownFault(node=1, time=0.1,
                                              duration=0.1),))
    drops = FaultPlan(drops=(MessageDropFault(probability=0.5),))
    for plan in (slow, drops):
        with pytest.raises(BackendError, match="simulation-only"):
            backend.run_loop(loop, _cluster(), "GCDLB", RunOptions(),
                             fault_plan=plan)


@pytest.mark.faults
@pytest.mark.parametrize("failure", ["crash", "fail_after"])
def test_waits_end_on_events_not_on_a_poll(monkeypatch, failure):
    """A crash or an erroring child is handled when it exits: with the
    supervision poll an hour long, both runs still end in seconds."""
    monkeypatch.setattr(base, "POLL_SECONDS", 3600.0)
    monkeypatch.setattr(process, "POLL_SECONDS", 3600.0, raising=False)
    release_cast()  # the next cast forks with the patched modules
    loop = LoopSpec(name="steady", n_iterations=64, iteration_time=0.01,
                    dc_bytes=32)
    backend = ProcessBackend(time_scale=1.0)
    t0 = time.perf_counter()
    if failure == "crash":
        stats = backend.run_loop(
            loop, _cluster(), "GCDLB", RunOptions(),
            fault_plan=FaultPlan.single_crash(node=1, time=0.05))
        assert stats.crashed_nodes == (1,)
    else:
        backend._fail_after = {1: 3}
        with pytest.raises(BackendError, match="worker 1 failed"):
            backend.run_loop(loop, _cluster(), "GCDLB", RunOptions())
    assert time.perf_counter() - t0 < 60.0


# -- shutdown contract ---------------------------------------------------
def test_worker_failure_tears_down_all_processes():
    backend = ProcessBackend(time_scale=1.0)
    backend._fail_after = {1: 3}  # node 1 raises mid-run
    loop = LoopSpec(name="steady", n_iterations=64, iteration_time=0.01,
                    dc_bytes=32)
    with pytest.raises(BackendError, match="worker 1 failed"):
        backend.run_loop(loop, _cluster(), "GCDLB", RunOptions())
    assert _no_orphans() == []


@needs_dev_shm
@pytest.mark.parametrize("failure", [None, "fail_after"])
def test_a_run_leaves_no_segment(failure):
    """The run's block is in /dev/shm while the run lives, and gone
    when it ends, clean or not."""
    backend = ProcessBackend(time_scale=1.0)
    backend._fail_after = {1: 3} if failure else {}
    seen = []
    options = RunOptions(on_execute=lambda node, ranges: seen.append(
        _segments()))
    loop = LoopSpec(name="steady", n_iterations=64, iteration_time=0.01,
                    dc_bytes=32)
    try:
        backend.run_loop(loop, _cluster(), "GCDLB", options)
    except BackendError as exc:
        assert failure and "worker 1 failed" in str(exc)
    else:
        assert not failure
    assert seen and all(len(names) == 1 for names in seen)
    assert _segments() == []


def _state(pid: int) -> str:
    """The kernel's one-letter state of ``pid`` (``R`` running, ``S``
    sleeping ...), from ``/proc``."""
    with open(f"/proc/{pid}/stat") as stat:
        return stat.read().rsplit(")", 1)[1].split()[0]


def test_clean_run_leaves_no_processes():
    """A clean run leaves exactly the resident cast — P workers and the
    balancer, alive and idle — and releasing the cast leaves nothing."""
    loop = mxm_loop(MxmConfig(32, 8, 8), op_seconds=4e-7)
    ProcessBackend(time_scale=0.2).run_loop(
        loop, _cluster(), "LCDLB", RunOptions())
    cast = [p for p in multiprocessing.active_children()
            if p.name.startswith("dlb-")]
    assert sorted(p.name for p in cast) == [
        "dlb-balancer", "dlb-node0", "dlb-node1", "dlb-node2", "dlb-node3"]
    assert all(p.is_alive() for p in cast)
    if os.path.exists("/proc/self/stat"):
        # Idle: blocked on its channel, not spinning.  A child that has
        # just sent its finish record may still be on its way there.
        deadline = time.monotonic() + 5.0
        while any(_state(p.pid) != "S" for p in cast):
            assert time.monotonic() < deadline, \
                [(p.name, _state(p.pid)) for p in cast]
            time.sleep(0.01)
    release_cast()
    assert _no_orphans() == []


# -- rejection surface ---------------------------------------------------
def test_process_backend_rejects_simulation_only_features():
    loop = mxm_loop(MxmConfig(16, 8, 8), op_seconds=4e-7)
    backend = ProcessBackend(time_scale=0.2)
    with pytest.raises(BackendError):
        backend.run_loop(loop, _cluster(), "CUSTOM", RunOptions())
    with pytest.raises(BackendError):
        backend.run_loop(loop, _cluster(), "WS", RunOptions())
    with pytest.raises(BackendError):
        backend.run_loop(loop, _cluster(), "GDDLB",
                         RunOptions(sync_mode="periodic"))
    with pytest.raises(BackendError):
        ProcessBackend(time_scale=0)
    with pytest.raises(ValueError):
        backend.run_loop(loop, _cluster(1), "GCDLB", RunOptions())
