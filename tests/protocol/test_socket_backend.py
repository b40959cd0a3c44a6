"""SocketBackend: the DLB protocol over real TCP on localhost.

The cross-backend suite pins exactly-once coverage for the in-process
backends; this file covers what is *specific* to sockets — the hub/star
transport, the per-frame-type byte ledger, elastic membership (a worker
joining mid-run, a planned departure, a killed connection), the
procs-workers mode, export of the new transport columns, and the
rejection surface for simulation-only features.

Everything runs on 127.0.0.1 with ephemeral ports, so the suite is safe
on network-less CI runners.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.workload import LoopSpec
from repro.backend import BackendError, SocketBackend
from repro.backend import socket_client, socket_hub
from repro.backend.socket import JoinEvent, KillEvent, LeaveEvent
from repro.experiments.export import run_to_csv, run_to_json
from repro.faults.plan import FaultPlan, MessageDropFault, SlowdownFault
from repro.message.frames import FrameType, encode_frame
from repro.message.messages import Tag
from repro.protocol import AwaitMessage
from repro.runtime.options import RunOptions


pytestmark = pytest.mark.usefixtures("short_watchdog")


def _cluster(n=4):
    return ClusterSpec.homogeneous(n, max_load=3, persistence=1.0, seed=7)


def _mxm(iters=48):
    return mxm_loop(MxmConfig(iters, 16, 16), op_seconds=4e-7)


def _steady(n_iterations=200, cost=0.002):
    """Uniform 2 ms iterations: compute dominates protocol latency, so
    membership events that fire mid-run leave a joiner/grantee enough
    remaining work to matter."""
    return LoopSpec(name="steady", n_iterations=n_iterations,
                    iteration_time=cost, dc_bytes=8)


def _executed(stats):
    return sum(stats.executed_count(n) for n in stats.executed_by_node)


def _no_orphans():
    return [p.name for p in multiprocessing.active_children()
            if p.name.startswith("dlb-sock")]


# -- exactly-once over TCP, all strategies -------------------------------
@pytest.mark.parametrize("strategy", ["GCDLB", "GDDLB", "LCDLB", "LDDLB",
                                      "NONE"])
def test_socket_backend_exactly_once(strategy):
    loop = _mxm(64)
    stats = run_loop(loop, _cluster(), strategy, RunOptions(),
                     backend=SocketBackend(time_scale=0.1))
    assert stats.backend == "socket"
    assert _executed(stats) == loop.n_iterations
    assert stats.duration > 0.0
    assert len(stats.node_finish_times) == 4
    # Every strategy moves real bytes through the hub, and the ledger
    # splits them by frame type.
    assert stats.transport_payload_bytes > 0
    assert stats.payload_by_frame
    assert sum(stats.payload_by_frame.values()) == \
        stats.transport_payload_bytes
    expected = ["HELLO", "WELCOME", "STAT", "BYE"]
    if strategy != "NONE":  # NONE never exchanges protocol messages
        expected.append("MSG")
    for name in expected:
        assert stats.payload_by_frame[name] > 0


def test_workers_as_processes_end_to_end():
    stats = SocketBackend(time_scale=0.1, workers="procs").run_loop(
        _mxm(48), _cluster(3), "GCDLB", RunOptions())
    assert _executed(stats) == 48
    assert len(stats.node_finish_times) == 3
    assert _no_orphans() == []


# -- elastic membership: join --------------------------------------------
def test_join_mid_run_centralized():
    """A worker that dials in mid-run is admitted by the balancer and is
    handed real work through the §3.1 receiver-initiated sync."""
    backend = SocketBackend(script=(JoinEvent(after_iterations=30),))
    stats = backend.run_loop(_steady(200), _cluster(), "GCDLB",
                             RunOptions())
    assert _executed(stats) == 200
    assert stats.joined_nodes == (4,)
    assert stats.executed_count(4) > 0  # the joiner really computed
    assert stats.left_nodes == ()
    assert stats.crashed_nodes == ()


def test_join_mid_run_distributed():
    """Distributed schemes fence the join on a future profile epoch; the
    fence may never be reached, so the joiner may legitimately execute
    nothing — coverage and the membership record are the contract."""
    backend = SocketBackend(script=(JoinEvent(after_iterations=20),))
    stats = backend.run_loop(_steady(200), _cluster(), "GDDLB",
                             RunOptions())
    assert _executed(stats) == 200
    assert stats.joined_nodes == (4,)
    assert "MEMBER" in stats.payload_by_frame
    # One BYE per peer, a dismissed straggler's included.
    assert stats.payload_by_frame["BYE"] == \
        5 * len(encode_frame(FrameType.BYE))


# -- elastic membership: planned leave -----------------------------------
@pytest.mark.parametrize("strategy", ["GCDLB", "LDDLB"])
def test_planned_leave_hands_work_back(strategy):
    backend = SocketBackend(
        script=(LeaveEvent(node=1, after_iterations=30),))
    stats = backend.run_loop(_steady(200), _cluster(), strategy,
                             RunOptions())
    assert _executed(stats) == 200
    assert stats.left_nodes == (1,)
    assert stats.crashed_nodes == ()
    # A planned departure hands its residual ranges back over the wire;
    # nothing is lost, so nothing needs post-hoc salvage.
    assert stats.salvaged_iterations == 0
    assert "LEAVE" in stats.payload_by_frame
    assert "DEATH" in stats.payload_by_frame  # the planned announcement


# -- elastic membership: crash (killed connection) -----------------------
@pytest.mark.faults
@pytest.mark.parametrize("strategy", ["GCDLB", "LDDLB"])
def test_killed_connection_salvaged_exactly_once(strategy):
    backend = SocketBackend(
        script=(KillEvent(node=2, after_iterations=30),))
    stats = backend.run_loop(_steady(200), _cluster(), strategy,
                             RunOptions())
    assert stats.crashed_nodes == (2,)
    assert _executed(stats) == 200
    assert 2 not in stats.node_finish_times


@pytest.mark.faults
def test_timed_crash_fault_plan_lifted():
    """FaultPlan crash faults (wall-clock timed) work like the process
    backend's, on top of the script-event path."""
    plan = FaultPlan.single_crash(node=1, time=0.05)
    stats = SocketBackend(time_scale=1.0).run_loop(
        LoopSpec(name="steady", n_iterations=64, iteration_time=0.01,
                 dc_bytes=64),
        _cluster(), "GCDLB", RunOptions(), fault_plan=plan)
    assert stats.crashed_nodes == (1,)
    assert _executed(stats) == 64


# -- completion is heard of, not polled for ------------------------------
@pytest.fixture
def evaluations(monkeypatch):
    """One entry per evaluation of the hub's completion predicates."""
    calls = []
    real = socket_hub._Hub._check_done

    def check_done(self):
        calls.append(self.done.is_set())
        real(self)

    monkeypatch.setattr(socket_hub._Hub, "_check_done", check_done)
    return calls


def test_completion_evaluations_do_not_grow_with_the_run(evaluations):
    """A tick would evaluate 8x as often in a run 8x as long."""
    counts = {}
    for scale in (1.0, 8.0):
        evaluations.clear()
        stats = SocketBackend(time_scale=scale).run_loop(
            _steady(40), _cluster(2), "GCDLB", RunOptions())
        assert _executed(stats) == 40
        counts[scale] = len(evaluations)
    assert counts[1.0] == counts[8.0]
    # 2 registrations + 2 finishes + the balancer's all_done and its
    # finish record + the report that completes coverage.
    assert 4 <= counts[1.0] <= 2 + 2 + 2 + 1


def test_watchdog_reports_what_the_hub_knows(monkeypatch):
    """Nobody ever dials in: the one deadline armed at start() fires
    and says who registered, who is active and what is missing."""
    monkeypatch.setattr(socket_hub, "WATCHDOG_SECONDS", 0.1)
    with pytest.raises(BackendError) as failure:
        SocketBackend().serve(_steady(40), _cluster(2), "GCDLB",
                              RunOptions(), port=0)
    text = str(failure.value)
    for part in ("hub watchdog: run never completed in 0.2s",
                 "registered 0/2", "peers {}",
                 "group_active={0: [0, 1]} all_done=False",
                 "bal_done=False", "executed 0/40",
                 "first uncovered [(0, 40)]", "drain grace not armed"):
        assert part in text


def _takes(mbox):
    """Count the passes of ``_ClientMailbox.get``'s loop."""
    passes = []
    real = mbox.inbox.take

    def take(spec):
        passes.append(time.perf_counter())
        return real(spec)

    mbox.inbox.take = take
    return passes


def test_a_fault_free_wait_sleeps_to_its_own_deadline():
    async def wait():
        mbox = socket_client._ClientMailbox()
        passes = _takes(mbox)
        got = await mbox.get(AwaitMessage((Tag.WORK,), timeout=0.3))
        return got, len(passes)

    got, passes = asyncio.run(wait())
    assert got is None
    assert passes <= 3  # one per wake-up; a 50 ms tick took seven


def test_a_wait_ends_at_the_crash_instant_when_one_is_armed():
    async def wait():
        mbox = socket_client._ClientMailbox()
        passes = _takes(mbox)
        mbox.crash_at = time.perf_counter() + 0.05
        with pytest.raises(socket_client._AbruptStop):
            await mbox.get(AwaitMessage((Tag.WORK,), timeout=30.0))
        return len(passes)

    assert asyncio.run(wait()) <= 3


# -- stats export --------------------------------------------------------
def test_export_carries_frame_split():
    stats = run_loop(_mxm(48), _cluster(3), "GCDLB", RunOptions(),
                     backend=SocketBackend(time_scale=0.1))
    csv_text = run_to_csv(stats)
    header, row = csv_text.strip().splitlines()
    assert "payload_by_frame" in header.split(",")
    cell = dict(zip(header.split(","), row.split(","))) \
        ["payload_by_frame"].strip('"')
    parsed = dict(item.split("=") for item in cell.split(";"))
    assert int(parsed["MSG"]) > 0

    import json
    doc = json.loads(run_to_json(stats))
    assert doc["payload_by_frame"]["MSG"] == stats.payload_by_frame["MSG"]
    assert doc["joined_nodes"] == []
    assert doc["left_nodes"] == []


# -- rejection surface ---------------------------------------------------
def test_socket_backend_rejects_simulation_only_features():
    loop = _mxm(16)
    backend = SocketBackend(time_scale=0.2)
    with pytest.raises(BackendError):
        backend.run_loop(loop, _cluster(), "CUSTOM", RunOptions())
    with pytest.raises(BackendError):
        backend.run_loop(loop, _cluster(), "WS", RunOptions())
    with pytest.raises(BackendError):
        backend.run_loop(loop, _cluster(), "GDDLB",
                         RunOptions(sync_mode="periodic"))
    slow = FaultPlan(slowdowns=(SlowdownFault(node=1, time=0.1,
                                              duration=0.1),))
    drops = FaultPlan(drops=(MessageDropFault(probability=0.5),))
    for plan in (slow, drops):
        with pytest.raises(BackendError, match="simulation-only"):
            backend.run_loop(loop, _cluster(), "GCDLB", RunOptions(),
                             fault_plan=plan)
    with pytest.raises(BackendError):
        SocketBackend(time_scale=0)
    with pytest.raises(BackendError):
        SocketBackend(workers="threads")
    with pytest.raises(ValueError):
        backend.run_loop(loop, _cluster(1), "GCDLB", RunOptions())
