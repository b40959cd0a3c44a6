"""Executed-range records: in bulk unless somebody needs each one.

``Reporter`` holds a fault-free run's executed ranges back and reports
them merged, ahead of the next record of any other kind; it streams one
record per iteration whenever a record can be lost (a crash plan, a
scripted kill, an armed hardened protocol) or is waited for (a
membership script fires on the executed count; ``serve`` tolerates
disconnects nobody announced).  ``prepare_run`` derives which, and the
WELCOME frame carries it.  Everything here is a count — no wall clock.
"""

from __future__ import annotations

import threading

import pytest

from repro import ClusterSpec
from repro.apps.workload import LoopSpec
from repro.backend import ProcessBackend, SocketBackend, ThreadBackend
from repro.backend import socket_hub
from repro.backend.driver import RunLedger, WorkerSpec, pairs, prepare_run
from repro.backend.socket import JoinEvent, KillEvent, LeaveEvent, run_worker
from repro.faults.plan import FaultPlan
from repro.runtime.assignment import check_coverage
from repro.runtime.options import FaultToleranceConfig, RunOptions

pytestmark = pytest.mark.usefixtures("short_watchdog")

N = 64
#: Cost rises 7x across the loop, so equal blocks start unbalanced and
#: every DLB run syncs at least once.
SKEW = LoopSpec("skew", N, tuple(0.5e-3 + 3e-3 * j / N for j in range(N)),
                dc_bytes=64)
STEADY = LoopSpec("steady", 120, 0.002, dc_bytes=8)


def _cluster(n):
    return ClusterSpec.homogeneous(n, max_load=0, persistence=1.0, seed=7)


@pytest.fixture
def booked(monkeypatch):
    """``(node, iterations)`` of every exec record a ledger books."""
    seen = []
    real = RunLedger.record

    def record(self, node, body, now):
        if body.get("k") == "exec":
            seen.append((node, sum(e - s for s, e in pairs(body["ranges"]))))
        return real(self, node, body, now)

    monkeypatch.setattr(RunLedger, "record", record)
    return seen


@pytest.fixture
def fired(monkeypatch):
    """The ledger's executed count at each firing of a script event."""
    counts = []
    real = socket_hub._Hub._fire_script

    def fire(self):
        before = len(self._fired)
        real(self)
        counts.extend([self.ledger.exec_total] * (len(self._fired) - before))

    monkeypatch.setattr(socket_hub._Hub, "_fire_script", fire)
    return counts


# -- derivation ---------------------------------------------------------------

def _streams(backend="socket", options=None, fault_plan=None, **kwargs):
    plan = prepare_run(backend, STEADY, (1.0, 1.0, 1.0), "GCDLB", options,
                       None, fault_plan, time_scale=1.0, **kwargs)
    assert len({w.stream_records for w in plan.workers}) == 1
    return plan.workers[0].stream_records


def test_prepare_run_streams_only_when_a_record_can_be_lost_or_is_awaited():
    assert not _streams()
    assert not _streams("thread")
    assert not _streams("process")
    assert _streams(fault_plan=FaultPlan.single_crash(node=1, time=0.05))
    assert _streams("process",
                    fault_plan=FaultPlan.single_crash(node=1, time=0.05))
    assert _streams(harden=True)
    assert _streams(options=RunOptions(
        fault_tolerance=FaultToleranceConfig(enabled=True)))
    assert _streams(watched=True)


def test_a_welcome_without_stream_records_streams():
    spec = prepare_run("socket", STEADY, (1.0, 1.0), "GCDLB", None, None,
                       None, time_scale=1.0).workers[1]
    run = spec.to_wire()
    assert run["stream_records"] is False
    assert WorkerSpec.from_wire(1, run) == spec
    del run["stream_records"]  # a hub that predates bulk reports
    assert WorkerSpec.from_wire(1, run).stream_records is True


# -- fault-free: bulk ---------------------------------------------------------

BACKENDS = {"thread": ThreadBackend, "process": ProcessBackend,
            "socket": SocketBackend}


@pytest.mark.parametrize("strategy", ["GCDLB", "GDDLB"])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_fault_free_run_reports_executed_ranges_in_bulk(backend, strategy,
                                                          booked):
    stats = BACKENDS[backend]().run_loop(SKEW, _cluster(2), strategy,
                                         RunOptions())
    assert stats.n_syncs >= 1
    assert sum(count for _node, count in booked) == N
    for node in range(2):
        records = [count for who, count in booked if who == node]
        assert 1 <= len(records) <= stats.n_syncs + 1
    check_coverage(stats.executed_by_node, N)


# -- anything that can lose a record, or waits for one: streamed --------------

def _one_per_iteration(booked, stats, n_iterations):
    assert booked and all(count == 1 for _node, count in booked)
    assert len(booked) + stats.salvaged_iterations >= n_iterations
    check_coverage(stats.executed_by_node, n_iterations)


@pytest.mark.faults
def test_a_scripted_kill_streams_and_fires_at_its_iteration(booked, fired):
    backend = SocketBackend(script=(KillEvent(node=2, after_iterations=30),))
    stats = backend.run_loop(STEADY, _cluster(3), "GCDLB", RunOptions())
    assert stats.crashed_nodes == (2,)
    assert fired == [30]
    _one_per_iteration(booked, stats, STEADY.n_iterations)


@pytest.mark.parametrize("strategy", ["GCDLB", "LDDLB"])
def test_a_membership_script_streams_and_fires_at_its_iterations(
        strategy, booked, fired):
    backend = SocketBackend(script=(JoinEvent(after_iterations=20),
                                    LeaveEvent(node=1, after_iterations=45)))
    stats = backend.run_loop(STEADY, _cluster(3), strategy, RunOptions())
    assert stats.joined_nodes == (3,) and stats.left_nodes == (1,)
    assert fired == [20, 45]
    _one_per_iteration(booked, stats, STEADY.n_iterations)


@pytest.mark.faults
@pytest.mark.parametrize("backend", ["process", "socket"])
def test_a_crash_plan_streams(backend, booked):
    loop = LoopSpec("steady", 48, 0.01, dc_bytes=64)
    stats = BACKENDS[backend]().run_loop(
        loop, _cluster(3), "GCDLB", RunOptions(),
        fault_plan=FaultPlan.single_crash(node=1, time=0.05))
    assert stats.crashed_nodes == (1,)
    _one_per_iteration(booked, stats, loop.n_iterations)


def test_serve_and_worker_end_to_end_streams(booked):
    """``repro balancer`` + two ``repro worker``: the hub cannot know
    who will hang up, so every iteration is reported as it happens."""
    ready = threading.Event()
    box = {}

    def serve():
        try:
            box["stats"] = SocketBackend().serve(
                STEADY, _cluster(2), "GCDLB", RunOptions(), port=0,
                on_ready=lambda port: (box.update(port=port), ready.set()))
        except BaseException as exc:  # noqa: BLE001 - asserted below
            box["error"] = exc
            ready.set()

    hub = threading.Thread(target=serve, daemon=True)
    hub.start()
    assert ready.wait(timeout=10.0) and "port" in box, box
    workers = [threading.Thread(target=run_worker, daemon=True,
                                args=("127.0.0.1", box["port"]))
               for _ in range(2)]
    for t in workers:
        t.start()
    for t in [hub, *workers]:
        t.join(timeout=20.0)
        assert not t.is_alive()
    assert "error" not in box, box
    _one_per_iteration(booked, box["stats"], STEADY.n_iterations)
    assert len(booked) == STEADY.n_iterations
