"""Shared helpers for the pure-protocol test suite.

These tests drive :mod:`repro.protocol` state machines with
hand-written event scripts — no simulator, no threads, no clock.
"""

from __future__ import annotations

import pytest

from repro.apps.workload import WorkTable
from repro.core.policy import DlbPolicy
from repro.protocol import WorkerProtocol
from repro.runtime.assignment import Assignment
from repro.runtime.options import FaultToleranceConfig

#: Uniform 10 ms iterations; 64 of them.
N_ITER = 64
COST = 0.010


@pytest.fixture
def table() -> WorkTable:
    return WorkTable(COST, n_iterations=N_ITER)


@pytest.fixture
def short_watchdog(monkeypatch):
    """The socket hub's watchdog fires at twice this: a transition that
    forgets to re-evaluate completion fails its test in 5 s, not 240.
    A worker waits for the hub's BYE that long too."""
    from repro.backend import socket_client, socket_hub
    for module in (socket_hub, socket_client):
        monkeypatch.setattr(module, "WATCHDOG_SECONDS", 2.5)


def make_worker(me, members, *, centralized, table, ranges=(),
                ft: FaultToleranceConfig | None = None,
                group: int = 0, is_dlb: bool = True,
                planner=None) -> WorkerProtocol:
    return WorkerProtocol(
        me, members, group=group, centralized=centralized, lb_host=0,
        policy=DlbPolicy(), table=table, dc_bytes=100, planner=planner,
        ft=ft, assignment=Assignment(ranges), is_dlb=is_dlb)


def only(commands, kind):
    """The single command of ``kind`` in ``commands`` (assert exactly one)."""
    found = [c for c in commands if isinstance(c, kind)]
    assert len(found) == 1, f"expected one {kind.__name__} in {commands}"
    return found[0]


def all_of(commands, kind):
    return [c for c in commands if isinstance(c, kind)]
