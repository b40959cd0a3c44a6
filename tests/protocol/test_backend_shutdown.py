"""Shutdown contract of the real-time backends.

A mid-run failure must never leave ``dlb-*`` worker threads or
processes behind: an orphan blocks interpreter exit (non-daemon
contexts) or hangs CI runners.  ThreadBackend aborts and joins every
thread before re-raising; ProcessBackend discards its resident cast —
terminates and joins every child — when a run fails (its own regression
lives in
``test_process_backend.py::test_worker_failure_tears_down_all_processes``).
"""

from __future__ import annotations

import itertools
import threading

import pytest

from repro import ClusterSpec
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.backend import BackendError, ThreadBackend
from repro.protocol import WorkerProtocol
from repro.runtime.options import RunOptions


def _cluster():
    return ClusterSpec.homogeneous(4, max_load=3, persistence=1.0, seed=7)


def _dlb_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("dlb-")]


def test_thread_worker_failure_joins_all_threads(monkeypatch):
    """One worker raising mid-compute aborts peers and joins the pack.

    The bomb counts ``note_work`` calls across *all* nodes: which node
    gets to execute how much depends on the schedule (a node can be
    interrupted before its first iteration at every sync and retire
    having executed nothing), but 48 iterations are executed by
    somebody, so the fifth one always happens.
    """
    original = WorkerProtocol.note_work
    calls = itertools.count(1)

    def bomb(self, cost):
        if next(calls) >= 5:
            raise RuntimeError("injected mid-run failure")
        return original(self, cost)

    monkeypatch.setattr(WorkerProtocol, "note_work", bomb)
    loop = mxm_loop(MxmConfig(48, 16, 16), op_seconds=4e-7)
    with pytest.raises((RuntimeError, BackendError)):
        ThreadBackend(time_scale=0.2).run_loop(
            loop, _cluster(), "GCDLB", RunOptions())
    assert _dlb_threads() == []


def test_thread_clean_run_leaves_no_threads():
    loop = mxm_loop(MxmConfig(32, 8, 8), op_seconds=4e-7)
    ThreadBackend(time_scale=0.2).run_loop(
        loop, _cluster(), "GDDLB", RunOptions())
    assert _dlb_threads() == []


def test_thread_ops_kernel_end_to_end():
    """The calibrated op-count kernel covers every iteration too."""
    loop = mxm_loop(MxmConfig(32, 8, 8), op_seconds=4e-7)
    stats = ThreadBackend(time_scale=0.2, kernel="ops").run_loop(
        loop, _cluster(), "LDDLB", RunOptions())
    executed = sum(stats.executed_count(n) for n in stats.executed_by_node)
    assert executed == 32
    with pytest.raises(BackendError, match="kernel"):
        ThreadBackend(kernel="quantum")
