"""One run ledger for all four backends.

``RunLedger`` is where every backend books a run: the executed ranges —
and the ``RunOptions.on_execute`` callback with them — and one record
per synchronization, whose one ``decision`` trace instant it writes on
the ``balancer`` track.  The simulator's side is pinned by the digest
files and ``tests/runtime/test_session_balancer.py``; these are the real
backends, where the callback used to be silently skipped and the
instant was one per replica on the replicas' own tracks.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro import ClusterSpec
from repro.apps.workload import LoopSpec
from repro.backend import ProcessBackend, SocketBackend, ThreadBackend
from repro.faults.plan import FaultPlan
from repro.obs import TraceRecorder
from repro.runtime.assignment import merge_ranges
from repro.runtime.options import RunOptions

pytestmark = pytest.mark.usefixtures("short_watchdog")

N = 64
#: Cost rises 7x across the loop, so equal blocks start unbalanced and
#: every DLB run syncs at least once.
SKEW = LoopSpec("skew", N, tuple(0.5e-3 + 3e-3 * j / N for j in range(N)),
                dc_bytes=64)
BACKENDS = {"thread": ThreadBackend, "process": ProcessBackend,
            "socket": SocketBackend}


def _cluster(n):
    return ClusterSpec.homogeneous(n, max_load=0, persistence=1.0, seed=7)


@pytest.mark.parametrize("backend, fault_plan", [
    ("thread", None), ("process", None), ("socket", None),
    pytest.param("process", FaultPlan.single_crash(node=1, time=0.02),
                 marks=pytest.mark.faults, id="process-salvaged"),
])
def test_on_execute_sees_every_iteration_exactly_once(backend, fault_plan):
    seen = defaultdict(list)
    options = RunOptions(
        on_execute=lambda node, ranges: seen[node].extend(ranges))
    stats = BACKENDS[backend]().run_loop(SKEW, _cluster(3), "GDDLB",
                                         options, fault_plan=fault_plan)
    assert stats.n_syncs >= 1
    # merge_ranges raises on an overlap: the callback's ranges tile the
    # loop, and each lands on the node the stats credit.
    assert merge_ranges(r for ranges in seen.values() for r in ranges) \
        == [(0, N)]
    assert {node: merge_ranges(r) for node, r in seen.items()} == \
        {node: merge_ranges(r) for node, r in stats.executed_by_node.items()}


@pytest.mark.parametrize("backend, strategy, topology", [
    *[(backend, strategy, None) for backend in sorted(BACKENDS)
      for strategy in ("GCDLB", "GDDLB")],
    ("thread", "DIFF", "ring"),
])
def test_one_decision_instant_per_sync(backend, strategy, topology):
    recorder = TraceRecorder()
    stats = BACKENDS[backend]().run_loop(
        SKEW, _cluster(4), strategy,
        RunOptions(topology=topology, recorder=recorder))
    decisions = [e for e in recorder.events() if e["name"] == "decision"]
    assert stats.n_syncs >= 1
    assert {(e["ph"], e["track"]) for e in decisions} == {("i", "balancer")}
    # The simulator's shape: no replica's node id, nothing per backend.
    assert all(set(e["args"]) == {"group", "epoch", "reason", "moved",
                                  "n_transfers"} for e in decisions)
    assert sorted((e["args"]["group"], e["args"]["epoch"], e["args"]["reason"],
                   e["args"]["moved"], e["args"]["n_transfers"])
                  for e in decisions) == \
        sorted((s.group, s.epoch, s.reason, s.moved_work, s.n_transfers)
               for s in stats.syncs)
