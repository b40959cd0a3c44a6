"""The neighbour-local diffusion conversation, end to end in the DES.

A ``DIFF`` sync is a wave over topology edges, not an all-to-all burst:
these tests pin what it may send (O(|E|) one-hop messages per sweep),
that it still covers every iteration exactly once and terminates on
every graph family, and that a sweep is booked as one synchronization.
"""

import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.workload import LoopSpec
from repro.network.topology import Topology, resolve_topology
from repro.obs.trace import TraceRecorder
from repro.runtime.options import RunOptions

SEEDS = range(10)


def _bench_loop():
    return mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)


def _cluster(p, seed=7, max_load=3):
    return ClusterSpec.homogeneous(p, max_load=max_load, persistence=1.0,
                                   seed=seed)


def graph(kind: str, p: int):
    """A topology spec for ``run_loop``: a family name or a seeded
    random graph."""
    if kind == "random":
        return Topology.random_graph(p, extra_edges=p // 2, seed=p)
    return kind


def test_torus_sweep_costs_edges_not_pairs():
    """8x8 torus, |E| = 128: a sweep sends at most one interrupt and one
    profile per edge and direction, and at most 6|E| messages in all —
    where the all-to-all gather it replaces sent 2 P (P - 1) = 8064."""
    p, edges = 64, 128
    assert len(resolve_topology("torus", p).edges) == edges
    stats = run_loop(_bench_loop(), _cluster(p), "DIFF",
                     RunOptions(topology="torus"))
    sweeps = stats.n_syncs
    assert sweeps >= 1
    assert stats.messages_by_tag["interrupt"] <= 2 * edges * sweeps
    assert stats.messages_by_tag["profile"] <= 2 * edges * sweeps
    # Every node leaves once: at most one note per edge and direction.
    assert stats.messages_by_tag["control"] <= 2 * edges
    assert sum(stats.messages_by_tag.values()) <= 6 * edges * sweeps
    assert stats.network_messages <= 800


@pytest.mark.parametrize("p", [4, 9, 16, 64])
@pytest.mark.parametrize("kind", ["ring", "mesh", "torus", "random"])
def test_exactly_once_and_termination(kind, p):
    """``run_loop`` returning at all is termination; it raises
    ``CoverageError`` unless every iteration ran exactly once."""
    loop = LoopSpec(name="wave", n_iterations=96, iteration_time=0.004,
                    dc_bytes=400)
    for seed in SEEDS:
        stats = run_loop(loop, _cluster(p, seed, max_load=5), "DIFF",
                         RunOptions(topology=graph(kind, p)))
        executed = sum(stats.executed_count(n)
                       for n in stats.executed_by_node)
        assert executed == loop.n_iterations
        # Every node ends by leaving, each in exactly one sweep.
        left = [n for s in stats.syncs for n in s.retired]
        assert sorted(left) == list(range(p))


@pytest.mark.parametrize("hardened", [False, True])
@pytest.mark.parametrize("p", [4, 16, 64])
@pytest.mark.parametrize("kind", ["ring", "mesh", "torus", "random"])
def test_periodic_sweeps_run_on_every_nodes_own_clock(kind, p, hardened):
    """``sync_mode="periodic"``: no two neighbourhoods share an active
    set, so there is no clock they could agree on — every node stops at
    its own deadline and the wave does the rest.  A node that leaves
    takes no duty with it (the lowest-numbered one used to: the run
    then hung, or fenced the cleanly departed clock when hardened), and
    a node that multicasts nothing itself sends no interrupt twice."""
    loop = LoopSpec(name="tick", n_iterations=96, iteration_time=0.004,
                    dc_bytes=400)
    topology = graph(kind, p)
    edges = len(resolve_topology(topology, p).edges)
    options = RunOptions(topology=topology, sync_mode="periodic",
                         sync_period=0.02)
    if hardened:
        options = options.but(fault_tolerance=replace(
            options.fault_tolerance, enabled=True))
    for seed in range(5):
        stats = run_loop(loop, _cluster(p, seed, max_load=5), "DIFF",
                         options)
        assert sum(stats.executed_count(n)
                   for n in stats.executed_by_node) == loop.n_iterations
        # Nobody leaves twice (a node outliving all its neighbours ends
        # "lone", in no sweep at all).
        left = [n for s in stats.syncs for n in s.retired]
        assert len(left) == len(set(left))
        assert stats.declared_dead == () and stats.fenced_nodes == ()
        assert stats.messages_by_tag["interrupt"] \
            <= 2 * edges * stats.n_syncs


def test_one_sync_record_per_sweep():
    """64 nodes each report their part of a sweep; the run books one
    synchronization per epoch, whose moved work and transfer count are
    sums over the senders.  Sixteen iterations a node: with four, no
    edge's flow covers one of the dear tail iterations, so no sweep
    ships anything."""
    loop = LoopSpec(name="skew", n_iterations=1024, iteration_time=tuple(
        0.0005 + 0.004 * (i / 1024) for i in range(1024)), dc_bytes=400)
    stats = run_loop(loop, _cluster(64, max_load=5), "DIFF",
                     RunOptions(topology="torus"))
    epochs = [s.epoch for s in stats.syncs]
    assert epochs == sorted(set(epochs))
    assert stats.n_redistributions >= 1
    moved = [s for s in stats.syncs if s.n_transfers]
    assert all(s.reason == "diffused" and s.moved_work > 0 for s in moved)
    assert stats.messages_by_tag["work"] == \
        sum(s.n_transfers for s in stats.syncs)


def test_decision_instant_carries_the_sweeps_totals():
    """The trace's ``decision`` instant means one synchronization, as
    the record does: the whole sweep's moved work and transfer count
    (not the first reporter's share), at the time the sweep began."""
    loop = LoopSpec(name="skew", n_iterations=256, iteration_time=tuple(
        0.0005 + 0.004 * (i / 256) for i in range(256)), dc_bytes=400)
    recorder = TraceRecorder()
    stats = run_loop(loop, _cluster(16, max_load=5), "DIFF",
                     RunOptions(topology="torus", recorder=recorder))
    decisions = [e for e in recorder.events() if e["name"] == "decision"]
    assert [(e["ts"], e["args"]["epoch"], e["args"]["reason"],
             e["args"]["moved"], e["args"]["n_transfers"])
            for e in decisions] == \
        [(s.time, s.epoch, s.reason, s.moved_work, s.n_transfers)
         for s in stats.syncs]
    # ... which is what the nodes, between them, actually shipped.
    shipped = Counter(e["args"]["epoch"] for e in recorder.events()
                      if e["name"] == "redistribute")
    assert {e["args"]["epoch"]: e["args"]["n_transfers"]
            for e in decisions if e["args"]["n_transfers"]} == shipped
    assert max(shipped.values()) > 4  # more than any one node's share


def test_finished_run_is_freed_by_reference_counting():
    """With the cycle collector off, a run leaves nothing for it: the
    executor undoes the session / node / schedule / network
    back-references at teardown (7,013 unreachable objects here before
    it did, 4,961 under LDDLB).  The executor's pause of the collector
    rests on this; tests/runtime/test_run_lifetime.py has the grid."""
    loop, cluster = _bench_loop(), _cluster(64)
    options = RunOptions(topology="torus")
    for strategy in ("DIFF", "LDDLB"):
        run_loop(loop, cluster, strategy, options)  # warm caches
        gc.collect()
        gc.disable()
        try:
            run_loop(loop, cluster, strategy, options)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0, (strategy, unreachable)
