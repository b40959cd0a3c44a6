"""Cross-backend determinism and equivalence.

The protocol extraction must be invisible to the simulator: every
seeded statistic below was captured from the pre-refactor tree and the
:class:`SimBackend` must keep reproducing it bit-identically.  The
:class:`ThreadBackend` runs the same protocol on real threads, so its
durations are wall-clock (non-deterministic) — there we assert the
invariants instead: exactly-once iteration coverage, termination, and
the stats provenance tag.
"""

from __future__ import annotations

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.workload import LoopSpec
from repro.backend import (
    BackendError,
    ProcessBackend,
    SimBackend,
    ThreadBackend,
    get_backend,
)
from repro.faults.plan import FaultPlan
from repro.runtime.options import FaultToleranceConfig, RunOptions


def _mxm():
    return mxm_loop(MxmConfig(120, 100, 100), op_seconds=4e-7)


def _cluster():
    return ClusterSpec.homogeneous(4, max_load=3, persistence=1.0, seed=7)


#: (duration, n_syncs, network_messages, network_bytes) captured from
#: the seed tree before the protocol/backend split.
SEED_ORACLE = {
    "GCDLB": (0.4031058333333333, 2, 25, 9200),
    "GDDLB": (0.375, 2, 33, 9728),
    "LCDLB": (0.43220000000000003, 4, 19, 8120),
    "LDDLB": (0.3698623333333333, 3, 12, 7696),
    "CUSTOM": (0.5371101666666667, 3, 21, 9008),
    "NONE": (0.48, 0, 0, 0),
}


@pytest.mark.parametrize("strategy", sorted(SEED_ORACLE))
def test_sim_backend_bit_identical_to_seed(strategy):
    stats = run_loop(_mxm(), _cluster(), strategy, RunOptions())
    assert (stats.duration, stats.n_syncs, stats.network_messages,
            stats.network_bytes) == SEED_ORACLE[strategy]
    assert stats.backend == "sim"


def test_sim_backend_finish_times_unchanged():
    stats = run_loop(_mxm(), _cluster(), "GCDLB", RunOptions())
    assert sorted(stats.node_finish_times.values()) == [
        0.3986413333333333, 0.4011058333333333,
        0.4021058333333333, 0.4031058333333333]


def test_sim_backend_bit_identical_under_faults():
    """The hardened-protocol path must also survive the extraction."""
    options = RunOptions(
        fault_tolerance=FaultToleranceConfig(enabled=True))
    stats = run_loop(_mxm(), _cluster(), "GDDLB", options,
                     fault_plan=FaultPlan.single_crash(node=2, time=0.02))
    assert (stats.duration, stats.n_syncs, stats.network_messages,
            stats.fault_retries, stats.reclaimed_iterations,
            stats.salvaged_iterations) == \
        (13.019924666666666, 3, 49, 15, 30, 0)


def test_explicit_sim_backend_matches_default():
    default = run_loop(_mxm(), _cluster(), "LDDLB", RunOptions())
    routed = run_loop(_mxm(), _cluster(), "LDDLB", RunOptions(),
                      backend="sim")
    explicit = SimBackend().run_loop(_mxm(), _cluster(), "LDDLB",
                                     RunOptions())
    for stats in (routed, explicit):
        assert stats.duration == default.duration
        assert stats.n_syncs == default.n_syncs
        assert stats.network_bytes == default.network_bytes


def test_get_backend_resolution():
    assert get_backend(None).name == "sim"
    assert get_backend("sim").name == "sim"
    assert get_backend("thread").name == "thread"
    assert get_backend("process").name == "process"
    assert get_backend("socket").name == "socket"
    backend = ThreadBackend()
    assert get_backend(backend) is backend
    with pytest.raises(BackendError):
        get_backend("mpi")


def _real_backend(name):
    if name == "thread":
        return ThreadBackend(time_scale=0.2)
    return ProcessBackend(time_scale=0.2)


@pytest.mark.parametrize("backend_name", ["thread", "process"])
@pytest.mark.parametrize("strategy", ["GCDLB", "GDDLB", "LCDLB", "LDDLB"])
def test_real_backend_exactly_once(backend_name, strategy):
    """Real threads/processes, real queues: every iteration executed
    exactly once, all four strategies terminate, stats carry
    provenance."""
    loop = mxm_loop(MxmConfig(48, 16, 16), op_seconds=4e-7)
    stats = run_loop(loop, _cluster(), strategy, RunOptions(),
                     backend=_real_backend(backend_name))
    assert stats.backend == backend_name
    executed = sum(stats.executed_count(node)
                   for node in stats.executed_by_node)
    assert executed == loop.n_iterations
    assert stats.duration > 0.0
    assert len(stats.node_finish_times) == 4


@pytest.mark.parametrize("topology,p", [("ring", 4), ("mesh", 9)])
def test_thread_backend_diffusion_syncs_with_neighbours(topology, p):
    """DIFF on real threads: each worker's ``members`` are its closed
    topology neighbourhood — on the 3x3 mesh nobody even knows the
    whole group — and the wave still covers every iteration once, with
    one synchronization booked per sweep."""
    loop = LoopSpec(name="skew", n_iterations=72, iteration_time=tuple(
        0.0005 + 0.004 * (i / 72) for i in range(72)), dc_bytes=256)
    cluster = ClusterSpec.homogeneous(p, max_load=0)
    stats = run_loop(loop, cluster, "DIFF", RunOptions(topology=topology),
                     backend=ThreadBackend(time_scale=0.5))
    executed = sorted(r for ranges in stats.executed_by_node.values()
                      for r in ranges)
    assert executed[0][0] == 0 and executed[-1][1] == loop.n_iterations
    assert all(a[1] == b[0] for a, b in zip(executed, executed[1:]))
    assert len(stats.node_finish_times) == p
    epochs = [s.epoch for s in stats.syncs]
    assert epochs and len(epochs) == len(set(epochs))
    assert sorted(n for s in stats.syncs for n in s.retired) == \
        list(range(p))
    # Neighbour traffic only: far fewer than the 2 P (P - 1) per sync of
    # an all-to-all gather, however many sweeps the wave took.
    edges = {"ring": 4, "mesh": 12}[topology]
    assert stats.messages_by_tag["profile"] <= 2 * edges * len(epochs)
    assert stats.messages_by_tag["interrupt"] <= 2 * edges * len(epochs)


def test_thread_backend_rejects_simulation_only_features():
    loop = mxm_loop(MxmConfig(16, 8, 8), op_seconds=4e-7)
    backend = ThreadBackend(time_scale=0.2)
    with pytest.raises(BackendError):
        backend.run_loop(loop, _cluster(), "CUSTOM", RunOptions())
    with pytest.raises(BackendError):
        backend.run_loop(loop, _cluster(), "WS", RunOptions())
    with pytest.raises(BackendError):
        backend.run_loop(loop, _cluster(), "GDDLB", RunOptions(),
                         fault_plan=FaultPlan.single_crash(node=1,
                                                           time=0.01))
    with pytest.raises(BackendError):
        backend.run_loop(
            loop, _cluster(), "GDDLB",
            RunOptions(fault_tolerance=FaultToleranceConfig(enabled=True)))
