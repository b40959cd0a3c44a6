"""Property (b): exactly-once coverage on graph topologies under crashes.

The fault-hardened protocol was built against the shared bus; these
tests pin that its guarantees — every iteration executed exactly once,
crash victims reclaimed, the loop terminating on the survivors — are
topology-independent.  Diffusion rides the same WORK-parcel ledger as
the eq.-3 strategies, so it is parametrized alongside them; its own
neighbour-local conversation is run under seeded crash and drop plans
on every graph family at the end.
"""

from dataclasses import replace

import pytest

from repro.apps.workload import LoopSpec
from repro.faults import CrashFault, FaultPlan, MessageDropFault
from repro.machine.cluster import ClusterSpec
from repro.network.topology import Topology
from repro.runtime.executor import run_loop

from .conftest import assert_exact_coverage

pytestmark = pytest.mark.faults

TOPOLOGIES = ("ring", "mesh", "torus")
SCHEMES = ("GDDLB", "LDDLB", "DIFF")


def _hardened(options):
    return options.but(fault_tolerance=replace(
        options.fault_tolerance, enabled=True))


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_crash_exactly_once_on_graph(scheme, topology, ft_loop, cluster4,
                                     ft_options):
    """Crash a worker mid-run on a switched graph: total work must still
    be executed exactly once across the survivors."""
    options = ft_options.but(topology=topology)
    baseline = run_loop(ft_loop, cluster4, scheme,
                        options=_hardened(options))
    assert baseline.syncs, "loop too small to sync: test is vacuous"
    crash_time = baseline.syncs[0].time + 1e-4
    plan = FaultPlan.single_crash(node=2, time=crash_time)
    stats = run_loop(ft_loop, cluster4, scheme, options=options,
                     fault_plan=plan)
    assert_exact_coverage(stats, ft_loop)
    assert stats.crashed_nodes == (2,)
    assert 2 in stats.declared_dead


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_diffusion_crash_before_first_sync(topology, ft_loop, cluster4,
                                           ft_options):
    """The victim dies while its whole initial block is outstanding;
    diffusion's neighbor-only flows must not strand the reclaimed work."""
    options = ft_options.but(topology=topology)
    baseline = run_loop(ft_loop, cluster4, "DIFF",
                        options=_hardened(options))
    assert baseline.syncs
    crash_time = 0.5 * baseline.syncs[0].time
    plan = FaultPlan.single_crash(node=1, time=crash_time)
    stats = run_loop(ft_loop, cluster4, "DIFF", options=options,
                     fault_plan=plan)
    assert_exact_coverage(stats, ft_loop)
    assert stats.reclaimed_iterations > 0


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_fault_free_diffusion_covers_exactly_once(topology, ft_loop,
                                                  cluster4, ft_options):
    """Control: without faults, diffusion on a graph is also
    exactly-once (redistribution itself neither loses nor duplicates)."""
    stats = run_loop(ft_loop, cluster4, "DIFF",
                     options=ft_options.but(topology=topology))
    assert_exact_coverage(stats, ft_loop)
    assert stats.n_syncs > 0


# -- the neighbour-local wave under crash and drop plans -----------------

def _graph(kind, p):
    if kind == "random":
        return Topology.random_graph(p, extra_edges=p // 2, seed=p)
    return kind


@pytest.mark.parametrize("p", [4, 9, 16, 64])
@pytest.mark.parametrize("kind", ["ring", "mesh", "torus", "random"])
def test_diffusion_wave_survives_crash_and_drop_plans(kind, p, ft_options):
    """A node's death is only ever noticed by its neighbours, and every
    message of the wave — interrupt, profile, parcel, retire note — may
    be the one that is lost: each seeded plan must still end (no live
    node waits for a message nobody will send) with exact coverage."""
    loop = LoopSpec(name="ft-wave", n_iterations=96, iteration_time=0.010,
                    dc_bytes=800)
    options = ft_options.but(topology=_graph(kind, p))
    for seed in range(10):
        cluster = ClusterSpec.homogeneous(p, max_load=5, persistence=0.5,
                                          seed=seed)
        tag = ("control", "interrupt", "profile", "work", None)[seed % 5]
        plans = (
            FaultPlan(seed=seed, crashes=(
                CrashFault(node=1 + seed % (p - 1),
                           time=0.03 + 0.03 * seed),)),
            FaultPlan(seed=seed, drops=(
                MessageDropFault(probability=1.0, max_drops=3, tag=tag),)),
        )
        for plan in plans:
            stats = run_loop(loop, cluster, "DIFF", options=options,
                             fault_plan=plan)
            assert_exact_coverage(stats, loop)


@pytest.mark.parametrize("kind", ["ring", "mesh", "torus", "random"])
def test_periodic_diffusion_survives_crash_and_drop_plans(kind, ft_options):
    """The periodic ablation of the wave: every node is its own clock,
    so neither a crashed nor a departed node takes the trigger with it,
    and an idling finisher that misses an interrupt syncs at its own
    deadline anyway."""
    p = 9
    loop = LoopSpec(name="ft-tick", n_iterations=96, iteration_time=0.010,
                    dc_bytes=800)
    options = ft_options.but(topology=_graph(kind, p),
                             sync_mode="periodic", sync_period=0.05)
    for seed in range(10):
        cluster = ClusterSpec.homogeneous(p, max_load=5, persistence=0.5,
                                          seed=seed)
        victim = 1 + seed % (p - 1)
        crash = FaultPlan(seed=seed, crashes=(
            CrashFault(node=victim, time=0.03 + 0.03 * seed),))
        stats = run_loop(loop, cluster, "DIFF", options=options,
                         fault_plan=crash)
        assert_exact_coverage(stats, loop)
        assert set(stats.fenced_nodes) <= {victim}
        drop = FaultPlan(seed=seed, drops=(MessageDropFault(
            probability=1.0, max_drops=3,
            tag=("control", "interrupt", "profile", "work", None)[seed % 5]),))
        stats = run_loop(loop, cluster, "DIFF", options=options,
                         fault_plan=drop)
        assert_exact_coverage(stats, loop)
        assert stats.fenced_nodes == ()


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_lost_retire_notes_are_healed_by_the_resend_service(topology,
                                                            ft_loop,
                                                            ft_options):
    """Every ``retire`` note is CONTROL traffic, and so is the
    ``resend-profile`` probe that recovers one: with the first six lost,
    the waiting neighbours must still learn of the departures without
    fencing anybody."""
    cluster = ClusterSpec.homogeneous(9, max_load=5, persistence=0.5,
                                      seed=3)
    plan = FaultPlan(seed=5, drops=(
        MessageDropFault(probability=1.0, max_drops=6, tag="control"),))
    stats = run_loop(ft_loop, cluster, "DIFF",
                     options=ft_options.but(topology=topology),
                     fault_plan=plan)
    assert_exact_coverage(stats, ft_loop)
    assert stats.dropped_messages == 6
    assert stats.fenced_nodes == ()
    assert stats.fault_retries > 0
