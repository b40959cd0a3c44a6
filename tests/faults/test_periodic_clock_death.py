"""A live periodic member must not be fenced because its group's clock died.

Under ``sync_mode="periodic"`` a member that has finished its block
waits for its clock's interrupt.  When the clock crashes, the central
balancer's liveness probe (``resend-profile``) is what reaches that
member; it takes the probe as the interrupt that got lost, as a
computing member does, and profiles.  It used to wait for the interrupt
only and answer the probe from its cache — before its first sync with
nothing, after it with a stale profile — so the balancer declared the
live member dead and fenced it.  With the default interrupt-based sync
the same crash is declared alone.

The second half are drop-and-crash plans on the lifetime loop (P = 8,
bus, period 0.01) that used to end in ``ProtocolRetryExhausted``: a
member whose interrupt was dropped answered the probe with a stale
profile and was neither heard nor declared.
"""

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.workload import LoopSpec
from repro.faults.plan import CrashFault, FaultPlan
from repro.runtime.options import RunOptions

pytestmark = pytest.mark.faults


@pytest.mark.parametrize("period", (0.003, 0.01))
@pytest.mark.parametrize("group_size, clock", [(4, 4), (2, 2), (2, 4), (2, 6)])
def test_a_dead_clock_fences_no_live_member(group_size, clock, period):
    stats = run_loop(
        mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7),
        ClusterSpec.homogeneous(8, max_load=3, persistence=1.0, seed=7),
        "LCDLB",
        RunOptions(group_size=group_size, sync_mode="periodic",
                   sync_period=period),
        fault_plan=FaultPlan(seed=5, crashes=(
            CrashFault(node=clock, time=0.002),)))
    assert stats.crashed_nodes == (clock,)
    assert stats.fenced_nodes == ()
    assert stats.declared_dead == (clock,)


@pytest.mark.parametrize("strategy, plan_seed", [
    ("GC", 2), ("LC", 1), ("LC", 2), ("LC", 4), ("LC", 5)])
def test_a_dropped_interrupt_fences_no_live_member(strategy, plan_seed):
    stats = run_loop(
        LoopSpec(name="lifetime", n_iterations=64, iteration_time=0.010,
                 dc_bytes=800),
        ClusterSpec.homogeneous(8, max_load=3, persistence=0.5, seed=7),
        strategy,
        RunOptions(topology="bus", sync_mode="periodic", sync_period=0.01),
        fault_plan=FaultPlan.random_plan(plan_seed, 8, 0.3, n_crashes=1,
                                         n_slowdowns=1,
                                         drop_probability=0.05))
    assert stats.fenced_nodes == ()
