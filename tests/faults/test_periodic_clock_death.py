"""A live periodic member must not be fenced because its group's clock died.

Under ``sync_mode="periodic"`` a member that has finished its block
waits for its clock's interrupt, and takes no notice of anything else.
When the clock crashes, the central balancer's liveness probe
(``resend-profile``) is what reaches that member; before its first sync
it has no profile to answer with, so after ``max_retries`` unanswered
probes the balancer declares the live member dead and fences it.  With
the default interrupt-based sync the same crash is declared alone.

The fix the fault calls for — the waiting member takes the probe as its
interrupt, as a computing member does — fences nobody in these cells,
but it moves six cells of ``tests/runtime/test_run_lifetime.py``
(GC and CUSTOM, periodic, drop plan 2, P=16, every topology) onto a
timeline where a node's instruction and its last re-sent profile are
both dropped and the run ends in ``ProtocolRetryExhausted`` (ROADMAP
item 4).  Until that is mended these cells pin the fault: strict, so the
fix that lands must remove the mark.
"""

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.faults.plan import CrashFault, FaultPlan
from repro.runtime.options import RunOptions

pytestmark = [
    pytest.mark.faults,
    pytest.mark.xfail(strict=True, reason=(
        "open fault, ROADMAP item 4: a finished periodic member ignores "
        "the balancer's probe while its clock is dead")),
]


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
