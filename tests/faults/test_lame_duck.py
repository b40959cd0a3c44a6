"""A hardened central balancer ends with its last slave.

Once every group is done the simulated balancer stays on as a lame
duck, answering re-sent profiles with the cached instruction while any
slave lives.  It probes nobody then, so it must end when the last
slave's process does: ending a run must not wait on a failure
detector's timer (one ``liveness_timeout`` used to be added to every
such run's duration).
"""

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.runtime.options import FaultToleranceConfig, RunOptions

pytestmark = pytest.mark.faults

#: The runs whose balancer outlives the slaves: the central schemes,
#: and CUSTOM where it selects diffusion (the balancer retires after
#: the first synchronization and lingers for the rest of the run).
CELLS = [("GCDLB", "bus"), ("LCDLB", "bus"), ("GCDLB", "torus"),
         ("LCDLB", "torus"), ("CUSTOM", "torus")]


@pytest.mark.parametrize("seed", (7, 8, 9))
@pytest.mark.parametrize("strategy, topology", CELLS)
def test_hardened_run_ends_with_its_last_node(strategy, topology, seed):
    options = RunOptions(topology=topology, group_size=8,
                         fault_tolerance=FaultToleranceConfig(enabled=True))
    stats = run_loop(mxm_loop(MxmConfig(128, 32, 32), op_seconds=4e-7),
                     ClusterSpec.homogeneous(16, max_load=3, persistence=1.0,
                                             seed=seed),
                     strategy, options)
    last = max(stats.node_finish_times.values()) - stats.start_time
    # Nothing the balancer does after the last node finishes may take
    # longer than its own charged calculation.
    policy = options.policy
    charge = policy.delta_seconds + 2 * policy.context_switch_seconds
    assert last <= stats.duration <= last + charge
