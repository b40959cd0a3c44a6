"""A crash early in a multi-loop application (``run_application``).

TRFD at N=8 on four nodes with node 2 crashing 1 ms in: every scheme
finishes the application.  GDDLB's run used to end with the
simulator's schedule drained while a process still awaited an event:
the first loop's unread traffic (the crashed node's interrupts,
profiles and probes, all at epoch 0) stayed in the mailboxes, and the
second loop, whose epochs start at 0 again, took it for its own.  A
finished loop now empties every mailbox.
"""

import pytest

from repro import ClusterSpec
from repro.apps.trfd import TrfdConfig, trfd_application
from repro.faults import FaultPlan
from repro.runtime.executor import run_application

pytestmark = pytest.mark.faults

SEEDS = (1, 2, 3, 4)


def _run(strategy: str, seed: int):
    return run_application(
        trfd_application(TrfdConfig(8)),
        ClusterSpec.homogeneous(4, max_load=3, seed=seed), strategy,
        fault_plan=FaultPlan.single_crash(2, 0.001))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ("GCDLB", "CUSTOM"))
def test_an_early_crash_leaves_the_application_complete(strategy, seed):
    _run(strategy, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_gddlb_survives_an_early_crash_in_an_application(seed):
    _run("GDDLB", seed)
