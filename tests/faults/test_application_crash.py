"""A crash early in a multi-loop application (``run_application``).

TRFD at N=8 on four nodes with node 2 crashing 1 ms in: the centralized
scheme and CUSTOM finish the application, but GDDLB's run ends with the
simulator's schedule drained while a process still awaits an event.
The ``xfail`` is strict, so the day that defect is fixed this file
fails until the marker goes (ROADMAP item 7).
"""

import pytest

from repro import ClusterSpec
from repro.apps.trfd import TrfdConfig, trfd_application
from repro.faults import FaultPlan
from repro.runtime.executor import run_application
from repro.simulation.errors import SimulationError

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


@pytest.mark.xfail(raises=SimulationError, strict=True,
                   reason="GDDLB drains the schedule after an early crash "
                          "in a staged application (ROADMAP item 7)")
@pytest.mark.parametrize("seed", SEEDS)
def test_gddlb_survives_an_early_crash_in_an_application(seed):
    _run("GDDLB", seed)
