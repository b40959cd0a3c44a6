"""Progress: no group synchronizes for ever over work nobody can ship.

The invariant, stated in :mod:`repro.protocol.balancer`: between two
syncs of a group, a member executes an iteration, a whole iteration
changes hands, or a member retires.  Three load realizations of the
paper's grid used to break it: a plan ordered a sender to ship less
than its dearest tail iteration, the parcel went out empty, its idle
receiver interrupted the group again at once, and the group
re-synchronized while simulated time ran on.  Each must now end well
inside a CPU-time alarm, every iteration executed exactly once.

The rule's worker half — an interrupt is honoured only after the epoch
has executed an iteration — is checked here on the real backends'
driver and on the simulator alike.
"""

from __future__ import annotations

import signal

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.trfd import TrfdConfig, trfd_application
from repro.apps.workload import LoopSpec
from repro.backend.driver import Burn, Inbox, drive, prepare_run
from repro.experiments.config import ExperimentConfig
from repro.faults.plan import CrashFault, FaultPlan
from repro.message.messages import InterruptMsg, Tag
from repro.message.pvm import VirtualMachine
from repro.protocol import AwaitMessage, ComputeDone
from repro.runtime.assignment import check_coverage
from repro.runtime.node import NodeRuntime
from repro.runtime.options import RunOptions
from repro.runtime.session import LoopSession
from repro.simulation import Environment

from .conftest import COST, make_worker
from .test_driver import NullPort
from .test_scale_seed_identity import _cluster as _digest_cluster
from .test_scale_seed_identity import _fingerprint
from .test_scale_seed_identity import _loop as _digest_loop

#: CPU seconds a cell may take; each ends in well under 0.1.
ALARM_CPU_S = 5.0


class _Alarm(BaseException):
    """Raised into a run that has used up its CPU seconds — again every
    50 ms, since the simulator turns an exception inside a process into
    a failed event, which need not end the run."""


def _raise_alarm(signum, frame):
    raise _Alarm


def _cell(name: str):
    """A grid cell's loop at P=16 under ``ExperimentConfig``'s policy,
    network and load, as the benchmark's paper grid builds it."""
    config = ExperimentConfig()
    if name == "mxm":
        loop = mxm_loop(MxmConfig(1600, 400, 400), config.mxm_op_seconds)
    else:
        loop, _ = trfd_application(
            TrfdConfig(30), op_seconds=config.trfd_op_seconds).loops()
    options = RunOptions(policy=config.policy, network=config.network,
                         group_size=config.group_size(16))
    return loop, options, config


def _within_alarm(run, what: str):
    """``run()``, failed if it takes more than ``ALARM_CPU_S``."""
    before = signal.signal(signal.SIGVTALRM, _raise_alarm)
    signal.setitimer(signal.ITIMER_VIRTUAL, ALARM_CPU_S, 0.05)
    try:
        try:
            return run()
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
    except _Alarm:
        pytest.fail(f"{what} did not end within {ALARM_CPU_S} CPU seconds")
    finally:
        signal.signal(signal.SIGVTALRM, before)


@pytest.mark.parametrize("strategy,cell,load_seed", [
    ("LCDLB", "trfd-L1", 15002),
    ("GCDLB", "trfd-L1", 106004),
    ("CUSTOM", "mxm", 45001),
])
def test_a_once_livelocked_cell_ends(strategy, cell, load_seed):
    loop, options, config = _cell(cell)
    cluster = ClusterSpec.homogeneous(
        16, max_load=config.max_load, persistence=config.persistence,
        seed=load_seed)
    stats = _within_alarm(lambda: run_loop(loop, cluster, strategy, options),
                          f"{strategy} on load seed {load_seed}")
    check_coverage(stats.executed_by_node, loop.n_iterations)


@pytest.mark.faults
@pytest.mark.parametrize("node,time", [
    (1, 0.01), (2, 0.01), (2, 0.015), (6, 0.015), (7, 0.015)])
def test_a_finished_worker_stops_vouching_for_itself(node, time):
    """A GDDLB survivor of a crash used to re-probe a peer that had
    already finished, for ever: the retiree answered each
    ``resend-profile`` for an epoch it would never reach with its old
    profile, as evidence of life, and every answer reset the prober's
    retry count.  A finished worker now stays silent, is declared dead,
    and the run ends with every iteration executed once."""
    plan = FaultPlan(seed=5, crashes=(CrashFault(node=node, time=time),))
    loop = _digest_loop()
    stats = _within_alarm(
        lambda: run_loop(loop, _digest_cluster(), "GDDLB", RunOptions(),
                         fault_plan=plan),
        f"GDDLB with node {node} crashed at {time}")
    check_coverage(stats.executed_by_node, loop.n_iterations)


def test_a_pending_interrupt_is_honoured_after_one_iteration(table):
    """The driver: an interrupt for this epoch already flagged when the
    compute slice starts gets one ``Burn`` first."""
    inbox = Inbox()
    inbox.post(InterruptMsg(src=1, dst=0, epoch=0, group=0))
    proto = make_worker(0, (0, 1), centralized=False, table=table,
                        ranges=[(0, 3)])
    seen = []
    real = proto.on_event
    proto.on_event = lambda event: (seen.append(event), real(event))[1]

    pump = drive(proto, NullPort(0, 0.0), inbox, track="node0")
    assert pump.send(None) == Burn(0, COST)
    assert isinstance(pump.send(None), AwaitMessage)
    assert seen[-1] == ComputeDone("interrupted", by=1)
    assert proto.assignment.ranges == [(1, 3)]


def test_a_finisher_answers_a_sync_a_peer_already_called(table):
    """The driver: a worker whose slice runs out with a peer's interrupt
    for this epoch already flagged answers that sync — it interrupts
    nobody, as the one stopped by the interrupt would not."""
    inbox = Inbox()
    proto = make_worker(0, (0, 1), centralized=False, table=table,
                        ranges=[(0, 1)])
    seen = []
    real = proto.on_event
    proto.on_event = lambda event: (seen.append(event), real(event))[1]
    port = NullPort(0, 0.0)
    sent = []
    port.deliver = sent.append

    pump = drive(proto, port, inbox, track="node0")
    assert pump.send(None) == Burn(0, COST)
    # Flagged while the only iteration burns: the slice runs out.
    inbox.post(InterruptMsg(src=1, dst=0, epoch=0, group=0))
    assert isinstance(pump.send(None), AwaitMessage)
    assert seen[-1] == ComputeDone("interrupted", by=1)
    assert [m.tag for m in sent] == [Tag.PROFILE]


def _sim_node(n_iterations: int):
    loop = LoopSpec(name="s", n_iterations=n_iterations,
                    iteration_time=COST, dc_bytes=0)
    cluster = ClusterSpec.homogeneous(2, max_load=0)
    options = RunOptions()
    env = Environment()
    plan = prepare_run("sim", loop, cluster.speeds, "GDDLB", options,
                       None, None, time_scale=1.0)
    session = LoopSession(env, VirtualMachine(env, 2, options.network),
                          cluster.build(), plan)
    node = NodeRuntime(session, 0)
    heard = []
    real = node.protocol.on_event
    node.protocol.on_event = lambda event: (
        heard.append((env.now, event)), real(event))[1]
    return session, node, heard


def test_the_simulator_runs_one_iteration_before_a_pending_interrupt():
    """The same rule on the simulator's analytic compute slice, pumped
    by the same ``drive()``."""
    session, node, heard = _sim_node(8)
    session.vm.inbox[0].put(InterruptMsg(src=1, dst=0, epoch=0, group=0))
    session.env.process(node.pump())
    session.env.run()  # node 1 never profiles: the gather waits on
    assert session.stats.executed_by_node[0] == [(0, 1)]
    now, event = heard[1]
    assert event == ComputeDone("interrupted", by=1)
    assert now == pytest.approx(COST)


@pytest.mark.parametrize("processors", [4, 16])
def test_a_static_run_has_no_periodic_clock(processors):
    """``NONE`` under ``sync_mode="periodic"`` is ``NONE``: nobody
    interrupts a static run (the clock used to, and the run lost the
    iterations its interrupted nodes never got back to)."""
    loop = mxm_loop(MxmConfig(128, 32, 32), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(processors, max_load=3,
                                      persistence=1.0, seed=7)
    periodic = run_loop(loop, cluster, "NONE", RunOptions(
        sync_mode="periodic", sync_period=0.001))
    plain = run_loop(loop, cluster, "NONE", RunOptions())
    assert _fingerprint(periodic) == _fingerprint(plain)
