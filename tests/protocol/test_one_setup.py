"""One ``DLB_init``: every backend's run is set up by ``prepare_run``.

The paper's SPMD code makes one ``DLB_init`` call whatever workstation
is underneath (§5, Figure 3).  These tests pin that the simulator and
the three real backends share one set-up — by source (one construction
site for each protocol object and planner under ``src/``) and by value
(the plan does not depend on who asked for it) — and the two defects
that the second copy had grown: the central balancer priced movement
without the data bytes on process/socket, and ``initial_partition``
was honoured by the simulator only.  The run is booked the same way
too: ``RunLedger`` is the one writer of sync records and of their
``decision`` trace instants, and it ends every run — the salvage's
booking and the exactly-once audit.
"""

from __future__ import annotations

import inspect
import json
import re
from pathlib import Path

import pytest

from repro import ClusterSpec
from repro.apps.workload import LoopSpec
from repro.backend.capabilities import CAPABILITIES
from repro.backend.driver import (
    RunLedger,
    WorkerSpec,
    movement_estimator,
    prepare_run,
)
from repro.core.policy import DlbPolicy
from repro.faults.controller import FaultController
from repro.faults.plan import FaultPlan
from repro.message.messages import TransferOrder
from repro.message.pvm import VirtualMachine
from repro.protocol import BalancerProtocol
from repro.runtime.assignment import proportional_block_partition
from repro.runtime.balancer import CentralBalancer
from repro.runtime.node import NodeRuntime
from repro.runtime.options import RunOptions
from repro.runtime.session import LoopSession
from repro.simulation import Environment

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
LOOP = LoopSpec(name="setup", n_iterations=96, iteration_time=0.01,
                dc_bytes=4000)


def _plan(backend, strategy, speeds, options=None, loop=LOOP):
    return prepare_run(backend, loop, speeds, strategy, options, None, None,
                       time_scale=1.0)


def _session(plan):
    n = len(plan.workers)
    env = Environment()
    vm = VirtualMachine(env, n, plan.options.network)
    return LoopSession(env, vm, ClusterSpec.homogeneous(n, max_load=0).build(),
                       plan)


# -- by source ----------------------------------------------------------------

def test_each_run_object_has_one_construction_site():
    """Source pins, in the style of ``test_capabilities``'s: a second
    ``WorkerProtocol(...)`` under ``src/`` is a second set-up."""
    source = {path.relative_to(SRC).as_posix(): path.read_text("utf-8")
              for path in sorted(SRC.rglob("*.py"))}
    for name in ("WorkerProtocol", "BalancerProtocol", "LoopRunStats",
                 "DiffusionPlanner", "make_topology_movement_cost_estimator"):
        call = re.compile(rf"(?<!def )\b{name}\(")
        sites = {path: len(call.findall(text))
                 for path, text in source.items() if call.search(text)}
        assert sites == {"backend/driver.py": 1}, (name, sites)
    for path in ("runtime/session.py", "runtime/executor.py",
                 "backend/thread.py"):
        assert "resolve_topology(" not in source[path], path
        assert "build_groups(" not in source[path], path
    assert "prepare_run(" in source["runtime/executor.py"]


def _calls(pattern):
    """``{path: count}`` of ``pattern``'s matches in each file under
    ``src/`` that has one."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        count = len(re.findall(pattern, path.read_text("utf-8")))
        if count:
            found[path.relative_to(SRC).as_posix()] = count
    return found


@pytest.mark.parametrize("pattern, sites", [
    # ``RunLedger.sync`` books every sync of the four backends; work
    # stealing's per-node steal epochs would collide under its
    # (group, epoch) de-duplication.
    (r"stats\.record_sync\(", {"backend/driver.py": 1,
                               "runtime/stealing.py": 1}),
    # One writer of the ``decision`` instant, on every backend.
    (r"(?:event|emit|_trace)\(\s*\"decision\"", {"backend/driver.py": 1}),
    (r"options\.trace\b", {}),
    # One end of a run: the exactly-once audit and the gaps a salvage
    # runs are the ledger's (``RunLedger.close`` / ``.uncovered``), and
    # so is the salvage's booking.
    (r"(?<!def )(?<![\w.])check_coverage\(", {"backend/driver.py": 1}),
    (r"(?<!def )(?<![\w.])uncovered\(", {"backend/driver.py": 1}),
    (r"salvaged_iterations\s*\+?=", {"backend/driver.py": 1}),
])
def test_each_run_record_has_one_writer(pattern, sites):
    assert _calls(pattern) == sites


def test_the_ledger_is_the_one_booking_rule():
    assert "stats.record_sync(" in inspect.getsource(RunLedger.sync)
    assert "emit_trace" not in inspect.getsource(BalancerProtocol)


def test_the_fault_controller_keeps_no_second_tally():
    """The simulator's fault tallies have one home each: the stats, the
    ledger's declarations, the network's drop and delay counts."""
    plan = _plan("sim", "GDDLB", (1.0,) * 4)
    controller = FaultController(
        _session(plan), FaultPlan.single_crash(node=1, time=0.01))
    for name in ("retries", "dropped_messages", "delayed_messages",
                 "reclaimed_iterations", "salvaged_iterations"):
        assert not hasattr(controller, name), name
    assert controller.declared is controller.session.ledger.declared


# -- by value -----------------------------------------------------------------

@pytest.mark.parametrize("topology", (None, "bus", "ring", "torus"))
@pytest.mark.parametrize("formation", ("block", "interleaved", "random"))
@pytest.mark.parametrize("p", (4, 16))
@pytest.mark.parametrize("strategy", ("GC", "GD", "LC", "LD", "DIFF"))
def test_simulator_and_thread_plans_agree(strategy, p, formation, topology):
    options = RunOptions(topology=topology, group_formation=formation,
                         group_seed=3, group_size=max(2, p // 4))
    sim, thread = (_plan(backend, strategy, (1.0,) * p, options)
                   for backend in ("sim", "thread"))
    assert sim.groups == thread.groups
    assert sim.workers == thread.workers  # members, ranges, centralized, ft
    assert sim.topology == thread.topology
    assert (sim.planner is not None) == (strategy == "DIFF")
    # ... and the simulator's session reads the same plan back.
    session = _session(sim)
    assert session.groups == sim.groups
    assert session.centralized == sim.workers[0].centralized
    for worker in sim.workers:
        assert tuple(session.scope_of(worker.node)) == worker.members
        assert session.group_of[worker.node] == worker.group
    if topology in (None, "bus"):
        other = _plan("sim", strategy, (1.0,) * p, options.but(
            topology="bus" if topology is None else None))
        assert other.topology == sim.topology
        assert other.groups == sim.groups and other.workers == sim.workers


@pytest.mark.parametrize("backend", list(CAPABILITIES))
def test_the_balancer_prices_a_transfer_like_its_workers(backend):
    """Under ``include_movement_cost`` a GCDLB sync must be judged the
    same on every backend: the balancer's estimate is the workers', and
    it prices the loop's ``DC`` bytes, not the latency alone."""
    options = RunOptions(policy=DlbPolicy(include_movement_cost=True))
    plan = _plan(backend, "GCDLB", (1.0,) * 4, options)
    lead = plan.workers[0]
    if backend == "sim":
        session = _session(plan)
        balancer = CentralBalancer(session).protocol
        worker = NodeRuntime(session, 1).protocol
    elif backend == "thread":
        balancer = lead.build_balancer(
            plan.groups, movement_cost_fn=plan.movement_cost_fn)
        worker = plan.workers[1].build_protocol(
            table=plan.table, movement_cost_fn=plan.movement_cost_fn)
    else:  # rebuilt from the spec alone, across a pipe or a socket
        wire = json.loads(json.dumps(lead.to_wire()))
        balancer = WorkerSpec.from_wire(0, wire).build_balancer(plan.groups)
        worker = WorkerSpec.from_wire(1, wire).build_protocol()
    transfers = (TransferOrder(0, 1, 0.05), TransferOrder(2, 3, 0.02))
    cost = plan.movement_cost_fn(transfers)
    assert balancer.movement_cost_fn(transfers) == cost
    assert worker.movement_cost_fn(transfers) == cost
    latency_only = movement_estimator(lead.movement, 0, plan.table)
    assert cost > latency_only(transfers)


def test_initial_partition_speed_reaches_the_real_backends(monkeypatch):
    """``RunOptions(initial_partition="speed")`` on the thread backend:
    the blocks follow the cluster's nominal speeds, and the run that
    starts from them covers the loop exactly once."""
    from repro.backend import thread

    cluster = ClusterSpec.heterogeneous([1.0, 3.0, 2.0], max_load=0)
    options = RunOptions(initial_partition="speed")
    plans = []
    real = thread.prepare_run

    def spy(*args, **kwargs):
        plans.append(real(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(thread, "prepare_run", spy)
    stats = thread.ThreadBackend(time_scale=0.01).run_loop(
        LOOP, cluster, "GDDLB", options)
    (plan,) = plans
    expected = proportional_block_partition(LOOP.n_iterations,
                                            cluster.speeds)
    assert [list(w.ranges) for w in plan.workers] == \
        [part.ranges for part in expected] == \
        [[(0, 16)], [(16, 64)], [(64, 96)]]
    assert sum(stats.executed_count(n) for n in stats.executed_by_node) == 96
    equal = _plan("thread", "GDDLB", cluster.speeds)
    assert [w.ranges for w in equal.workers] == \
        [((0, 32),), ((32, 64),), ((64, 96),)]
