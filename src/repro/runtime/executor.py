"""The run-time executor: DLB_init / scatter / run / gather in one call.

``run_loop`` executes one load-balanced loop on a simulated network of
workstations under a chosen strategy; ``run_application`` executes a
whole application (loops plus sequential stages such as TRFD's
transpose) on a single simulation environment, so external load evolves
continuously across stages.

Every loop ends the way it does on every backend (docs/FAULT_MODEL.md,
"End of a run"): the run's :class:`~repro.backend.driver.RunLedger`
audits the fundamental DLB invariant — **every iteration executed
exactly once**.  Under a :class:`~repro.faults.FaultPlan` the executor
installs a :class:`~repro.faults.FaultController` and the hardened
protocol, and once the survivors finish, the orphans the ledger reports
are re-run on the lowest-numbered survivor first.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from copy import copy
from typing import Callable, Iterator, Optional

from ..apps.workload import ApplicationSpec, LoopSpec, SequentialStage
from ..backend.base import StrategyLike
from ..backend.driver import prepare_run
from ..core.strategies.registry import get_strategy
from ..faults.controller import FaultController
from ..faults.plan import FaultPlan
from ..machine.cluster import ClusterSpec
from ..machine.workstation import Workstation
from ..message.messages import DataMsg, Tag
from ..message.pvm import VirtualMachine
from ..network.graph import build_network
from ..simulation import Environment
from .assignment import CoverageError, merge_ranges
from .balancer import CentralBalancer
from .node import NodeRuntime
from .options import RunOptions
from .session import LoopSession
from .stats import AppRunStats, LoopRunStats, StageRunStats
from .stealing import StealingNodeRuntime

__all__ = ["run_loop", "run_application", "CoverageError"]


def _salvage(session: LoopSession, controller: FaultController) -> None:
    """Spend the salvage of a faulted run: the survivor the ledger
    credits computes the orphans for their simulated time.

    The ledger's gaps must be exactly the controller's stranded work: a
    gap the controller cannot account for is work the protocol lost,
    not an orphan, and fails the run (:class:`CoverageError`)."""
    controller.sweep_orphans()
    orphans = session.ledger.uncovered()
    stranded = merge_ranges(controller.claim_orphans())
    if stranded != orphans:
        raise CoverageError(f"unaccounted iterations: the ledger misses "
                            f"{orphans}, the fault controller {stranded}")
    env = session.env
    work = sum(session.table.range_work(s, e) for s, e in orphans)
    for node, _ in session.ledger.salvage(
            set(range(session.n)) - controller.crashed):

        def spend():
            t_end = session.stations[node].time_to_complete(env.now, work)
            yield env.timeout(t_end - env.now)

        env.run(env.process(spend(), name=f"salvage{node}"))


def _scatter(session: LoopSession):
    """Initial distribution of array blocks from the master (optional)."""
    vm = session.vm
    loop = session.loop
    deliveries = []
    for node in range(1, session.n):
        count = session.nodes[node].protocol.assignment.count
        nbytes = count * loop.input_bytes + loop.replicated_bytes
        ev = yield from vm.send(DataMsg(src=0, dst=node, label="scatter",
                                        data_bytes=nbytes))
        deliveries.append(ev)
    if deliveries:
        yield session.env.all_of(deliveries)


def _gather(session: LoopSession):
    """Final collection of results at the master (optional)."""
    vm = session.vm
    loop = session.loop
    env = session.env

    def sender(node: int):
        count = session.stats.executed_count(node)
        ev = yield from vm.send(DataMsg(src=node, dst=0, label="gather",
                                        data_bytes=count * loop.result_bytes))
        yield ev

    procs = [env.process(sender(node), name=f"gather{node}")
             for node in range(1, session.n)]
    if procs:
        yield env.all_of(procs)


def run_loop_stage(env: Environment, vm: VirtualMachine,
                   stations: list[Workstation], loop: LoopSpec,
                   strategy: StrategyLike,
                   options: Optional[RunOptions] = None,
                   selector: Optional[Callable] = None,
                   fault_plan: Optional[FaultPlan] = None) -> LoopRunStats:
    """Run one loop on an existing environment (advanced entry point)."""
    plan = prepare_run("sim", loop, [ws.speed for ws in stations], strategy,
                       options, selector, fault_plan, time_scale=1.0,
                       topology=vm.network.topology)
    options, recorder = plan.options, plan.recorder
    if recorder.enabled:
        # The simulator's time domain is virtual seconds.  Binding the
        # clock (and hooking the network) is the *only* run-path change
        # tracing makes on this backend: every recording site is a pure
        # function call inside an existing callback, so traced runs stay
        # bit-identical to untraced ones (the seed oracles check this).
        recorder.set_clock(lambda: env.now)
        vm.network.recorder = recorder
    session = LoopSession(env, vm, stations, plan)
    controller: Optional[FaultController] = None
    if fault_plan is not None and not fault_plan.empty:
        controller = FaultController(session, fault_plan)
        session.controller = controller
        controller.install()
    msg_before = vm.sent_by_tag
    net_before = copy(vm.network.stats)
    session.stats.start_time = env.now

    if options.include_staging:
        staging = env.process(_scatter_then_run(session), name="master-stage")
    else:
        staging = None
        _make_nodes(session)
        _spawn_nodes(session)

    if plan.workers[0].centralized:
        lb = env.process(CentralBalancer(session).run(), name="balancer")
    else:
        lb = None

    # Run until every node process has finished.
    if staging is not None:
        env.run(staging)
    for node in list(session.nodes.values()):
        if node.proc is not None and node.proc.is_alive:
            env.run(node.proc)
    if lb is not None and lb.is_alive:
        env.run(lb)

    if controller is not None:
        _salvage(session, controller)
        controller.uninstall()

    if options.include_staging:
        gather = env.process(_gather(session), name="master-gather")
        env.run(gather)

    stats = session.stats
    # A node that never ran (it crashed during staging) has no finish.
    stats.node_finish_times = {
        i: node.finish_time for i, node in session.nodes.items()
        if node.proc is not None}
    sent = vm.sent_by_tag
    stats.messages_by_tag = {
        t.value: sent[t] - msg_before[t] for t in Tag}
    net = vm.network.stats
    stats.network_messages = net.messages - net_before.messages
    stats.network_bytes = net.bytes - net_before.bytes
    stats.dropped_messages = net.dropped_messages - net_before.dropped_messages
    stats.delayed_messages = net.delayed_messages - net_before.delayed_messages

    # Detach mailbox hooks so a later stage can re-register, and undo
    # the session <-> node / controller back-references: the stats are
    # final, and the run's owner (_simulated_run) has the cycle
    # collector paused on the promise that reference counting frees it.
    for i in range(session.n):
        vm.inbox[i].notify = None
        # What the loop left unread (say, a cached instruction re-sent
        # for a profile that crossed it) is not the next loop's: its
        # epochs start at 0 again.
        vm.inbox[i].drain()
    session.nodes.clear()
    session.controller = None
    session.ledger.close(env.now)
    return stats


@contextmanager
def _simulated_run(cluster: ClusterSpec, options: RunOptions
                   ) -> Iterator[tuple[Environment, list[Workstation],
                                       VirtualMachine]]:
    """The lifetime of one simulated run: its environment, stations and
    virtual machine, with the cyclic collector paused while they live.

    Contract: **a run leaves nothing for the collector.**  Each stage
    undoes its session's back-references (:func:`run_loop_stage`); the
    exit here drops the two cycles that are left — the schedule's
    leftover events (timers that lost their race, messages in flight)
    point back at ``env``, the network's delivery hook at ``vm`` — so
    everything is freed by reference counting and every pass the pause
    skips would have found nothing (tests/runtime/test_run_lifetime.py
    pins that over strategy x topology x sync mode x fault plan).  The
    guarantee is this teardown's, not the kernel's, hence the pause is
    here and not in ``Environment.run``.  The collector is left as the
    caller had it, whatever ends the run: ``gc.disable`` sits inside the
    ``try`` so that no exception — a signal handler's included — finds
    it off and unprotected.
    """
    was_enabled = gc.isenabled()
    try:
        gc.disable()
        env = Environment()
        stations = cluster.build()
        n = cluster.n_processors
        vm = VirtualMachine(env, n, options.network, network=build_network(
            env, options.topology, n, options.network))
        try:
            yield env, stations, vm
        finally:
            vm.network.abandon()
            env.discard_pending()
    finally:
        if was_enabled:
            gc.enable()


def _make_nodes(session: LoopSession) -> None:
    cls = StealingNodeRuntime if session.strategy.code == "WS" else NodeRuntime
    for i in range(session.n):
        cls(session, i)


def _spawn_nodes(session: LoopSession) -> None:
    """Start every node that has not crashed (during staging)."""
    for node in session.nodes.values():
        if not session.is_crashed(node.me):
            node.proc = session.env.process(node.pump(),
                                            name=f"node{node.me}")


def _scatter_then_run(session: LoopSession):
    """With staging on, nodes start only after their block arrives."""
    # Create node runtimes first so assignments are known for sizing.
    _make_nodes(session)
    yield from _scatter(session)
    _spawn_nodes(session)


def run_loop(loop: LoopSpec, cluster: ClusterSpec, strategy: StrategyLike,
             options: Optional[RunOptions] = None,
             selector: Optional[Callable] = None,
             fault_plan: Optional[FaultPlan] = None,
             backend: Optional[object] = None) -> LoopRunStats:
    """Run a single loop on a fresh cluster.

    Parameters
    ----------
    loop:
        The workload (e.g. from :func:`repro.apps.mxm.mxm_loop`).
    cluster:
        The cluster description; its seed fixes the load realization
        (simulation backend only).
    strategy:
        A :class:`StrategySpec` or a name/code ("GDDLB", "LD", "NONE",
        "CUSTOM", ...).
    options:
        Run options (policy thresholds, network parameters, K, ...).
    selector:
        Strategy selector for the customized scheme; defaults to the
        model-based selector when strategy is "CUSTOM" and none given.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` to inject (crashes,
        slowdowns, message drops/delays).  Supplying one automatically
        enables the hardened fault-tolerant protocol.
    backend:
        ``None``/``"sim"`` for the discrete-event simulation (default),
        ``"thread"`` for real threads in wall-clock time, or any
        :class:`~repro.backend.base.ExecutionBackend` instance.
    """
    if backend is not None and backend != "sim":
        from ..backend.base import get_backend
        return get_backend(backend).run_loop(
            loop, cluster, strategy, options, selector,
            fault_plan=fault_plan)
    options = options or RunOptions()
    with _simulated_run(cluster, options) as (env, stations, vm):
        return run_loop_stage(env, vm, stations, loop, strategy, options,
                              selector, fault_plan=fault_plan)


def run_application(app: ApplicationSpec, cluster: ClusterSpec,
                    strategy: StrategyLike,
                    options: Optional[RunOptions] = None,
                    selector: Optional[Callable] = None,
                    fault_plan: Optional[FaultPlan] = None) -> AppRunStats:
    """Run a full application (loops + sequential stages) end to end.

    A ``fault_plan`` applies to the *first* loop stage only: each stage
    builds a fresh session, and replaying the same crash schedule
    against later stages would implicitly revive dead processors.
    """
    options = options or RunOptions()
    stats = AppRunStats(app_name=app.name,
                        strategy=get_strategy(strategy).name,
                        n_processors=cluster.n_processors)
    pending_plan = fault_plan
    with _simulated_run(cluster, options) as (env, stations, vm):
        for stage in app.stages:
            if isinstance(stage, LoopSpec):
                stats.stages.append(run_loop_stage(
                    env, vm, stations, stage, strategy, options, selector,
                    fault_plan=pending_plan))
                pending_plan = None
            elif isinstance(stage, SequentialStage):
                stats.stages.append(_run_sequential(env, vm, stations,
                                                    stage, options))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown stage type {type(stage)!r}")
    return stats


def _run_sequential(env: Environment, vm: VirtualMachine,
                    stations: list[Workstation], stage: SequentialStage,
                    options: RunOptions) -> StageRunStats:
    """A master-only stage: optional gather, compute, optional scatter."""
    start = env.now
    master = stations[0]
    n = len(stations)

    def runner():
        if options.include_staging and stage.gather_bytes and n > 1:
            share = stage.gather_bytes // max(n - 1, 1)

            def sender(node: int):
                ev = yield from vm.send(DataMsg(src=node, dst=0,
                                                label=f"{stage.name}-gather",
                                                data_bytes=share))
                yield ev

            procs = [env.process(sender(i), name=f"stage-g{i}")
                     for i in range(1, n)]
            yield env.all_of(procs)
        if stage.compute_seconds > 0:
            t_end = master.time_to_complete(env.now, stage.compute_seconds)
            yield env.timeout(t_end - env.now)
        if options.include_staging and stage.scatter_bytes and n > 1:
            share = stage.scatter_bytes // max(n - 1, 1)
            deliveries = []
            for node in range(1, n):
                ev = yield from vm.send(DataMsg(src=0, dst=node,
                                                label=f"{stage.name}-scatter",
                                                data_bytes=share))
                deliveries.append(ev)
            yield env.all_of(deliveries)

    proc = env.process(runner(), name=f"stage:{stage.name}")
    env.run(proc)
    return StageRunStats(stage_name=stage.name, start_time=start,
                         end_time=env.now)
