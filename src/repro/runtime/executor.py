"""The run-time executor: DLB_init / scatter / run / gather in one call.

``run_loop`` executes one load-balanced loop on a simulated network of
workstations under a chosen strategy; ``run_application`` executes a
whole application (loops plus sequential stages such as TRFD's
transpose) on a single simulation environment, so external load evolves
continuously across stages.

After every loop the executor verifies the fundamental DLB invariant:
**every iteration executed exactly once** — redistribution must neither
lose nor duplicate work.  The invariant is *also* enforced under fault
injection: pass a :class:`~repro.faults.FaultPlan` and the executor
installs a :class:`~repro.faults.FaultController`, enables the hardened
protocol, and — after the surviving processes finish — runs a salvage
pass that executes any orphaned iterations on the lowest-numbered
survivor, so the loop degrades gracefully instead of losing work.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
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
from ..simulation import Environment, SimulationError
from .assignment import CoverageError, check_coverage, merge_ranges
from .balancer import CentralBalancer
from .node import NodeRuntime
from .options import RunOptions
from .session import LoopSession
from .stats import AppRunStats, LoopRunStats, StageRunStats

__all__ = ["run_loop", "run_application", "CoverageError"]


def _salvage(session: LoopSession, controller: FaultController) -> None:
    """Execute every orphaned iteration on the lowest-id survivor.

    This is the last line of the graceful-degradation guarantee: after
    the protocol-level reclaim/redistribute machinery has done what it
    can, any iteration still unexecuted (stranded parcels, unconsumed
    WORK in dead mailboxes, late reclaims) is run — and charged its
    simulated compute time — on one surviving workstation, so
    :func:`check_coverage` holds for every plan with a survivor.
    """
    orphans = controller.sweep_orphans()
    if not orphans:
        return
    ranges = merge_ranges(orphans)
    survivors = controller.survivors()
    if not survivors:  # unreachable: FaultPlan.validate_for guarantees one
        raise SimulationError("no survivor left to salvage orphaned work")
    node = survivors[0]
    env = session.env
    table = session.table
    work = sum(table.range_work(s, e) for s, e in ranges)
    count = sum(e - s for s, e in ranges)

    def runner():
        ws = session.stations[node]
        t_end = ws.time_to_complete(env.now, work)
        yield env.timeout(t_end - env.now)
        session.ledger.executed(node, ranges)

    env.run(env.process(runner(), name=f"salvage{node}"))
    controller.salvaged_iterations += count
    session.recorder.event("salvage", track=f"node{node}",
                           iterations=count, work=work)


def _copy_fault_stats(session: LoopSession,
                      controller: FaultController) -> None:
    stats = session.stats
    stats.crashed_nodes = tuple(sorted(controller.crashed))
    stats.fenced_nodes = tuple(sorted(controller.fenced))
    stats.declared_dead = tuple(sorted(controller.declared))
    stats.dropped_messages = controller.dropped_messages
    stats.delayed_messages = controller.delayed_messages
    stats.fault_retries = controller.retries
    stats.reclaimed_iterations = controller.reclaimed_iterations
    stats.salvaged_iterations = controller.salvaged_iterations


def _scatter(session: LoopSession):
    """Initial distribution of array blocks from the master (optional)."""
    vm = session.vm
    loop = session.loop
    deliveries = []
    for node in range(1, session.n):
        count = session.nodes[node].assignment.count
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
    msg_before = dict(vm.sent_by_tag)
    net_before = (vm.network.stats.messages, vm.network.stats.bytes)
    session.stats.start_time = env.now

    if options.include_staging:
        staging = env.process(_scatter_then_run(session), name="master-stage")
    else:
        staging = None
        _spawn_nodes(session)

    if plan.workers[0].centralized:
        lb = env.process(CentralBalancer(session).run(), name="balancer")
    else:
        lb = None

    # Run until every node process has finished.
    procs = [session.nodes[i].proc for i in range(session.n)] if staging is None \
        else []
    if staging is not None:
        env.run(staging)
        procs = [session.nodes[i].proc for i in range(session.n)]
    for proc in procs:
        if proc.is_alive:
            env.run(proc)
    if lb is not None and lb.is_alive:
        env.run(lb)

    if controller is not None:
        _salvage(session, controller)
        _copy_fault_stats(session, controller)
        controller.uninstall()

    if options.include_staging:
        gather = env.process(_gather(session), name="master-gather")
        env.run(gather)

    session.stats.end_time = env.now
    session.ledger.close()
    session.stats.node_finish_times = {
        i: session.nodes[i].finish_time for i in range(session.n)}
    session.stats.messages_by_tag = {
        t.value: vm.sent_by_tag.get(t, 0) - msg_before.get(t, 0) for t in Tag}
    session.stats.network_messages = vm.network.stats.messages - net_before[0]
    session.stats.network_bytes = vm.network.stats.bytes - net_before[1]

    # Detach mailbox hooks so a later stage can re-register, and undo
    # the session <-> node / controller back-references: the stats are
    # final, and the run's owner (_simulated_run) has the cycle
    # collector paused on the promise that reference counting frees it.
    for i in range(session.n):
        vm.inbox[i].notify = None
    session.nodes.clear()
    session.controller = None
    check_coverage(session.stats.executed_by_node, session.loop.n_iterations)
    return session.stats


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
            env.discard_pending()
            vm.network.abandon()
    finally:
        if was_enabled:
            gc.enable()


def _node_class(session: LoopSession):
    if session.strategy.code == "WS":
        from .stealing import StealingNodeRuntime
        return StealingNodeRuntime
    return NodeRuntime


def _spawn_nodes(session: LoopSession) -> None:
    cls = _node_class(session)
    for i in range(session.n):
        node = cls(session, i)
        node.proc = session.env.process(node.run(), name=f"node{i}")


def _scatter_then_run(session: LoopSession):
    """With staging on, nodes start only after their block arrives."""
    # Create node runtimes first so assignments are known for sizing.
    cls = _node_class(session)
    nodes = [cls(session, i) for i in range(session.n)]
    yield from _scatter(session)
    for node in nodes:
        node.proc = session.env.process(node.run(), name=f"node{node.me}")


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
