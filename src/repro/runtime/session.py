"""Shared state of one load-balanced loop execution (a *session*).

A :class:`LoopSession` bundles everything the node processes and the
central balancer need to coordinate: the simulation environment, the
virtual machine, the workstations, the loop's work table, the strategy
configuration (which may be *re*configured mid-run by the customized
selection of §4.3), group membership, and the statistics sink.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TYPE_CHECKING

from ..apps.workload import LoopSpec, WorkTable
from ..core.diffusion import DiffusionPlanner
from ..core.policy import DlbPolicy
from ..core.redistribution import (
    MovementCostFn,
    RedistributionPlan,
    make_movement_cost_estimator,
    make_topology_movement_cost_estimator,
)
from ..core.strategies.base import StrategySpec
from ..core.strategies.registry import get_strategy
from ..machine.cluster import build_groups
from ..machine.workstation import Workstation
from ..message.pvm import VirtualMachine
from ..network.topology import Topology, resolve_topology
from ..obs.trace import NULL_RECORDER
from ..simulation import Environment
from .options import RunOptions
from .stats import LoopRunStats, SyncRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.controller import FaultController
    from .node import NodeRuntime

__all__ = ["LoopSession"]

#: Host index of the master processor / central load balancer.
MASTER = 0


class LoopSession:
    """Coordination state shared by all processes of one loop run."""

    def __init__(self, env: Environment, vm: VirtualMachine,
                 stations: list[Workstation], loop: LoopSpec,
                 strategy: StrategySpec, options: RunOptions,
                 selector: Optional[Callable] = None) -> None:
        self.env = env
        self.vm = vm
        self.stations = stations
        self.loop = loop
        self.table: WorkTable = loop.work_table()
        self.options = options
        self.policy: DlbPolicy = options.policy
        self.strategy = strategy
        self.selector = selector
        self.lb_host = MASTER
        self.n = len(stations)
        self.mean_iteration_time = self.table.total_work / self.table.n

        k = options.effective_group_size(self.n, strategy.group_size)
        self.group_size = k
        if strategy.global_scope or not strategy.is_dlb:
            self.groups: list[list[int]] = [list(range(self.n))]
        else:
            self.groups = build_groups(self.n, k,
                                       formation=options.group_formation,
                                       seed=options.group_seed)
        self.group_of = {node: g for g, members in enumerate(self.groups)
                         for node in members}

        #: The run's network graph, or ``None`` for the default shared
        #: bus (the seed configuration — every code path below must stay
        #: bit-identical in that case).
        self.topology: Optional[Topology] = None
        if options.topology is not None:
            self.topology = resolve_topology(options.topology, self.n)

        self.movement_cost_fn: Optional[MovementCostFn] = None
        if self.policy.include_movement_cost:
            if self.topology is not None and not self.topology.shared_medium:
                self.movement_cost_fn = make_topology_movement_cost_estimator(
                    options.network, self.topology,
                    dc_bytes=loop.dc_bytes,
                    mean_iteration_time=self.mean_iteration_time)
            else:
                self.movement_cost_fn = make_movement_cost_estimator(
                    latency=options.network.latency,
                    bandwidth=options.network.bandwidth,
                    dc_bytes=loop.dc_bytes,
                    mean_iteration_time=self.mean_iteration_time)

        #: Planner override for the protocol layer: diffusion binds the
        #: topology here; ``None`` means the eq.-3 planner (seed path).
        self.planner: Optional[DiffusionPlanner] = \
            self._planner_for(strategy)

        self.stats = LoopRunStats(
            loop_name=loop.name, strategy=strategy.name,
            n_processors=self.n, group_size=self.group_size)
        self.nodes: dict[int, "NodeRuntime"] = {}
        #: Structured trace sink; the shared no-op singleton unless the
        #: caller supplied a recorder (see docs/OBSERVABILITY.md).
        self.recorder = options.recorder or NULL_RECORDER
        self._sync_records: dict[tuple[int, int], SyncRecord] = {}
        self._sweeps: list[SyncRecord] = []
        self._selected = False
        #: Fault injection / recovery state; None on a fault-free run
        #: with fault tolerance disabled (the common case).
        self.controller: Optional["FaultController"] = None

    # -- fault-model view ---------------------------------------------------
    @property
    def ft(self):
        """The fault-tolerance knobs (hardened protocol iff ``ft.enabled``)."""
        return self.options.fault_tolerance

    def is_dead(self, node: int) -> bool:
        """Whether ``node`` has been *declared* dead (detector view)."""
        return (self.controller is not None
                and self.controller.is_declared_dead(node))

    def is_crashed(self, node: int) -> bool:
        """Ground truth — only injection/executor code may consult this."""
        return (self.controller is not None
                and self.controller.is_crashed(node))

    # -- strategy view ------------------------------------------------------
    @property
    def centralized(self) -> bool:
        """Whether sync traffic currently flows through the central LB.

        The customized strategy starts centralized (the pseudo-master
        handles the first synchronization, §5.2) and may hand over to a
        distributed scheme after selection.
        """
        if self.strategy.code == "CUSTOM":
            return True  # until apply_selection replaces the strategy
        return self.strategy.centralized

    def _planner_for(self, strategy: StrategySpec
                     ) -> Optional[DiffusionPlanner]:
        """The protocol planner a strategy needs (``None`` = eq. 3)."""
        if strategy.code != "DIFF":
            return None
        topology = self.topology if self.topology is not None \
            else Topology.bus(self.n)
        return DiffusionPlanner(topology, self.policy,
                                self.mean_iteration_time,
                                self.movement_cost_fn)

    def scope_of(self, node: int) -> Sequence[int]:
        """The nodes ``node`` synchronizes with, itself included: its
        group — or, under diffusion, its closed topology neighbourhood."""
        if self.planner is not None:
            return self.planner.scope(node)
        return self.groups[self.group_of[node]]

    def apply_selection(self, scheme_code: str, group_size: int) -> None:
        """Commit to the selected scheme (idempotent, §4.3)."""
        if self._selected:
            return
        self._selected = True
        chosen = get_strategy(scheme_code)
        self.stats.selected_scheme = chosen.name
        self.strategy = chosen
        if group_size:
            self.group_size = min(group_size, self.n)
        if chosen.global_scope:
            self.groups = [list(range(self.n))]
        else:
            self.groups = build_groups(self.n, self.group_size,
                                       formation=self.options.group_formation,
                                       seed=self.options.group_seed)
        self.group_of = {node: g for g, members in enumerate(self.groups)
                         for node in members}
        # Selecting DIFF swaps the planner in; each node hands it to its
        # protocol as it adopts the selection.
        self.planner = self._planner_for(chosen)

    # -- bookkeeping ----------------------------------------------------------
    def record_plan(self, group: int, epoch: int, plan: RedistributionPlan,
                    part: bool = False) -> None:
        """Record one synchronization per ``(group, epoch)``: replicated
        balancers report the same plan P times (booked once); the nodes
        of a neighbour-local sweep each report their ``part`` of it
        (added up, :meth:`SyncRecord.absorb`)."""
        key = (group, epoch)
        record = self._sync_records.get(key)
        if record is not None:
            if part:
                record.absorb(SyncRecord.of_plan(self.env.now, group,
                                                 epoch, plan))
            return
        record = self._sync_records[key] = SyncRecord.of_plan(
            self.env.now, group, epoch, plan)
        if part:
            self._sweeps.append(record)  # its instant: when it is whole
        else:
            self._emit_decision(record)
        if self.options.trace:
            self.stats.record_sync(record)

    def _emit_decision(self, record: SyncRecord,
                       ts: Optional[float] = None) -> None:
        self.recorder.event(
            "decision", track="balancer", ts=ts, group=record.group,
            epoch=record.epoch, reason=record.reason,
            moved=record.moved_work, n_transfers=record.n_transfers)

    def emit_sweep_decisions(self) -> None:
        """The ``decision`` instant of every neighbour-local sweep, from
        its summed record.  A wave is no barrier — nothing says when a
        sweep's last part is in, short of the run being over — so the
        executor calls this once the stats are final; each instant is
        stamped with the time its sweep began."""
        for record in self._sweeps:
            self._emit_decision(record, ts=record.time)
        self._sweeps.clear()

    def record_executed(self, node: int, ranges: list[tuple[int, int]]) -> None:
        self.stats.executed_by_node.setdefault(node, []).extend(ranges)
        if self.options.on_execute is not None and ranges:
            self.options.on_execute(node, ranges)
