"""Shared state of one simulated loop execution (a *session*).

A :class:`LoopSession` is the simulator's view of a
:class:`~repro.backend.driver.RunPlan`: what the node processes and the
central balancer coordinate through — the simulation environment, the
virtual machine, the workstations, the run's
:class:`~repro.backend.driver.RunLedger` (the one place every backend
books executed ranges and syncs, and writes each sync's ``decision``
instant) — plus the part of the plan the customized selection of §4.3
may *re*configure mid-run (strategy, groups, planner).
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from ..backend.driver import RunLedger, RunPlan
from ..core.strategies.registry import get_strategy
from ..machine.workstation import Workstation
from ..message.pvm import VirtualMachine
from ..simulation import Environment

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.controller import FaultController
    from .node import NodeRuntime

__all__ = ["LoopSession"]


class LoopSession:
    """Coordination state shared by all processes of one loop run."""

    def __init__(self, env: Environment, vm: VirtualMachine,
                 stations: list[Workstation], plan: RunPlan) -> None:
        self.env = env
        self.vm = vm
        self.stations = stations
        self.n = len(stations)
        self.plan = plan
        self.loop = plan.loop
        self.table = plan.table
        self.options = plan.options
        self.policy = plan.options.policy
        self.selector = plan.selector
        #: The run's network graph (the shared bus unless asked).
        self.topology = plan.topology
        self.stats = plan.stats
        #: Structured trace sink; the shared no-op singleton unless the
        #: caller supplied a recorder (see docs/OBSERVABILITY.md).
        self.recorder = plan.recorder
        self.ledger = RunLedger(plan.stats, plan.table, plan.recorder,
                                plan.options.on_execute)
        lead = plan.workers[0]
        #: Host of the master processor / central load balancer.
        self.lb_host = lead.lb_host
        #: The fault-tolerance knobs (hardened protocol iff ``enabled``).
        self.ft = lead.ft
        # What apply_selection replaces: until then, the plan's own.
        self.strategy = plan.spec
        self.group_size = plan.stats.group_size
        self._regroup(plan.groups, plan.planner)

        self.nodes: dict[int, "NodeRuntime"] = {}
        self._selected = False
        #: Fault injection / recovery state; None on a fault-free run
        #: with fault tolerance disabled (the common case).
        self.controller: Optional["FaultController"] = None

    # -- fault-model view ---------------------------------------------------
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
        return self.strategy.centralized

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
        # Selecting DIFF swaps the planner in; each node hands it to its
        # protocol as it adopts the selection.
        self._regroup(*self.plan.domains(chosen, self.group_size))

    def _regroup(self, groups: list[list[int]], planner) -> None:
        self.groups, self.planner = groups, planner
        self.group_of = {node: g for g, members in enumerate(groups)
                         for node in members}
