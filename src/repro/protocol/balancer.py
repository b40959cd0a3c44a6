"""The central balancer side of the DLB protocol as a pure state machine.

:class:`BalancerProtocol` owns the master's protocol state — per-group
profile boxes, the ready queue, group epochs and active sets, the
cached-instruction table that recovers lost INSTRUCTIONs, and the probe
clocks of the pull-based failure detector.  It has no clock, transport,
or process model: the discrete-event adapter
(:class:`~repro.runtime.balancer.CentralBalancer`) drives the
fine-grained transitions and keeps the simulation-only concerns
(stealing CPU from the co-located compute slave, the §4.3 customized
selection); the real-time backend pumps :meth:`on_event`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from ..core.policy import DlbPolicy
from ..core.redistribution import (
    MovementCostFn,
    RedistributionPlan,
    SyncProfile,
    plan_redistribution,
)
from ..message.messages import (
    InstructionMsg,
    Message,
    ProfileMsg,
    Tag,
)
from ..runtime.options import FaultToleranceConfig
from . import commands as C
from . import events as E
from .errors import ProtocolError

__all__ = ["BalancerProtocol"]

Range = tuple[int, int]


class BalancerProtocol:
    """Pure protocol state machine for the central load balancer."""

    def __init__(self, host: int, groups: Sequence[Sequence[int]], *,
                 policy: DlbPolicy,
                 mean_iteration_time: float,
                 movement_cost_fn: Optional[MovementCostFn] = None,
                 ft: Optional[FaultToleranceConfig] = None) -> None:
        self.host = host
        self.groups = [list(members) for members in groups]
        self.group_of = {node: g for g, members in enumerate(self.groups)
                         for node in members}
        self.policy = policy
        self.mean_iteration_time = mean_iteration_time
        self.movement_cost_fn = movement_cost_fn
        self.ft = ft or FaultToleranceConfig()
        #: Same contract as ``WorkerProtocol.emit_trace``: when set, the
        #: pump interleaves :class:`C.Emit` commands into its outputs.
        self.emit_trace = False

        self.pending: dict[int, dict[int, SyncProfile]] = {}
        self.ready: deque[int] = deque()
        self.group_active: dict[int, set[int]] = {
            g: set(members) for g, members in enumerate(self.groups)}
        self.group_epoch: dict[int, int] = {
            g: 0 for g in range(len(self.groups))}
        self.groups_done: set[int] = set()
        # Lost-INSTRUCTION recovery and per-node probe state (unanswered
        # liveness probes since the node's last sign of life).
        self.last_instruction: dict[int, InstructionMsg] = {}
        self.probe_rounds: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Fine-grained transitions (used by the DES adapter and internally).
    # ------------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return len(self.groups_done) >= len(self.groups)

    def absorb(self, msg: ProfileMsg, group: Optional[int] = None) -> None:
        """File a profile into its group's box; mark the group ready when
        every active member has reported."""
        gid = self.group_of.get(msg.src, msg.group) if group is None \
            else group
        box = self.pending.setdefault(gid, {})
        box[msg.src] = SyncProfile(
            node=msg.src, remaining_work=msg.remaining_work,
            remaining_count=msg.remaining_count, rate=msg.rate)
        if (gid not in self.groups_done
                and set(box) >= self.group_active.get(gid, set())
                and gid not in self.ready):
            self.ready.append(gid)

    def note_alive(self, node: int) -> None:
        """Any message from ``node`` resets its probe clock."""
        self.probe_rounds.pop(node, None)

    def admit(self, node: int, gid: int = 0) -> int:
        """Elastic membership: accept ``node`` into group ``gid``.

        Returns the group's current epoch — the joiner's starting
        epoch.  The joiner counts toward the group's profile quorum
        from now on; with no work assigned it synchronizes immediately
        (a joiner *is* the paper's "processor with no work left"), so
        the next plan reshapes the iteration range onto the new set.
        """
        if not 0 <= gid < len(self.groups):
            raise ProtocolError(f"cannot admit {node} to group {gid}")
        if gid in self.groups_done:
            raise ProtocolError(
                f"cannot admit {node}: group {gid} already finished")
        if node not in self.group_of:
            self.groups[gid].append(node)
            self.group_of[node] = gid
        self.group_active.setdefault(gid, set()).add(node)
        # The quorum grew: a group marked ready on the old active set
        # must wait for the joiner's profile too.
        if gid in self.ready and \
                not set(self.pending.get(gid, {})) >= self.group_active[gid]:
            self.ready.remove(gid)
        return self.group_epoch.setdefault(gid, 0)

    def cached_instruction(self, node: int, epoch: Optional[int] = None
                           ) -> Optional[InstructionMsg]:
        """The last instruction sent to ``node`` (lost-INSTRUCTION
        recovery); filtered to ``epoch`` when given."""
        cached = self.last_instruction.get(node)
        if cached is not None and (epoch is None or cached.epoch == epoch):
            return cached
        return None

    def take_ready(self) -> Optional[int]:
        """Pop the next group whose profile set is complete."""
        return self.ready.popleft() if self.ready else None

    def group_profiles(self, gid: int) -> list[SyncProfile]:
        """Remove and return a ready group's profiles, sorted by node."""
        return sorted(self.pending.pop(gid, {}).values(),
                      key=lambda p: p.node)

    def plan(self, profiles: Iterable[SyncProfile]) -> RedistributionPlan:
        ordered = sorted(profiles, key=lambda p: p.node)
        return plan_redistribution(
            ordered, self.policy, self.mean_iteration_time,
            self.movement_cost_fn)

    def build_instructions(self, gid: int, plan: RedistributionPlan, *,
                           granted: tuple[Range, ...] = (),
                           grant_dst: Optional[int] = None,
                           selection: Optional[tuple[str, int]] = None,
                           ) -> list[InstructionMsg]:
        """One instruction per active group member realizing ``plan``."""
        epoch = self.group_epoch[gid]
        ft_on = self.ft.enabled
        instructions = []
        for node in sorted(self.group_active[gid]):
            instructions.append(InstructionMsg(
                src=self.host, dst=node, epoch=epoch, group=gid,
                outgoing=plan.outgoing(node),
                incoming=len(plan.incoming(node)),
                incoming_srcs=tuple(t.src for t in plan.incoming(node))
                if ft_on else (),
                grant=granted if node == grant_dst else (),
                retire=node in plan.retire,
                done=plan.done,
                active=plan.active,
                select_scheme=selection[0] if selection else "",
                select_group_size=selection[1] if selection else 0))
        if ft_on:
            for instr in instructions:
                self.last_instruction[instr.dst] = instr
        return instructions

    def complete_group(self, gid: int, plan: RedistributionPlan) -> None:
        """Group bookkeeping after its instructions went out."""
        if plan.done or not plan.active:
            self.groups_done.add(gid)
        else:
            self.group_active[gid] = set(plan.active)
            self.group_epoch[gid] = self.group_epoch[gid] + 1
            for node in plan.active:
                self.probe_rounds.pop(node, None)

    def prune_dead(self, dead: set[int]) -> None:
        """Fold death declarations into membership and readiness."""
        for gid in range(len(self.groups)):
            if gid in self.groups_done:
                continue
            members = self.group_active.get(gid, set())
            alive = members - dead
            if alive != members:
                self.group_active[gid] = alive
            box = self.pending.get(gid, {})
            for node in dead & set(box):
                # A profile from a node since declared dead: its work was
                # reclaimed into the pool, so planning with it would
                # double-count.
                del box[node]
            if not alive:
                self.groups_done.add(gid)
                if gid in self.ready:
                    self.ready.remove(gid)
                continue
            if (set(box) >= alive and gid not in self.ready
                    and gid not in self.groups_done):
                self.ready.append(gid)

    def overdue_members(self, gid: int, alive: set[int]) -> list[int]:
        """Silent members whose probe clock ran out (to be declared)."""
        missing = alive - set(self.pending.get(gid, {}))
        return [node for node in sorted(missing)
                if self.probe_rounds.get(node, 0) >= self.ft.max_retries]

    def reconfigure_after_selection(self, groups: Sequence[Sequence[int]],
                                    globally_active: Sequence[int]) -> None:
        """Rebuild group bookkeeping under the newly selected scheme."""
        self.groups = [list(members) for members in groups]
        self.group_of = {node: g for g, members in enumerate(self.groups)
                         for node in members}
        self.pending.clear()
        self.ready.clear()
        active = set(globally_active)
        self.group_active = {
            g: set(members) & active
            for g, members in enumerate(self.groups)}
        self.group_epoch = {g: 1 for g in range(len(self.groups))}
        self.groups_done = {g for g, mem in self.group_active.items()
                            if not mem}
        self.probe_rounds = {}

    # ------------------------------------------------------------------
    # Event pump (used by real-time backends and scripted tests).
    # ------------------------------------------------------------------
    def on_event(self, event: E.ProtocolEvent) -> tuple[C.Command, ...]:
        """Feed one event; returns the commands the backend must run."""
        if isinstance(event, E.Start):
            if self.all_done:
                return (C.Done("done"),)
            return (C.AwaitMessage(tags=(Tag.PROFILE,)),)
        if isinstance(event, E.MessageReceived):
            return self._pump_message(event.msg)
        if isinstance(event, E.PeerDead):
            self.prune_dead({event.peer})
            return self._serve_ready()
        if isinstance(event, E.PeerLeft):
            # Planned departure: same pruning as a death — the departed
            # node's residual work is re-granted by the backend, not
            # planned over.
            self.prune_dead({event.peer})
            return self._serve_ready()
        if isinstance(event, E.PeerJoined):
            self.admit(event.peer, event.group)
            return self._serve_ready()
        raise ProtocolError(f"balancer cannot handle {event!r}")

    def _pump_message(self, msg: Message) -> tuple[C.Command, ...]:
        if not isinstance(msg, ProfileMsg):
            if self.all_done:
                return (C.Done("done"),)
            return (C.AwaitMessage(tags=(Tag.PROFILE,)),)
        self.note_alive(msg.src)
        gid = self.group_of.get(msg.src, msg.group)
        epoch = self.group_epoch.get(gid, 0)
        if gid in self.groups_done or msg.epoch < epoch:
            # Stale duplicate: the sender never got its instruction.
            cached = self.cached_instruction(msg.src, msg.epoch)
            cmds: tuple[C.Command, ...] = ()
            if cached is not None:
                cmds = (C.Send(cached),)
            if self.all_done:
                return cmds + (C.Done("done"),)
            return cmds + (C.AwaitMessage(tags=(Tag.PROFILE,)),)
        self.absorb(msg, group=gid)
        return self._serve_ready()

    def _serve_ready(self) -> tuple[C.Command, ...]:
        cmds: list[C.Command] = []
        while self.ready:
            gid = self.ready.popleft()
            epoch = self.group_epoch[gid]
            profiles = self.group_profiles(gid)
            # Distribution calculation plus the context switches in and
            # out of the balancer on the shared master processor.
            cmds.append(C.Charge(self.policy.delta_seconds
                                 + 2.0 * self.policy.context_switch_seconds))
            plan = self.plan(profiles)
            cmds.append(C.RecordSync(gid, epoch, plan))
            if self.emit_trace:
                cmds.append(C.emit(
                    "decision", node=self.host, group=gid, epoch=epoch,
                    reason=plan.reason,
                    moved=plan.work_to_move if plan.move else 0.0,
                    n_transfers=len(plan.transfers)))
            cmds += [C.Send(instr)
                     for instr in self.build_instructions(gid, plan)]
            self.complete_group(gid, plan)
        if self.all_done:
            return tuple(cmds + [C.Done("done")])
        return tuple(cmds + [C.AwaitMessage(tags=(Tag.PROFILE,))])
