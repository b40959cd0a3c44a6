"""The central balancer side of the DLB protocol as a pure state machine.

:class:`BalancerProtocol` owns the master's protocol state — per-group
profile boxes, the ready queue, group epochs and active sets, the
cached-instruction table that recovers lost INSTRUCTIONs, and the probe
clocks of the pull-based failure detector.  It has no clock, transport,
or process model, and one way in: :meth:`BalancerProtocol.on_event`,
fed by :func:`repro.backend.driver.drive` on every backend (the
simulator's port is :class:`~repro.runtime.balancer.CentralBalancer`;
the socket hub answers the pump's wait from its event loop).
What only one backend can supply reaches the pump through two optional
ports, ``None`` everywhere but the simulator: :attr:`select` (the §4.3
customized selection) and :attr:`claim_orphans` (the fault controller's
reclaim pool).

Progress is an invariant, not a detector's job: *between two syncs of a
group, a member executes an iteration, a whole iteration changes hands,
or a member retires* — every planned order ships a whole iteration, a
node a plan leaves holding nothing retires
(:mod:`repro.core.redistribution`), and a worker holding work executes
an iteration per epoch before it honours an interrupt
(``NodeRuntime._stop_at_boundary``, ``Reporter.compute``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Callable, Optional, Sequence

from ..apps.workload import WorkTable
from ..core.policy import DlbPolicy
from ..core.redistribution import (
    MovementCostFn,
    SyncProfile,
    plan_redistribution,
)
from ..message.messages import (
    ControlMsg,
    InstructionMsg,
    Message,
    ProfileMsg,
    Tag,
)
from ..runtime.assignment import merge_ranges
from ..runtime.options import FaultToleranceConfig
from . import commands as C
from . import events as E
from .errors import ProtocolError

__all__ = ["BalancerProtocol"]

Range = tuple[int, int]


class BalancerProtocol:
    """Pure protocol state machine for the central load balancer.

    The public surface is :meth:`on_event`, :attr:`all_done`,
    :meth:`regroup` and the state attributes.
    """

    def __init__(self, host: int, groups: Sequence[Sequence[int]], *,
                 policy: DlbPolicy,
                 table: WorkTable,
                 movement_cost_fn: Optional[MovementCostFn] = None,
                 ft: Optional[FaultToleranceConfig] = None) -> None:
        self.host = host
        self.groups = [list(members) for members in groups]
        self.group_of = {node: g for g, members in enumerate(self.groups)
                         for node in members}
        self.policy = policy
        self.table = table
        self.movement_cost_fn = movement_cost_fn
        self.ft = ft or FaultToleranceConfig()
        #: §4.3 port: called once, with the first service's profiles;
        #: returns ``(scheme code, group size, stays)`` — ``stays`` false
        #: when a distributed scheme takes over and the balancer retires.
        self.select: Optional[
            Callable[[list[SyncProfile]], tuple[str, int, bool]]] = None
        #: Recovery port: called at every service start; hands over the
        #: reclaim pool as ``(ranges, their work in seconds)``.
        self.claim_orphans: Optional[
            Callable[[], tuple[tuple[Range, ...], float]]] = None

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

    @property
    def all_done(self) -> bool:
        return len(self.groups_done) >= len(self.groups)

    def regroup(self, groups: Sequence[Sequence[int]]) -> None:
        """Rebuild group bookkeeping under the newly selected scheme
        (§4.3): whoever is still active starts epoch 1 in its new
        group; a balancer that finished or retired stays finished."""
        active = set() if self.all_done \
            else set().union(*self.group_active.values())
        self.groups = [list(members) for members in groups]
        self.group_of = {node: g for g, members in enumerate(self.groups)
                         for node in members}
        self.pending.clear()
        self.ready.clear()
        self.group_active = {
            g: set(members) & active
            for g, members in enumerate(self.groups)}
        self.group_epoch = {g: 1 for g in range(len(self.groups))}
        self.groups_done = {g for g, mem in self.group_active.items()
                            if not mem}
        self.probe_rounds = {}

    def on_event(self, event: E.ProtocolEvent) -> tuple[C.Command, ...]:
        """Feed one event; returns the commands the backend must run."""
        if isinstance(event, E.Start):
            return self._rearm()
        if isinstance(event, E.MessageReceived):
            return self._pump_message(event.msg)
        if isinstance(event, (E.PeerDead, E.PeerLeft)):
            # A planned departure prunes like a death: the departed
            # node's residual work is re-granted by the backend, not
            # planned over.
            self._prune_dead(event.peer)
            return self._serve_ready()
        if isinstance(event, E.PeerJoined):
            self._admit(event.peer, event.group)
            return self._serve_ready()
        if isinstance(event, E.TimerFired):
            return self._probe_round()
        raise ProtocolError(f"balancer cannot handle {event!r}")

    # ------------------------------------------------------------------
    # Transitions.
    # ------------------------------------------------------------------
    def _rearm(self) -> tuple[C.Command, ...]:
        """A batch's continuation: the next profile, or the end."""
        if self.all_done:
            return (C.Done("done"),)
        return (C.AwaitMessage(tags=(Tag.PROFILE,)),)

    def _pump_message(self, msg: Message) -> tuple[C.Command, ...]:
        if not isinstance(msg, ProfileMsg):
            return self._rearm()
        # Any profile — fresh, duplicate or stale — proves its sender
        # alive.  Only the *sender's* probe clock resets: a chatty
        # waiter cannot defer the verdict on its silent group-mates.
        self.probe_rounds.pop(msg.src, None)
        gid = self.group_of.get(msg.src, msg.group)
        if gid in self.groups_done or msg.epoch < self.group_epoch.get(gid, 0):
            # Stale duplicate: the sender never got its instruction —
            # resend the cached one (a finished pump keeps doing so).
            cached = self.last_instruction.get(msg.src)
            if cached is not None and cached.epoch == msg.epoch:
                return (C.Send(cached),) + self._rearm()
            return self._rearm()
        # File the profile; the group is ready once every active member
        # has reported.
        box = self.pending.setdefault(gid, {})
        box[msg.src] = SyncProfile.of(msg)
        if set(box) >= self.group_active.get(gid, set()) \
                and gid not in self.ready:
            self.ready.append(gid)
        return self._serve_ready()

    def _admit(self, node: int, gid: int = 0) -> None:
        """Elastic membership: accept ``node`` into group ``gid``.

        The joiner counts toward the group's profile quorum from now
        on; with no work assigned it synchronizes immediately (a joiner
        *is* the paper's "processor with no work left"), so the next
        plan reshapes the iteration range onto the new set.
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

    def _prune_dead(self, dead: int) -> None:
        """Fold one death (or departure) into its group's membership
        and readiness."""
        gid = self.group_of.get(dead)
        members = self.group_active.get(gid, ())
        if gid in self.groups_done or dead not in members:
            return
        members.discard(dead)
        # A profile from a node since declared dead: its work was
        # reclaimed into the pool, so planning with it would
        # double-count.
        box = self.pending.get(gid, {})
        box.pop(dead, None)
        if not members:
            self.groups_done.add(gid)
            if gid in self.ready:
                self.ready.remove(gid)
        elif set(box) >= members and gid not in self.ready:
            self.ready.append(gid)

    def _probe_round(self) -> tuple[C.Command, ...]:
        """The pull-based failure detector (``TimerFired``: nothing
        arrived for a liveness period).  Every member whose profile is
        missing gets a ``resend-profile`` — for a live member it doubles
        as a synchronization interrupt, and a member stuck in an older
        epoch answers with a stale profile, which still proves it alive
        — and one more round on its own clock; a member whose clock
        already stands at ``max_retries`` unanswered rounds is declared
        dead instead.  The registry's verdict comes back as
        ``PeerDead``, which completes the group on its survivors."""
        cmds: list[C.Command] = []
        rounds = self.probe_rounds
        for gid, members in self.group_active.items():
            if gid in self.groups_done:
                continue
            missing = sorted(members - set(self.pending.get(gid, ())))
            overdue = [node for node in missing
                       if rounds.get(node, 0) >= self.ft.max_retries]
            for node in overdue:
                del rounds[node]
                cmds.append(C.DeclareDead(node))
            for node in missing:
                if node not in overdue:
                    rounds[node] = rounds.get(node, 0) + 1
                    cmds.append(C.Send(ControlMsg(
                        src=self.host, dst=node, epoch=self.group_epoch[gid],
                        kind="resend-profile")))
        return tuple(cmds) + self._rearm()

    def _serve_ready(self) -> tuple[C.Command, ...]:
        """Plan and instruct every ready group, serially."""
        cmds: list[C.Command] = []
        policy = self.policy
        while self.ready:
            gid = self.ready.popleft()
            epoch = self.group_epoch[gid]
            profiles = sorted(self.pending.pop(gid, {}).values(),
                              key=lambda p: p.node)
            granted: tuple[Range, ...] = ()
            if self.claim_orphans is not None and profiles:
                # Reclaimed work re-enters balancing through the lowest
                # member: granted in its instruction (it adds the ranges
                # before applying the plan), counted in its profile.
                granted, work = self.claim_orphans()
                if granted:
                    low = profiles[0]
                    profiles[0] = replace(
                        low, remaining_work=low.remaining_work + work,
                        remaining_count=low.remaining_count
                        + sum(e - s for s, e in granted),
                        ranges=tuple(merge_ranges(low.ranges + granted)))
            scheme, group_size, stays = "", 0, True
            if self.select is not None:
                # §4.3: evaluate the model at the first synchronization
                # point and commit to the best scheme for the loop.
                select, self.select = self.select, None
                scheme, group_size, stays = select(profiles)
                cmds.append(C.Charge(policy.selection_seconds))
            # Distribution calculation plus the context switches in and
            # out of the balancer on the shared master processor.
            cmds.append(C.Charge(policy.delta_seconds
                                 + 2.0 * policy.context_switch_seconds))
            plan = plan_redistribution(profiles, policy, self.table,
                                       self.movement_cost_fn)
            cmds.append(C.RecordSync(gid, epoch, plan))
            for node in sorted(self.group_active[gid]):
                incoming = plan.incoming(node)
                instr = InstructionMsg(
                    src=self.host, dst=node, epoch=epoch, group=gid,
                    outgoing=plan.outgoing(node), incoming=len(incoming),
                    incoming_srcs=tuple(t.src for t in incoming)
                    if self.ft.enabled else (),
                    grant=granted if node == profiles[0].node else (),
                    retire=node in plan.retire, done=plan.done,
                    active=plan.active,
                    select_scheme=scheme, select_group_size=group_size)
                if self.ft.enabled:
                    self.last_instruction[node] = instr
                cmds.append(C.Send(instr))
            if not stays:
                # A distributed scheme was chosen: the balancer retires.
                self.groups_done = set(range(len(self.groups)))
            elif plan.done or not plan.active:
                self.groups_done.add(gid)
            else:
                self.group_active[gid] = set(plan.active)
                self.group_epoch[gid] = epoch + 1
                for node in plan.active:
                    self.probe_rounds.pop(node, None)
        return tuple(cmds) + self._rearm()
