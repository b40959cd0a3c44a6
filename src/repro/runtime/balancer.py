"""The central load balancer's discrete-event adapter (GCDLB/LCDLB, §3.5).

One balancer lives on the master processor (which also computes).  It
collects profile messages, and once a group's set is complete it
computes the new distribution and sends instructions — *serially*, one
group after another, which is precisely what produces the paper's LCDLB
delay factor (§4.2): groups whose profiles complete while the balancer
is busy wait in its mailbox queue.

The protocol itself — profile boxes, the ready queue, group epochs,
instruction construction, cached-instruction recovery, probe clocks —
lives in the backend-agnostic
:class:`~repro.protocol.balancer.BalancerProtocol`.  This adapter owns
what only the simulation knows about: the event-heap receive loop,
stealing CPU from the co-located compute slave (each service charges a
context switch + the distribution calculation through
:meth:`NodeRuntime.steal`), and the §4.3 customized selection, which
consults the session's model before normal service resumes under the
winning scheme.

Fault tolerance (docs/FAULT_MODEL.md)
-------------------------------------
With ``options.fault_tolerance.enabled`` the balancer becomes a
pull-based failure detector.  Instead of blocking forever on the next
profile it wakes every ``liveness_timeout`` seconds and probes the
missing members of incomplete groups with ``resend-profile`` requests
(for a live member the probe doubles as a synchronization interrupt);
after ``max_retries`` silent probe rounds the missing members are
declared dead to the :class:`~repro.faults.FaultController`, which
reclaims their unfinished iterations into the orphan pool.  The
balancer grants the pool to a surviving group member at the next
service, folds it into that member's profile so the plan rebalances it,
and keeps answering re-sent profiles with cached instructions (lost
INSTRUCTION recovery) until every slave has exited.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Generator, Optional

from ..core.redistribution import SyncProfile
from ..message.messages import ControlMsg, InstructionMsg, ProfileMsg, Tag
from ..protocol.balancer import BalancerProtocol
from ..simulation import Event
from .session import LoopSession

__all__ = ["CentralBalancer"]


class CentralBalancer:
    """Asynchronous central balancer serving one or more groups."""

    def __init__(self, session: LoopSession) -> None:
        self.session = session
        self.host = session.lb_host
        self.protocol = BalancerProtocol(
            session.lb_host, session.groups,
            policy=session.policy,
            mean_iteration_time=session.mean_iteration_time,
            movement_cost_fn=session.movement_cost_fn,
            ft=session.ft)

    # -- protocol-state views ------------------------------------------------
    @property
    def pending(self) -> dict[int, dict[int, SyncProfile]]:
        return self.protocol.pending

    @property
    def ready(self) -> deque[int]:
        return self.protocol.ready

    @property
    def group_active(self) -> dict[int, set[int]]:
        return self.protocol.group_active

    @property
    def group_epoch(self) -> dict[int, int]:
        return self.protocol.group_epoch

    @property
    def groups_done(self) -> set[int]:
        return self.protocol.groups_done

    @groups_done.setter
    def groups_done(self, value: set[int]) -> None:
        self.protocol.groups_done = value

    @property
    def _last_instruction(self) -> dict[int, InstructionMsg]:
        return self.protocol.last_instruction

    @property
    def _probe_rounds(self) -> dict[int, int]:
        return self.protocol.probe_rounds

    # -- helpers ------------------------------------------------------------
    def _absorb(self, msg: ProfileMsg) -> None:
        # group_of is read from the session (not the protocol) because a
        # mid-loop CUSTOM selection rewrites the session's grouping.
        self.protocol.absorb(
            msg, group=self.session.group_of.get(msg.src, msg.group))

    def _service_wall_time(self, work_seconds: float) -> float:
        """Wall time of balancer computation on the (loaded) master."""
        ws = self.session.stations[self.host]
        return ws.time_to_complete(self.session.env.now, work_seconds) \
            - self.session.env.now

    def _steal_and_work(self, work_seconds: float
                        ) -> Generator[Event, None, None]:
        """Charge balancer computation, pausing a co-located compute."""
        wall = self._service_wall_time(work_seconds)
        node = self.session.nodes.get(self.host)
        if node is not None:
            node.steal(wall)
        yield self.session.env.timeout(wall)

    # -- main loop ----------------------------------------------------------
    def run(self) -> Generator[Event, None, None]:
        session = self.session
        vm = session.vm
        if not session.ft.enabled:
            while not self.protocol.all_done:
                msg = yield vm.recv(self.host, Tag.PROFILE)
                assert isinstance(msg, ProfileMsg)
                self._absorb(msg)
                while True:
                    gid = self.protocol.take_ready()
                    if gid is None:
                        break
                    yield from self._serve(gid)
            return
        yield from self._run_hardened()

    def _run_hardened(self) -> Generator[Event, None, None]:
        session = self.session
        vm = session.vm
        env = session.env
        ft = session.ft
        while not self.protocol.all_done:
            request = vm.recv(self.host, Tag.PROFILE)
            if not request.triggered:
                yield env.any_of(
                    [request, env.timeout(ft.liveness_timeout)])
            if request.triggered:
                msg = request.value
                yield from self._absorb_hardened(msg)
            else:
                vm.inbox[self.host].cancel(request)
                yield from self._probe_silent_groups()
            self._prune_dead()
            while True:
                gid = self.protocol.take_ready()
                if gid is None:
                    break
                yield from self._serve(gid)
        yield from self._lame_duck()

    def _absorb_hardened(self, msg: ProfileMsg
                         ) -> Generator[Event, None, None]:
        """Absorb a profile; a stale duplicate means the sender never got
        its instruction, so resend the cached one."""
        gid = self.session.group_of.get(msg.src, msg.group)
        epoch = self.group_epoch.get(gid, 0)
        # Any profile — fresh, duplicate or stale — proves its sender is
        # alive.  Only the *sender's* probe clock resets: a chatty
        # waiter cannot defer the verdict on its silent group-mates.
        self.protocol.note_alive(msg.src)
        if gid in self.groups_done or msg.epoch < epoch:
            cached = self.protocol.cached_instruction(msg.src, msg.epoch)
            if cached is not None:
                yield from self.session.vm.send(cached)
            return
        self._absorb(msg)

    def _probe_silent_groups(self) -> Generator[Event, None, None]:
        """Pull-based heartbeat: nudge members whose profile is overdue.

        For a live member the ``resend-profile`` control doubles as a
        synchronization interrupt (it answers at its next iteration
        boundary; a member stuck in an older epoch answers with a stale
        profile, which still proves it is alive).  A member whose *own*
        probe clock reaches ``max_retries`` unanswered rounds is
        declared dead.
        """
        session = self.session
        controller = session.controller
        protocol = self.protocol
        for gid in range(len(session.groups)):
            if gid in self.groups_done:
                continue
            alive = {n for n in self.group_active.get(gid, set())
                     if not session.is_dead(n)}
            missing = alive - set(self.pending.get(gid, {}))
            if not missing:
                continue
            overdue = protocol.overdue_members(gid, alive)
            for node in overdue:
                if controller is not None:
                    controller.declare_dead(node, by=self.host)
                protocol.note_alive(node)  # clear its probe clock
            probed = [node for node in sorted(missing)
                      if node not in overdue]
            if not probed:
                continue  # _prune_dead completes the group bookkeeping
            if controller is not None:
                controller.note_retry()
            epoch = self.group_epoch[gid]
            for node in probed:
                protocol.probe_rounds[node] = \
                    protocol.probe_rounds.get(node, 0) + 1
                yield from session.vm.send(ControlMsg(
                    src=self.host, dst=node, epoch=epoch,
                    kind="resend-profile"))

    def _prune_dead(self) -> None:
        """Fold death declarations into group membership and readiness."""
        controller = self.session.controller
        if controller is None or not controller.declared:
            return
        self.protocol.prune_dead(controller.declared)

    def _lame_duck(self) -> Generator[Event, None, None]:
        """After the last group finishes, keep answering lost-instruction
        retries until every slave process has exited — otherwise a node
        whose DONE instruction was dropped would exhaust its retries
        against a silent (exited) master."""
        session = self.session
        vm = session.vm
        env = session.env
        ft = session.ft

        def slaves_alive() -> bool:
            return any(rt.proc is not None and rt.proc.is_alive
                       for rt in session.nodes.values())

        while slaves_alive():
            request = vm.recv(self.host, Tag.PROFILE)
            if not request.triggered:
                yield env.any_of(
                    [request, env.timeout(ft.liveness_timeout)])
            if not request.triggered:
                vm.inbox[self.host].cancel(request)
                continue
            msg = request.value
            cached = self.protocol.cached_instruction(msg.src)
            if cached is not None:
                yield from vm.send(cached)

    def _grant_orphans(self, profiles: list[SyncProfile]
                       ) -> tuple[tuple[int, int], ...]:
        """Fold the orphan pool into the lowest-numbered member's profile.

        Returns the granted ranges (sent in that member's instruction);
        the receiving node adds them to its assignment before applying
        the plan, so reclaimed work re-enters balancing immediately.
        """
        controller = self.session.controller
        if controller is None or not controller.has_orphans or not profiles:
            return ()
        granted = tuple(controller.claim_orphans())
        table = self.session.table
        extra_work = sum(table.range_work(s, e) for s, e in granted)
        extra_count = sum(e - s for s, e in granted)
        target = profiles[0]
        profiles[0] = replace(
            target, remaining_work=target.remaining_work + extra_work,
            remaining_count=target.remaining_count + extra_count)
        return granted

    def _serve(self, gid: int) -> Generator[Event, None, None]:
        session = self.session
        policy = session.policy
        vm = session.vm
        protocol = self.protocol
        profiles = protocol.group_profiles(gid)
        granted = self._grant_orphans(profiles) if session.ft.enabled else ()

        selection: Optional[tuple[str, int]] = None
        if session.selector is not None and not session._selected:
            # §4.3: evaluate the model at the first synchronization point
            # and commit to the best scheme for the rest of the loop.
            scheme_code, group_size, report = session.selector(
                session, profiles)
            session.stats.selection_report = report
            yield from self._steal_and_work(policy.selection_seconds)
            selection = (scheme_code, group_size)

        # Distribution calculation plus the context switches in and out
        # of the balancer on the shared master processor.
        yield from self._steal_and_work(
            policy.delta_seconds + 2.0 * policy.context_switch_seconds)

        plan = protocol.plan(profiles)
        session.record_plan(gid, protocol.group_epoch[gid], plan)

        grant_dst = profiles[0].node if granted else None
        instructions = protocol.build_instructions(
            gid, plan, granted=granted, grant_dst=grant_dst,
            selection=selection)
        yield from vm.multicast(instructions)

        if selection is not None:
            session.apply_selection(*selection)
            protocol.reconfigure_after_selection(session.groups, plan.active)
            if plan.done or not session.strategy.centralized:
                # Work already finished, or a distributed scheme was
                # chosen: the central balancer retires either way.
                self.groups_done = set(range(len(session.groups)))
            return

        protocol.complete_group(gid, plan)
