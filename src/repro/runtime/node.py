"""The discrete-event driver of the SPMD slave protocol.

This is the run-time counterpart of the paper's Figure 3 slave loop::

    while (dlb.more_work) {
        for (i = dlb.start; i < dlb.end && dlb.more_work; i++) {
            ... loop body ...
            if (DLB_slave_sync(&dlb) && dlb.interrupt)
                DLB_profile_send_move_work(&dlb);
        }
        if (dlb.more_work) {
            DLB_send_interrupt(&dlb);
            DLB_profile_send_move_work(&dlb);
        }
    }

The *protocol* — epochs, profiles, the synchronization exchange,
redistribution, the fault-tolerance transitions — lives in the
backend-agnostic :class:`~repro.protocol.worker.WorkerProtocol`, and
``NodeRuntime`` drives it exactly as :func:`repro.backend.driver.drive`
does for the thread, process and socket workers: events into
``protocol.on_event``, the returned commands run against the backend —
here the simulator, through the interpreter it shares with the central
balancer (:class:`~repro.runtime.port.SimPort`: ``Send`` is a
``vm.send``, ``AwaitMessage`` a timed mailbox receive whose predicate
is ``AwaitMessage.matches``, ``Charge`` a timeout through the
workstation's load model).  What stays here is what only a simulated
*worker* knows:

* the analytic compute slice — one timeout per slice instead of one per
  iteration — with the mid-compute steals of a co-located balancer or
  fault injector, and the periodic-sync ablation's clock;
* *when* a sync starts: the mailbox hook that interrupts a computing
  process, and whether this node initiates (``ComputeDone("finished")``)
  or answers (``"interrupted"``);
* the fault controller's hooks at the port: the parcel ledger, the
  orphan pool, the shared death registry and fencing;
* the §4.3 customized selection, which regroups the session mid-run.

Protocol state (epoch, active set, assignment, performance window,
resend caches) is read *only* through the protocol object.

Fault tolerance (docs/FAULT_MODEL.md)
-------------------------------------
When ``options.fault_tolerance.enabled`` the pump's waits carry
timeouts; on expiry it re-requests (``resend-profile`` /
``resend-work``) with exponential backoff and, after ``max_retries``
unanswered requests, *declares the peer dead* — here to the session's
:class:`~repro.faults.FaultController`, which fences it and reclaims
its unfinished iteration ranges into the orphan pool.  Syncing
survivors claim pooled ranges before profiling so reclaimed work
re-enters the normal redistribution flow.  A ``resend-profile`` request
addressed to a node that has not reached the requested epoch doubles as
a synchronization interrupt — which is also how a *dropped* interrupt
heals.  With fault tolerance disabled (the default) none of these paths
allocate a single extra event.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Optional

from ..message.messages import (
    ControlMsg,
    InstructionMsg,
    InterruptMsg,
    Message,
    Tag,
    stale_predicate,
)
from ..protocol import commands as C
from ..protocol import events as E
from ..protocol.errors import ProtocolRetryExhausted
from ..simulation import (Event, Interrupt, Process,
                          RetryExhaustedError, SlotFilter)
from .assignment import Assignment
from .port import SimPort
from .session import LoopSession

__all__ = ["NodeRuntime"]

_EPS = 1e-15


class NodeRuntime(SimPort):
    """One simulated processor: the worker protocol's DES driver."""

    def __init__(self, session: LoopSession, node_id: int) -> None:
        self.session = session
        self.me = node_id
        self.ws = session.stations[node_id]
        spec = session.plan.workers[node_id]
        self.gid = spec.group
        self.protocol = spec.build_protocol(
            table=session.table,
            movement_cost_fn=session.plan.movement_cost_fn,
            planner=session.planner, initial_rate=self.ws.speed)
        self.computing = False
        self.finish_time: Optional[float] = None
        self.proc: Optional[Process] = None
        # Trace sink (the shared no-op unless a recorder was supplied).
        # All recording below is pure observation inside existing
        # callbacks — it never schedules a DES event, so the seed
        # oracles hold with recording enabled.
        self.rec = session.recorder
        self.track = f"node{node_id}"
        # Periodic synchronization (Dome/Siegell model, §2.2 ablation):
        # the lowest-numbered active group member is the clock; under
        # neighbour scope every node is its own.  A static run has no
        # sync to clock.
        self.periodic = (session.options.sync_mode == "periodic"
                         and session.strategy.is_dlb)
        self.next_deadline = session.env.now + session.options.sync_period

        session.nodes[node_id] = self
        session.vm.inbox[node_id].notify = self._on_message

    # -- protocol-state views ------------------------------------------------
    # The protocol object is the single owner of epoch, membership,
    # window, caches, and the assignment; these views keep the executor,
    # the fault controller, and the tests on one source of truth.
    @property
    def ft_enabled(self) -> bool:
        return self.session.ft.enabled

    @property
    def epoch(self) -> int:
        return self.protocol.epoch

    @property
    def active(self) -> set[int]:
        return self.protocol.active

    @property
    def assignment(self) -> Assignment:
        return self.protocol.assignment

    @property
    def more_work(self) -> bool:
        return self.protocol.more_work

    @more_work.setter
    def more_work(self, value: bool) -> None:
        self.protocol.more_work = value

    # -- interrupt wiring ---------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        """Mailbox hook: interrupts, plus resend service under faults."""
        if (msg.tag is Tag.INTERRUPT and msg.epoch == self.epoch
                and self.computing and self.proc is not None
                and self.proc.is_alive):
            self.computing = False
            self.proc.interrupt("sync")
        elif self.ft_enabled and msg.tag is Tag.CONTROL \
                and isinstance(msg, ControlMsg):
            self._serve_control(msg)

    def _serve_control(self, msg: ControlMsg) -> None:
        """Answer a peer's resend request (runs inside the delivery hook,
        so the actual send is a detached helper process)."""
        if (msg.kind == "resend-profile" and msg.epoch == self.epoch
                and self.computing and self.proc is not None
                and self.proc.is_alive):
            # We have not synchronized this epoch yet: the request
            # doubles as a (possibly lost) synchronization interrupt.
            self.computing = False
            self.proc.interrupt("sync")
            return
        reply = self.protocol.answer_resend(msg)
        if reply is not None:
            self.session.env.process(
                self.session.vm.send(reply),
                name=f"{msg.kind}-reply{self.me}->{msg.src}")

    def steal(self, duration: float) -> bool:
        """Pause this node's computation for ``duration`` seconds.

        Called by a co-located central balancer to model the context
        switch between the balancer and the computation slave (§6.2's
        LCDLB overhead), and by the fault injector to model transient
        slowdowns/freezes.  Returns False when the node is not computing.
        """
        if self.computing and self.proc is not None and self.proc.is_alive:
            self.computing = False
            self.rec.event("steal", track=self.track, duration=duration)
            self.proc.interrupt(("steal", duration))
            return True
        return False

    def _pending_interrupt(self) -> Optional[Message]:
        # Structured filter: the slotted inbox answers this probe with a
        # single (tag, epoch) bucket lookup; it runs between iterations.
        return self.session.vm.inbox[self.me].peek(
            SlotFilter(Tag.INTERRUPT, self.epoch))

    # -- reclaimed work -----------------------------------------------------
    def _claim_orphans(self) -> int:
        """Absorb reclaimed orphan ranges before profiling (distributed
        schemes; the central balancer grants the pool explicitly)."""
        controller = self.session.controller
        if controller is None or not controller.has_orphans:
            return 0
        ranges = controller.claim_orphans()
        self.assignment.add(ranges)
        return sum(e - s for s, e in ranges)

    def _drain_stale(self) -> None:
        """Hardened mode: clear superseded control traffic and absorb
        late WORK from past epochs, before profiling.

        Staleness is decided in one place —
        :func:`repro.message.messages.stale_predicate` — not per call
        site.
        """
        if not self.ft_enabled:
            return
        inbox = self.session.vm.inbox[self.me]
        epoch = self.epoch
        inbox.drain(stale_predicate(
            epoch, (Tag.CONTROL, Tag.PROFILE, Tag.INSTRUCTION)))
        controller = self.session.controller
        late = inbox.drain(stale_predicate(epoch, (Tag.WORK,)))
        for msg in late:
            if controller is None:
                self.assignment.add(msg.ranges)
                continue
            ranges = controller.try_consume(msg.src, self.me, msg.epoch)
            if ranges is None:
                continue  # duplicate of something already absorbed
            self.assignment.add(ranges if ranges else msg.ranges)

    # -- main loop ----------------------------------------------------------
    def run(self) -> Generator[Event, None, None]:
        """The node's top-level simulated process: pump the protocol
        from ``Start`` to ``Done``."""
        session = self.session
        env = session.env
        feed = self.protocol.on_event
        if session.is_crashed(self.me):
            return  # crashed during staging, before the loop began
        inbox = session.vm.inbox[self.me]
        commands = feed(E.Start())
        synced = False
        while True:
            then = yield from self._execute(commands)
            kind = type(then)
            if kind is C.StartCompute:
                if synced:
                    self.next_deadline = env.now + session.options.sync_period
                    # The sync is over and the epoch has moved on: the
                    # interrupts that called for it are spent (the real
                    # backends' ``Inbox`` drains at the same point).
                    inbox.drain(stale_predicate(self.epoch, (Tag.INTERRUPT,)))
                synced = True
                commands = feed((yield from self._compute_until_sync()))
            elif kind is C.AwaitMessage:
                commands = yield from self._await(then)
            elif kind is C.Charge:  # spent by the interpreter, in place
                commands = feed(E.Charged())
            elif (then.reason == "done" and self.ft_enabled
                    and not session.centralized and self._claim_orphans()):
                commands = feed(E.WorkReclaimed())
            else:
                break
        inbox.drain(stale_predicate(self.epoch, (Tag.INTERRUPT,),
                                    inclusive=True))  # the last sync's
        controller = session.controller
        if controller is not None and not self.assignment.empty:
            # A hardened retiree with late reclaimed work and nobody
            # left to ship it to: orphan it.
            controller.pool_ranges(self.assignment.take_all())
        self.finish_time = env.now

    def _await(self, spec: C.AwaitMessage
               ) -> Generator[Event, None, tuple[C.Command, ...]]:
        """Block on ``spec``; returns the pump's answer to what came."""
        session = self.session
        controller = session.controller
        feed = self.protocol.on_event
        msg = yield from self._recv_timed(spec)
        if msg is not None:
            if msg.tag is Tag.WORK and msg.ranges and controller is not None \
                    and controller.try_consume(msg.src, self.me,
                                               msg.epoch) is None:
                # Duplicate of something already absorbed (or swept into
                # the pool): the wait is over, the ranges are not ours.
                msg = replace(msg, ranges=())
            elif msg.tag is Tag.INSTRUCTION and msg.select_scheme:
                msg = self._adopt_selection(msg)
            return feed(E.MessageReceived(msg))
        # Timed out.  Peers the shared registry already holds dead leave
        # the wait first; the timer fires for whoever is still awaited.
        dead = [p for p in spec.srcs or () if session.is_dead(p)]
        commands: tuple[C.Command, ...] = ()
        for peer in dead:
            commands = feed(E.PeerDead(peer))
        if spec.srcs is None or len(dead) < len(spec.srcs):
            try:
                commands = feed(E.TimerFired())
            except ProtocolRetryExhausted as exc:
                raise RetryExhaustedError(exc.me, exc.peer, exc.what,
                                          exc.attempts) from exc
            if controller is not None \
                    and any(type(c) is C.Send for c in commands):
                controller.note_retry()  # one per round that re-requests
        return commands

    def _adopt_selection(self, instr: InstructionMsg) -> InstructionMsg:
        """§4.3: commit the session — and this worker — to the selected
        scheme, and hand the pump a plain instruction whose active set
        is cut to the worker's *new* group."""
        session = self.session
        session.apply_selection(instr.select_scheme,
                                instr.select_group_size)
        self.gid = session.group_of[self.me]
        protocol = self.protocol
        protocol.group = self.gid
        protocol.members = tuple(session.scope_of(self.me))
        protocol.centralized = session.centralized
        protocol.planner = session.planner
        return replace(
            instr, select_scheme="", select_group_size=0,
            active=tuple(n for n in instr.active if n in protocol.members))

    def _compute_until_sync(self) -> Generator[Event, None, E.ComputeDone]:
        """Compute until a synchronization is due; returns how it began.

        Interrupt *initiation* is the compute side's decision:
        ``"finished"`` asks the pump to interrupt the group
        (receiver-initiated, §3.1); when a peer's interrupt is already
        pending, or the periodic clock did the interrupting, this node
        only answers.
        """
        session = self.session
        while True:
            status = yield from self._compute()
            others = self.active - {self.me}
            if status == "finished" and not others \
                    and not session.centralized:
                if self._claim_orphans():
                    continue  # reclaimed a dead peer's work: keep going
                return E.ComputeDone("finished")  # lone: nothing to sync
            by: Optional[int] = None
            if self.periodic and self.protocol.neighbour_scope:
                if status == "finished":
                    by = yield from self._idle_to_deadline()
                status = "interrupted"
            elif self.periodic:
                proceed = yield from self._periodic_trigger(
                    status, sorted(others))
                if not proceed:
                    continue
                status = "interrupted"
            elif status == "finished" and others \
                    and self._pending_interrupt() is not None:
                status = "interrupted"  # a peer got there first
            # Late work parcels from previous epochs and reclaimed
            # orphans re-enter balancing through our profile.
            self._drain_stale()
            if self.ft_enabled and not session.centralized:
                self._claim_orphans()
            if by is None and status == "interrupted":
                interrupt = self._pending_interrupt()
                by = None if interrupt is None else interrupt.src
            return E.ComputeDone(status, by=by)

    def _is_clock(self) -> bool:
        """The periodic-mode initiator of a *group*: its lowest-numbered
        active member.  Under neighbour scope there is no set of nodes
        that agree on an active set, so every node keeps its own clock."""
        return self.protocol.neighbour_scope or self.me == min(self.active)

    def _idle_to_deadline(self) -> Generator[Event, None, Optional[int]]:
        """Periodic mode under neighbour scope: a finisher idles until
        its own deadline, or until a neighbour's wave reaches it.

        Returns the interrupter (the wave does not go back to whom it
        came from), ``None`` when this node's clock ran out first: the
        pump then interrupts every active neighbour, as it does for any
        node stopped with no interrupt pending.  A lost interrupt costs
        the rest of the period at most, so the wait needs no hardening.
        """
        msg = yield from self._recv_timed(C.AwaitMessage(
            tags=(Tag.INTERRUPT,), epoch=self.epoch,
            timeout=max(self.next_deadline - self.session.env.now, 0.0)))
        return None if msg is None else msg.src

    def _periodic_trigger(self, status: str, others: list[int]):
        """Timer-based synchronization entry (sync_mode="periodic").

        Returns True when the node should proceed into the sync, False
        when it should resume computing (spurious wakeup).
        """
        session = self.session
        env = session.env
        ft = session.ft
        if status == "deadline" or (status == "finished"
                                    and self._is_clock()):
            # The clock waits out the rest of the period (it may have
            # finished early), then interrupts the group.
            if env.now < self.next_deadline \
                    and self._pending_interrupt() is None:
                yield env.timeout(self.next_deadline - env.now)
            if others and self._pending_interrupt() is None:
                yield from session.vm.multicast(
                    self.protocol.stamp(InterruptMsg, dst=o, group=self.gid)
                    for o in others)
        elif status == "finished":
            # A non-clock finisher idles until the next periodic sync —
            # precisely the utilization loss the paper's interrupt-based
            # scheme avoids.
            if self._pending_interrupt() is not None:
                return True
            wait = C.AwaitMessage(tags=(Tag.INTERRUPT,), epoch=self.epoch)
            if not ft.enabled:
                yield from self._recv_timed(wait)
                return True
            # Hardened: the clock itself may be dead.  Wait with the
            # retry schedule; give up by declaring the clock dead and
            # (possibly) inheriting its duty.
            attempt = 0
            while True:
                msg = yield from self._recv_timed(replace(
                    wait, timeout=max(ft.timeout_for(attempt),
                                      session.options.sync_period)))
                if msg is not None:
                    return True
                clock = min(self.active)
                if clock == self.me:
                    return True  # actives shifted: we are the clock now
                controller = session.controller
                if attempt >= ft.max_retries:
                    if controller is not None:
                        controller.declare_dead(clock, by=self.me)
                    self.protocol.on_event(E.PeerDead(clock))
                    if self.active and self._is_clock():
                        remaining = sorted(self.active - {self.me})
                        yield from session.vm.multicast(
                            self.protocol.stamp(InterruptMsg, dst=o,
                                                group=self.gid)
                            for o in remaining)
                    return True
                if controller is not None:
                    controller.note_retry()
                yield from session.vm.send(self.protocol.stamp(
                    ControlMsg, dst=clock, kind="resend-profile"))
                attempt += 1
        return True

    # -- computing ------------------------------------------------------------
    def _compute(self) -> Generator[Event, None, str]:
        """Execute assigned iterations until done or interrupted.

        Returns ``"finished"`` when the whole assignment completed, or
        ``"interrupted"`` after stopping at the next iteration boundary
        following a synchronization interrupt.
        """
        session = self.session
        env = session.env
        table = session.table
        protocol = self.protocol
        if self.assignment.empty:
            return "finished"
        total = self.assignment.work(table)
        consumed = 0.0
        clock_duty = self.periodic and self._is_clock()
        while True:
            if self._pending_interrupt() is not None:
                # The flag was raised while we were not interruptible
                # (e.g. during a steal pause): honor it at this boundary.
                return (yield from self._stop_at_boundary(consumed))
            if clock_duty and env.now >= self.next_deadline:
                result = yield from self._stop_at_boundary(consumed)
                return "deadline" if result == "interrupted" else result
            sub_start = env.now
            remaining = max(total - consumed, 0.0)
            finish_at = self.ws.time_to_complete(env.now, remaining)
            deadline_first = clock_duty and self.next_deadline < finish_at
            target = self.next_deadline if deadline_first else finish_at
            self.computing = True
            try:
                yield env.timeout(max(target - env.now, 0.0))
            except Interrupt as it:
                # ``computing`` was cleared by whoever interrupted us.
                protocol.note_busy(env.now - sub_start)
                self.rec.complete("compute", sub_start, env.now - sub_start,
                                  track=self.track)
                consumed += self.ws.capacity(sub_start, env.now)
                cause = it.cause
                if isinstance(cause, tuple) and cause[0] == "steal":
                    yield env.timeout(cause[1])
                    continue
                return (yield from self._stop_at_boundary(consumed))
            self.computing = False
            protocol.note_busy(env.now - sub_start)
            self.rec.complete("compute", sub_start, env.now - sub_start,
                              track=self.track)
            if deadline_first:
                consumed += self.ws.capacity(sub_start, env.now)
                result = yield from self._stop_at_boundary(consumed)
                return "deadline" if result == "interrupted" else result
            protocol.note_work(total)
            executed = self.assignment.take_head(self.assignment.count)
            session.ledger.executed(self.me, executed)
            return "finished"

    def _stop_at_boundary(self, consumed: float
                          ) -> Generator[Event, None, str]:
        """Finish the iteration in flight — at least one: progress, as
        :mod:`repro.protocol.balancer` states it — book it, stop."""
        session = self.session
        env = session.env
        table = session.table
        k = max(self.assignment.head_count_for_work(table, consumed,
                                                    round_up=True), 1)
        boundary_work = self.assignment.head_work(table, k)
        extra = boundary_work - consumed
        if extra > _EPS:
            t_end = self.ws.time_to_complete(env.now, extra)
            self.protocol.note_busy(t_end - env.now)
            self.rec.complete("compute", env.now, t_end - env.now,
                              track=self.track)
            yield env.timeout(t_end - env.now)
        self.protocol.note_work(boundary_work)
        session.ledger.executed(self.me, self.assignment.take_head(k))
        return "interrupted"
