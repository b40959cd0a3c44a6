"""The simulator's worker: its port for the one protocol pump.

The paper's Figure 3 slave loop::

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

is :class:`~repro.protocol.worker.WorkerProtocol` pumped by
:func:`repro.backend.driver.drive` on every backend — the continuation
loop, the timeout rule, who interrupts whom, retries and ``Done`` are
the pump's.  ``NodeRuntime`` is the pump's port on the simulator
(:class:`~repro.runtime.port.SimPort`: a ``Send`` holds the NIC, a
``Charge`` is spent on the loaded workstation) and owns only what a
simulated *worker* knows:

* the timed mailbox receive, and the mailbox's answers to the pump's
  interrupt queries; the mailbox hook that interrupts a computing
  process, and serves resend requests (which double as a lost
  interrupt) under fault tolerance;
* the analytic compute slice — one timeout per slice instead of one per
  iteration — with the mid-compute steals of a co-located balancer or
  fault injector, the periodic-sync ablation's clock (its slice ends
  as ``"deadline"``; the pump sends the wave) and a member's wait for
  it, and, before a profile, the stale ``WORK`` drain and the orphan
  claim;
* the fault controller's hooks (docs/FAULT_MODEL.md): the parcel ledger
  on a received ``WORK``, the orphan pool at ``Done``, and fencing;
* the §4.3 customized selection, which regroups the session mid-run.

Protocol state (epoch, active set, assignment, performance window,
resend caches) is read *only* through the protocol object.  With fault
tolerance disabled (the default) none of the hardened paths allocate a
single extra event.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Optional, Union

from ..backend.driver import drive
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
from ..simulation import Event, Interrupt, Process, SlotFilter
from .port import SimPort
from .session import LoopSession

__all__ = ["NodeRuntime"]

_EPS = 1e-15


class NodeRuntime(SimPort):
    """One simulated processor: the worker protocol's port on the DES."""

    def __init__(self, session: LoopSession, node_id: int) -> None:
        self.session = session
        self.me = node_id
        self.ws = session.stations[node_id]
        self.protocol = session.plan.workers[node_id].build_protocol(
            table=session.table,
            movement_cost_fn=session.plan.movement_cost_fn,
            planner=session.planner, initial_rate=self.ws.speed)
        self.computing = False
        self.finish_time: Optional[float] = None
        self.proc: Optional[Process] = None
        self.mailbox = session.vm.inbox[node_id]
        # All trace recording is pure observation inside existing
        # callbacks — it never schedules a DES event, so the seed
        # oracles hold with recording enabled.
        self.track = f"node{node_id}"
        # Periodic synchronization (Dome/Siegell model, §2.2 ablation):
        # the lowest-numbered active group member is the clock; under
        # neighbour scope every node is its own.  A static run has no
        # sync to clock.  The period restarts with every epoch.
        self.periodic = (session.options.sync_mode == "periodic"
                         and session.strategy.is_dlb)
        self.next_deadline = session.env.now + session.options.sync_period
        self._clock_epoch = self.protocol.epoch
        #: The slice returned a death the pump must hear before the
        #: sync it proceeds into (the hardened periodic wait).
        self._proceed = False

        session.nodes[node_id] = self
        self.mailbox.notify = self._on_message

    def pump(self) -> Generator[Event, None, str]:
        """The node's simulated process: the one pump, this port."""
        return drive(self.protocol, self, self, track=self.track)

    # -- interrupt wiring ---------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        """Mailbox hook: interrupts, plus resend service under faults."""
        if (msg.tag is Tag.INTERRUPT and msg.epoch == self.protocol.epoch
                and self.computing and self.proc is not None
                and self.proc.is_alive):
            self.computing = False
            self.proc.interrupt("sync")
        elif self.session.ft.enabled and msg.tag is Tag.CONTROL \
                and isinstance(msg, ControlMsg):
            self._serve_control(msg)

    def _serve_control(self, msg: ControlMsg) -> None:
        """Answer a peer's resend request (runs inside the delivery hook,
        so the actual send is a detached helper process)."""
        if (msg.kind == "resend-profile" and msg.epoch == self.protocol.epoch
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
            self.recorder.event("steal", track=self.track, duration=duration)
            self.proc.interrupt(("steal", duration))
            return True
        return False

    # -- the pump's interrupt queries -----------------------------------------
    def has_interrupt(self, epoch: int) -> bool:
        return self.interrupter(epoch) is not None

    def interrupter(self, epoch: int) -> Optional[int]:
        # Structured filter: the slotted inbox answers this probe with a
        # single (tag, epoch) bucket lookup; it runs between iterations.
        msg = self.mailbox.peek(SlotFilter(Tag.INTERRUPT, epoch))
        return None if msg is None else msg.src

    def drain_interrupts(self, up_to_epoch: int) -> None:
        self.mailbox.drain(stale_predicate(up_to_epoch, (Tag.INTERRUPT,),
                                           inclusive=True))

    # -- the port's wait, and what a received message brings ------------------
    def wait(self, spec: C.AwaitMessage
             ) -> Generator[Event, None, Optional[Message]]:
        msg = yield from self._recv_timed(spec)
        if msg is None:
            return None
        controller = self.session.controller
        if msg.tag is Tag.WORK and msg.ranges and controller is not None \
                and controller.try_consume(msg.src, self.me,
                                           msg.epoch) is None:
            # Duplicate of something already absorbed (or swept into
            # the pool): the wait is over, the ranges are not ours.
            return replace(msg, ranges=())
        if msg.tag is Tag.INSTRUCTION and msg.select_scheme:
            return self._adopt_selection(msg)
        return msg

    def _adopt_selection(self, instr: InstructionMsg) -> InstructionMsg:
        """§4.3: commit the session — and this worker — to the selected
        scheme, and hand the pump a plain instruction whose active set
        is cut to the worker's *new* group."""
        session = self.session
        session.apply_selection(instr.select_scheme,
                                instr.select_group_size)
        protocol = self.protocol
        protocol.group = session.group_of[self.me]
        protocol.members = tuple(session.scope_of(self.me))
        protocol.centralized = session.centralized
        protocol.planner = session.planner
        return replace(
            instr, select_scheme="", select_group_size=0,
            active=tuple(n for n in instr.active if n in protocol.members))

    # -- the end of the pump --------------------------------------------------
    def finish(self, reason: str) -> Optional[E.WorkReclaimed]:
        """A finished distributed worker first claims orphans the pool
        gained meanwhile (and computes on); a hardened retiree with late
        reclaimed work and nobody left to ship it to orphans it."""
        session = self.session
        if reason == "done" and session.ft.enabled \
                and not session.centralized and self._claim_orphans():
            return E.WorkReclaimed()
        self.drain_interrupts(self.protocol.epoch)  # the last sync's
        assignment = self.protocol.assignment
        if session.controller is not None and not assignment.empty:
            session.controller.pool_ranges(assignment.take_all())
        self.finish_time = session.env.now

    # -- reclaimed work -----------------------------------------------------
    def _claim_orphans(self) -> int:
        """Absorb reclaimed orphan ranges before profiling (distributed
        schemes; the central balancer grants the pool explicitly)."""
        controller = self.session.controller
        if controller is None or not controller.has_orphans:
            return 0
        ranges = controller.claim_orphans()
        self.protocol.assignment.add(ranges)
        return sum(e - s for s, e in ranges)

    def _drain_stale(self) -> None:
        """Hardened mode: clear superseded control traffic and absorb
        late WORK from past epochs, before profiling.

        Staleness is decided in one place —
        :func:`repro.message.messages.stale_predicate` — not per call
        site.
        """
        if not self.session.ft.enabled:
            return
        inbox = self.mailbox
        epoch = self.protocol.epoch
        assignment = self.protocol.assignment
        inbox.drain(stale_predicate(
            epoch, (Tag.CONTROL, Tag.PROFILE, Tag.INSTRUCTION)))
        controller = self.session.controller
        late = inbox.drain(stale_predicate(epoch, (Tag.WORK,)))
        for msg in late:
            if controller is None:
                assignment.add(msg.ranges)
                continue
            ranges = controller.try_consume(msg.src, self.me, msg.epoch)
            if ranges is None:
                continue  # duplicate of something already absorbed
            assignment.add(ranges if ranges else msg.ranges)

    # -- the compute slice ----------------------------------------------------
    def compute(self, proto, inbox, track, boundary
                ) -> Generator[Event, None, Union[str, E.ProtocolEvent]]:
        """Compute until a synchronization is due; returns how the
        slice ended, for the pump to begin the sync from.

        A lone distributed finisher computes on through any orphans it
        can claim.  Under the periodic-sync ablation nobody initiates on
        finishing: the clock waits out the period and ends the slice as
        ``"deadline"`` (the pump then interrupts the group); everyone
        else idles until the interrupt comes.  Before a profile, late
        parcels from past epochs and reclaimed orphans re-enter
        balancing.
        """
        session = self.session
        env = session.env
        if proto.epoch != self._clock_epoch:
            self._clock_epoch = proto.epoch
            self.next_deadline = env.now + session.options.sync_period
        status = "interrupted"
        while not self._proceed:
            status = yield from self._compute()
            others = proto.active - {self.me}
            if status == "finished" and not others \
                    and not session.centralized:
                if self._claim_orphans():
                    continue  # reclaimed a dead peer's work: keep going
                return status  # lone: nothing to sync
            if self.periodic and proto.neighbour_scope:
                if status == "finished":
                    # Idle until this node's own deadline, or until a
                    # neighbour's wave reaches it; the wave does not go
                    # back to whom it came from.  A lost interrupt costs
                    # the rest of the period at most, so the wait needs
                    # no hardening.
                    msg = yield from self._recv_timed(C.AwaitMessage(
                        tags=(Tag.INTERRUPT,), epoch=proto.epoch,
                        timeout=max(self.next_deadline - env.now, 0.0)))
                    if msg is not None:
                        self._before_profile()
                        return E.ComputeDone("interrupted", by=msg.src)
                status = "interrupted"
                break
            if not self.periodic or status == "interrupted":
                break
            if status == "deadline" or self._is_clock():
                # The clock waits out the rest of the period (it may
                # have finished early).
                if env.now < self.next_deadline \
                        and not self.has_interrupt(proto.epoch):
                    yield env.timeout(self.next_deadline - env.now)
                status = "deadline"
                break
            dead_clock = yield from self._await_clock()
            if dead_clock is not None:
                self._proceed = True
                return dead_clock
            status = "interrupted"
            break
        self._proceed = False
        self._before_profile()
        return status

    def _before_profile(self) -> None:
        self._drain_stale()
        if self.session.ft.enabled and not self.session.centralized:
            self._claim_orphans()

    def _is_clock(self) -> bool:
        """The periodic-mode initiator of a *group*: its lowest-numbered
        active member.  Under neighbour scope there is no set of nodes
        that agree on an active set, so every node keeps its own clock."""
        return self.protocol.neighbour_scope \
            or self.me == min(self.protocol.active)

    def _await_clock(self) -> Generator[Event, None, Optional[E.PeerDead]]:
        """A non-clock finisher idles until the next periodic sync —
        precisely the utilization loss the paper's interrupt-based
        scheme avoids.  Returns the clock's ``PeerDead`` when it
        proceeds having declared the clock dead.
        """
        session = self.session
        ft = session.ft
        protocol = self.protocol
        epoch = protocol.epoch
        if self.has_interrupt(epoch):
            return None
        wait = C.AwaitMessage(tags=(Tag.INTERRUPT,), epoch=epoch)
        if not ft.enabled:
            yield from self._recv_timed(wait)
            return None
        # Hardened: the clock itself may be dead.  Wait with the retry
        # schedule; give up by declaring the clock dead and (possibly)
        # inheriting its duty.
        attempt = 0
        while True:
            msg = yield from self._recv_timed(replace(
                wait, timeout=max(ft.timeout_for(attempt),
                                  session.options.sync_period)))
            if msg is not None:
                return None
            clock = min(protocol.active)
            if clock == self.me:
                return None  # actives shifted: we are the clock now
            if attempt >= ft.max_retries:
                self.declared(clock)
                survivors = sorted(protocol.active - {clock})
                if survivors and survivors[0] == self.me:
                    yield from session.vm.multicast(
                        protocol.stamp(InterruptMsg, dst=o,
                                       group=protocol.group)
                        for o in survivors[1:])
                return E.PeerDead(clock)
            self.note_retry()
            yield from session.vm.send(protocol.stamp(
                ControlMsg, dst=clock, kind="resend-profile"))
            attempt += 1

    # -- computing ------------------------------------------------------------
    def _compute(self) -> Generator[Event, None, str]:
        """Execute assigned iterations until done or interrupted.

        Returns ``"finished"`` when the whole assignment completed, or
        ``"interrupted"`` after stopping at the next iteration boundary
        following a synchronization interrupt (``"deadline"`` when the
        periodic clock stopped it).
        """
        session = self.session
        env = session.env
        protocol = self.protocol
        assignment = protocol.assignment
        if assignment.empty:
            return "finished"
        total = assignment.work(session.table)
        consumed = 0.0
        clock_duty = self.periodic and self._is_clock()
        while True:
            if self.has_interrupt(protocol.epoch):
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
                self.recorder.complete("compute", sub_start,
                                       env.now - sub_start, track=self.track)
                consumed += self.ws.capacity(sub_start, env.now)
                cause = it.cause
                if isinstance(cause, tuple) and cause[0] == "steal":
                    yield env.timeout(cause[1])
                    continue
                return (yield from self._stop_at_boundary(consumed))
            self.computing = False
            protocol.note_busy(env.now - sub_start)
            self.recorder.complete("compute", sub_start, env.now - sub_start,
                                   track=self.track)
            if deadline_first:
                consumed += self.ws.capacity(sub_start, env.now)
                result = yield from self._stop_at_boundary(consumed)
                return "deadline" if result == "interrupted" else result
            protocol.note_work(total)
            session.ledger.executed(self.me,
                                    assignment.take_head(assignment.count))
            return "finished"

    def _stop_at_boundary(self, consumed: float
                          ) -> Generator[Event, None, str]:
        """Finish the iteration in flight — at least one: progress, as
        :mod:`repro.protocol.balancer` states it — book it, stop."""
        session = self.session
        env = session.env
        table = session.table
        assignment = self.protocol.assignment
        k = max(assignment.head_count_for_work(table, consumed,
                                               round_up=True), 1)
        boundary_work = assignment.head_work(table, k)
        extra = boundary_work - consumed
        if extra > _EPS:
            t_end = self.ws.time_to_complete(env.now, extra)
            self.protocol.note_busy(t_end - env.now)
            self.recorder.complete("compute", env.now, t_end - env.now,
                                   track=self.track)
            yield env.timeout(t_end - env.now)
        self.protocol.note_work(boundary_work)
        session.ledger.executed(self.me, assignment.take_head(k))
        return "interrupted"
