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

* the timed mailbox receive, an untimed gather's in one wake-up (the
  pump's interrupt queries go to the host's
  :class:`~repro.message.inbox.Inbox`, as on every backend); the
  mailbox hook that interrupts a computing process, and serves resend
  requests (which double as a lost interrupt) under fault tolerance;
* the analytic compute slice — one timeout per slice instead of one per
  iteration — with the mid-compute steals of a co-located balancer or
  fault injector, and, before a profile, the stale ``WORK`` drain and
  the orphan claim;
* the periodic-sync ablation's clock: its slice ends as ``"deadline"``
  and the pump sends the wave.  A member that finished its block ends
  the slice ``"idle"`` and the protocol waits for the interrupt, its
  retries and give-up included; the port only sizes that wait (a
  period at least, or up to the node's own deadline under neighbour
  scope);
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
from ..message.messages import ControlMsg, InstructionMsg, Message, Tag
from ..protocol import commands as C
from ..protocol import events as E
from ..simulation import Event, Interrupt, Process
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
        self.inbox = self.mailbox.inbox
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

        session.nodes[node_id] = self
        self.mailbox.notify = self._on_message

    def pump(self) -> Generator[Event, None, str]:
        """The node's simulated process: the one pump, this port."""
        return drive(self.protocol, self, self.inbox, track=self.track)

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
        if msg.kind == "resend-profile" and msg.epoch == self.protocol.epoch \
                and (self.protocol.phase == "idle" or self.computing
                     and self.proc is not None and self.proc.is_alive):
            # We have not synchronized this epoch yet: the request
            # doubles as a (possibly lost) synchronization interrupt —
            # the idle wait takes it as one.
            if self.computing:
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

    # -- the port's wait, and what a received message brings ------------------
    def wait(self, spec: C.AwaitMessage) -> Generator[
            Event, None, Union[Message, E.MessageReceived, None]]:
        if spec.srcs is not None and spec.timeout is None:
            # An untimed gather: one wake-up, once every source is
            # covered (the ``AwaitMessage`` gather contract).
            *earlier, last = yield self.mailbox.gather(spec)
            return E.MessageReceived(last, tuple(earlier))
        idle = self.protocol.phase == "idle"
        if idle:
            spec = replace(spec, timeout=self._idle_timeout(spec.timeout))
        msg = yield from self._recv_timed(spec)
        if msg is None:
            return None
        if idle:
            self._before_profile()  # the interrupt came: the sync is next
            return msg
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

    def _idle_timeout(self, timeout: Optional[float]) -> Optional[float]:
        """The idle wait's bound: a retry of the clock's detector lasts
        a period at least; under neighbour scope the wait lasts until
        this node's own deadline, where it starts its wave."""
        if self.protocol.neighbour_scope:
            return max(self.next_deadline - self.session.env.now, 0.0)
        if timeout is None:
            return None
        return max(timeout, self.session.options.sync_period)

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
        self.inbox.drain_interrupts(self.protocol.epoch)  # the last sync's
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
        late WORK from past epochs, before profiling.  Stale profiles
        are ours to clear only where the worker gathers them: under a
        central scheme they are the balancer's (the lb host shares its
        mailbox), re-sent by a node that lost its instruction.
        """
        session = self.session
        if not session.ft.enabled:
            return
        mailbox = self.mailbox
        stale = self.protocol.epoch - 1
        assignment = self.protocol.assignment
        tags = (Tag.CONTROL, Tag.INSTRUCTION) if session.centralized \
            else (Tag.CONTROL, Tag.PROFILE, Tag.INSTRUCTION)
        mailbox.drain(C.AwaitMessage(tags, max_epoch=stale))
        controller = session.controller
        late = mailbox.drain(C.AwaitMessage((Tag.WORK,), max_epoch=stale))
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
                ) -> Generator[Event, None, str]:
        """Compute until a synchronization is due; returns how the
        slice ended, for the pump to begin the sync from.

        A lone distributed finisher computes on through any orphans it
        can claim.  Under the periodic-sync ablation nobody initiates on
        finishing: the clock waits out the period and ends the slice as
        ``"deadline"`` (the pump then interrupts the group); everyone
        else ends it ``"idle"`` and the protocol waits for the
        interrupt.  A slice begun from that wait has nothing to compute.
        Before a profile, late parcels from past epochs and reclaimed
        orphans re-enter balancing.
        """
        if proto.phase == "idle":
            self._before_profile()
            return "interrupted"
        session = self.session
        env = session.env
        if proto.epoch != self._clock_epoch:
            self._clock_epoch = proto.epoch
            self.next_deadline = env.now + session.options.sync_period
        while True:
            status = yield from self._compute()
            if status != "finished" or proto.active - {self.me} \
                    or session.centralized:
                break
            if not self._claim_orphans():
                return status  # lone: nothing to sync
            # reclaimed a dead peer's work: keep going
        if self.periodic and status != "interrupted":
            if proto.neighbour_scope:
                if status == "finished":
                    # Until this node's own deadline, or until a
                    # neighbour's wave reaches it.
                    return "idle"
            elif self._is_clock():
                # The clock waits out the rest of the period (it may
                # have finished early).
                if env.now < self.next_deadline \
                        and not inbox.has_interrupt(proto.epoch):
                    yield env.timeout(self.next_deadline - env.now)
                status = "deadline"
            elif not inbox.has_interrupt(proto.epoch):
                return "idle"
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
            if self.inbox.has_interrupt(protocol.epoch):
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
