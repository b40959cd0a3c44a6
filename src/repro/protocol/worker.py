"""The worker side of the DLB protocol as a pure state machine.

:class:`WorkerProtocol` is the paper's Figure-3 slave loop — compute,
interrupt, profile, redistribute — with every timing and transport
concern stripped out.  It owns the *protocol state* of one processor:

* epoch counter and active-peer set,
* the iteration :class:`~repro.runtime.assignment.Assignment`,
* the §3.2 performance window (work and busy seconds since the last
  synchronization) and the derived rate,
* the resend caches that answer a peer's recovery requests.

There is one way to drive it: :meth:`on_event` consumes
:mod:`~repro.protocol.events` and returns a batch of
:mod:`~repro.protocol.commands` whose last command is the batch's
*continuation* — what the backend does next and which event it feeds
back (``StartCompute`` → ``ComputeDone``, ``AwaitMessage`` →
``MessageReceived`` / ``TimerFired``, ``Charge`` → ``Charged``,
``Done`` → nothing).  All four backends feed it through one pump,
:func:`repro.backend.driver.drive`, against their own port — the
simulator's (:class:`~repro.runtime.node.NodeRuntime`) in virtual time
— and the scripted ``tests/protocol`` suite feeds it by hand.  Besides
the pump a backend may call only what has no transition in it: the
window accounting (:meth:`note_busy`, :meth:`note_work`), :meth:`stamp`,
the pure resend service (:meth:`answer_resend`) and the state
attributes.

State never moves ahead of time the backend has not yet spent: a
completed gather returns ``Charge(delta)`` and nothing else; the plan is
computed, work leaves the assignment and the resend cache fills only
when ``Charged`` arrives, so a ``resend-work`` request served while the
replicated calculation is still running is answered ``no-work``.

The fault-tolerance hardening (timed receives, exponential backoff,
declaring silent peers dead — docs/FAULT_MODEL.md) is expressed here
as ordinary transitions: a ``TimerFired`` event produces resend
commands and eventually a ``DeclareDead`` command, on any backend.

Neighbour scope (the diffusion strategy)
----------------------------------------
A worker given a :class:`~repro.core.diffusion.DiffusionPlanner`
synchronizes with its closed topology neighbourhood ``N[v]`` (its
``members``) instead of a group, and a sweep is a *wave*, not a
barrier.  A node that finishes — or is interrupted — sends
``INTERRUPT(e)`` and ``PROFILE(e)`` to its active neighbours, gathers
theirs, charges ``delta`` and plans over the profiles it holds; the
flow on an edge depends on its two endpoints' loads only, so sender and
receiver agree on every parcel without a global plan.  An interrupted
node forwards the interrupt only to the neighbours its interrupter does
not itself reach (``N(u) \\ N[v]``): the chain of interrupters ends at
an initiator, who told all of its neighbours, so by induction along the
chain every neighbour of a syncing node is told by someone — with one
message per node on a complete graph and three instead of four on a
torus.

The one transition the group schemes do not have is *leaving*: a node
that ends a sweep with nothing to compute sends each active neighbour a
``retire`` note stamped with the next epoch and terminates.  The
neighbour's next gather takes that note in place of a profile and drops
the sender from its active set; a node that has left answers
``resend-profile`` with the note again, so a lost note cannot strand a
hardened gather.

No live node waits for a message nobody will send: (1) every active
neighbour of a node syncing at epoch ``e`` receives ``INTERRUPT(e)``
(above), stops at its next iteration boundary and profiles; (2) a
leaver notes every active neighbour before it terminates, and again on
request; (3) sweep ``e + 1`` needs every active neighbour's
``PROFILE(e + 1)`` or note, so neighbouring epochs differ by at most
one and the awaited message is either already sent, or its sender is
computing in the awaited epoch (1), finishing the previous sweep — whose
own waits are on epoch ``e - 1`` messages, already sent by the same
argument — or has left (2).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..apps.workload import WorkTable
from ..core.diffusion import DiffusionPlanner
from ..core.policy import DlbPolicy
from ..core.redistribution import (
    MovementCostFn,
    RedistributionPlan,
    SyncProfile,
    plan_redistribution,
)
from ..message.messages import (
    ControlMsg,
    InstructionMsg,
    InterruptMsg,
    Message,
    ProfileMsg,
    Tag,
    TransferOrder,
    WorkMsg,
)
from ..runtime.assignment import Assignment
from ..runtime.options import FaultToleranceConfig
from . import commands as C
from . import events as E
from .errors import ProtocolError, ProtocolRetryExhausted

__all__ = ["WorkerProtocol"]

Range = tuple[int, int]


class WorkerProtocol:
    """Pure protocol state machine for one DLB worker."""

    def __init__(self, me: int, members: Sequence[int], *,
                 group: int = 0,
                 centralized: bool,
                 lb_host: int = 0,
                 policy: DlbPolicy,
                 table: WorkTable,
                 dc_bytes: int = 0,
                 movement_cost_fn: Optional[MovementCostFn] = None,
                 planner: Optional[DiffusionPlanner] = None,
                 ft: Optional[FaultToleranceConfig] = None,
                 profile_window_reset: bool = True,
                 initial_rate: float = 1.0,
                 assignment: Optional[Assignment] = None,
                 is_dlb: bool = True,
                 initial_epoch: int = 0) -> None:
        self.me = me
        self.members = tuple(members)
        self.group = group
        self.centralized = centralized
        self.lb_host = lb_host
        self.policy = policy
        self.table = table
        self.dc_bytes = dc_bytes
        self.movement_cost_fn = movement_cost_fn
        #: ``None`` plans with the paper's eq.-3 proportional planner
        #: over the group.  The diffusion strategy installs its planner
        #: here, which also makes ``members`` — this node's closed
        #: neighbourhood in ``planner.topology`` — the scope of every
        #: synchronization (module docstring, *Neighbour scope*).
        self.planner = planner
        self.ft = ft or FaultToleranceConfig()
        self.profile_window_reset = profile_window_reset
        self.is_dlb = is_dlb
        #: When set (post-construction, by a backend that holds an
        #: enabled trace recorder), the pump interleaves :class:`C.Emit`
        #: commands — pure data, no clock access — into its outputs.
        #: Default off, so scripted tests and untraced runs see the
        #: exact historical command tuples.
        self.emit_trace = False

        # -- protocol state ------------------------------------------------
        # ``initial_epoch`` is non-zero only for an elastic joiner, which
        # enters the group at its current synchronization epoch.
        self.epoch = initial_epoch
        self.active: set[int] = set(self.members)
        self.assignment: Assignment = assignment or Assignment()
        self.more_work = True
        self.win_work = 0.0
        self.win_busy = 0.0
        self.rate = initial_rate  # optimistic prior before measurements
        self._profile_cache: dict[int, ProfileMsg] = {}
        self._work_cache: dict[tuple[int, int], WorkMsg] = {}

        # -- pump bookkeeping ----------------------------------------------
        self._phase = "init"
        self._wait: Optional[C.AwaitMessage] = None
        self._attempt = 0
        self._sent_profile: Optional[ProfileMsg] = None
        self._profiles: dict[int, SyncProfile] = {}
        self._missing: set[int] = set()
        self._rounds: dict[int, int] = {}
        self._pending_srcs: list[int] = []
        self._pending_count = 0
        self._retiring = False
        #: Neighbour scope: this node's share of the sweep in progress,
        #: and — once it has left — the epoch stamped on its note.
        self._part: Optional[RedistributionPlan] = None
        self._left_at: Optional[int] = None

    # ------------------------------------------------------------------
    # What a backend may touch besides the pump: no transitions here.
    # ------------------------------------------------------------------
    @property
    def ft_enabled(self) -> bool:
        return self.ft.enabled

    @property
    def neighbour_scope(self) -> bool:
        """Whether this worker synchronizes with its topology
        neighbourhood (diffusion) rather than with a group."""
        return self.planner is not None and not self.centralized

    @property
    def phase(self) -> str:
        """The pump's current phase (observable for tests/debugging)."""
        return self._phase

    def stamp(self, cls: type, dst: int, *, epoch: Optional[int] = None,
              **fields) -> Message:
        """Build ``cls`` from this worker at its current epoch.

        Pass ``epoch=`` only for out-of-epoch traffic (answering a
        resend request for an older epoch, a ``retire`` note for the
        next one).
        """
        return cls(src=self.me, dst=dst,
                   epoch=self.epoch if epoch is None else epoch, **fields)

    def note_busy(self, seconds: float) -> None:
        """Book busy wall time into the current performance window."""
        self.win_busy += seconds

    def note_work(self, work: float) -> None:
        """Book completed work into the current performance window."""
        self.win_work += work

    def answer_resend(self, req: ControlMsg) -> Optional[Message]:
        """The reply to a peer's recovery request, or ``None``.

        Pure — it reads the resend caches and moves no pump state — so
        a backend calls it from wherever requests land (the simulator's
        delivery hook, the socket reader task) while the pump itself is
        mid-wait or mid-charge.

        ``resend-profile`` is answered with the exact epoch's profile,
        else — by a node that has left its neighbourhood — with its
        ``retire`` note again, else with the latest profile as liveness
        evidence: the prober must not fence us just because we are stuck
        in an older epoch (``None`` before the first synchronization).
        A finished node vouches for nobody: asked for an epoch past its
        own, it stays silent, as nothing answers after ``Done`` on a
        real transport, and the prober declares it dead in time instead
        of re-probing it for ever.  ``resend-work`` is
        answered with the cached parcel — by a neighbour-scoped node
        still gathering, whose plan is yet to come, with its profile as
        "alive, keep waiting" — else with ``no-work`` stamped at
        the *requester's* epoch so that its timed wait consumes it: our
        plan never ordered that transfer (plan divergence under partial
        failure) and the requester should stop waiting rather than
        declare us dead.
        """
        if req.kind == "resend-profile":
            cache = self._profile_cache
            if req.epoch in cache:
                return cache[req.epoch].to(req.src)
            if self._left_at is not None:
                return self._retire_note(req.src)
            if not cache or (self._phase == "done"
                             and req.epoch > self.epoch):
                return None
            return cache[max(cache)].to(req.src)
        if req.kind == "resend-work":
            if (self.neighbour_scope and req.epoch == self.epoch
                    and self._phase in ("gather", "planning")
                    and req.epoch in self._profile_cache):
                # A wave's gathers end at different times: this node has
                # not decided the requester's parcel yet.  Its profile
                # says "alive, keep waiting".
                return self._profile_cache[req.epoch].to(req.src)
            return (self._work_cache.get((req.src, req.epoch))
                    or self.stamp(ControlMsg, dst=req.src, epoch=req.epoch,
                                  kind="no-work"))
        return None

    # ------------------------------------------------------------------
    # The pump.
    # ------------------------------------------------------------------
    def on_event(self, event: E.ProtocolEvent) -> tuple[C.Command, ...]:
        """Feed one event; returns the commands the backend must run,
        the last of which is the batch's continuation."""
        handler = _HANDLERS.get(type(event))
        if handler is None:
            raise ProtocolError(f"unknown event {event!r}")
        return tuple(handler(self, event))

    def _expect(self, phase: str, event: E.ProtocolEvent) -> None:
        if self._phase != phase:
            raise ProtocolError(
                f"{type(event).__name__} while in phase {self._phase!r}")

    def _trace(self, name: str, **fields) -> list[C.Command]:
        """One gated :class:`C.Emit` (empty list when tracing is off)."""
        if not self.emit_trace:
            return []
        return [C.emit(name, node=self.me, **fields)]

    def _arm(self, phase: str, spec: C.AwaitMessage) -> C.AwaitMessage:
        """Enter ``phase`` blocked on ``spec`` — the one wait outstanding,
        and the only messages :meth:`_on_message` will act on."""
        self._phase = phase
        self._wait = spec
        return spec

    def _rearm(self) -> list[C.Command]:
        return [self._wait] if self._wait is not None else []

    def _terminate(self, reason: str) -> list[C.Command]:
        self.more_work = False
        self._phase = "done"
        self._wait = None
        return [C.Done(reason)]

    def _advance_epoch(self) -> list[C.Command]:
        self.epoch += 1
        if self.profile_window_reset:
            self.win_work = 0.0
            self.win_busy = 0.0
        self._phase = "computing"
        self._wait = None
        return [C.StartCompute()]

    # -- compute <-> sync ----------------------------------------------------
    def _on_start(self, event: E.Start) -> list[C.Command]:
        self._expect("init", event)
        self._phase = "computing"
        return [C.StartCompute()]

    def _on_compute_done(self, event: E.ComputeDone) -> list[C.Command]:
        if self._phase != "idle":  # else: the idle wait gave up, below
            self._expect("computing", event)
        if not self.is_dlb:
            # Static baseline: compute the initial block, then stop.
            return self._terminate("done")
        if event.status == "idle":
            self._attempt = 0
            return [self._await_clock()]
        return self._sync(event.status, event.by)

    def _sync(self, status: str, by: Optional[int]) -> list[C.Command]:
        """Enter this epoch's synchronization from a compute slice that
        ended as ``status`` (interrupted by ``by``, when known)."""
        others = sorted(self.active - {self.me})
        cmds: list[C.Command] = []
        if status != "interrupted":
            if status == "finished" and not others \
                    and not self.centralized:
                # Lone distributed node: nothing to exchange with.
                return self._terminate("lone")
            # Receiver-initiated sync (§3.1), or the periodic clock's:
            # interrupt the group.
            cmds += self._interrupt(others)
        elif self.neighbour_scope:
            # The wave: pass the interrupt on, but only to neighbours
            # the interrupter does not reach itself.
            told = () if by is None else self.planner.scope(by)
            cmds += self._interrupt(o for o in others if o not in told)
        cmds += self._trace(
            "sync", epoch=self.epoch, group=self.group,
            mode="centralized" if self.centralized else "distributed")
        if self.win_busy > 0 and self.win_work > 0:
            # The §3.2 performance metric over the current window.
            self.rate = self.win_work / self.win_busy
        profile = ProfileMsg(
            src=self.me, dst=self.me, epoch=self.epoch, group=self.group,
            remaining_work=self.assignment.work(self.table),
            remaining_count=self.assignment.count, rate=self.rate,
            ranges=tuple(self.assignment.ranges))
        if self.ft_enabled:
            # Resend requests are answered from the last two epochs.
            self._profile_cache[self.epoch] = profile
            self._profile_cache.pop(self.epoch - 2, None)
        if self.centralized:
            self._attempt = 0
            self._sent_profile = profile.to(self.lb_host)
            return cmds + [C.Send(self._sent_profile),
                           self._await_instruction()]
        self._profiles = {self.me: SyncProfile.of(profile)}
        self._missing = set(others)
        self._rounds = {p: 0 for p in others}
        cmds += [C.Send(profile.to(o)) for o in others]
        return cmds + self._await_profiles()

    def _interrupt(self, peers) -> list[C.Command]:
        return [C.Send(self.stamp(InterruptMsg, dst=o, group=self.group))
                for o in peers]

    # -- awaits ------------------------------------------------------------
    def _await_clock(self) -> C.AwaitMessage:
        """The periodic ablation's idle member (§2.2): its block is done
        and it waits for the sync's interrupt — or for a request for
        this epoch's profile, which doubles as one, as it does for a
        computing member.  Hardened, the wait is the clock's failure
        detector."""
        timeout = (self.ft.timeout_for(self._attempt)
                   if self.ft_enabled else None)
        return self._arm("idle", C.AwaitMessage(
            tags=(Tag.INTERRUPT, Tag.CONTROL), epoch=self.epoch,
            control_kind="resend-profile", timeout=timeout))

    def _wake(self) -> list[C.Command]:
        """Leave the idle wait without an interrupt: one more (empty)
        compute slice — where the backend readies the profile — ends
        as ``"interrupted"`` and enters the sync."""
        self._wait = None
        return [C.StartCompute()]

    def _await_instruction(self) -> C.AwaitMessage:
        timeout = (self.ft.timeout_for(min(self._attempt,
                                           self.ft.max_retries))
                   if self.ft_enabled else None)
        return self._arm("await_instruction", C.AwaitMessage(
            tags=(Tag.INSTRUCTION,), epoch=self.epoch, timeout=timeout))

    def _await_profiles(self) -> list[C.Command]:
        """Wait for the profiles still missing; once none is, charge the
        replicated new-distribution calculation (delta) — and change
        nothing until the backend says it has :class:`E.Charged` it."""
        if not self._missing:
            self._phase = "planning"
            self._wait = None
            return [C.Charge(self.policy.delta_seconds)]
        srcs = tuple(sorted(self._missing))
        # Neighbour scope: a neighbour that left after the last sweep
        # sent its ``retire`` note, stamped with this epoch, instead.
        tags, kind = ((Tag.PROFILE, Tag.CONTROL), "retire") \
            if self.neighbour_scope else ((Tag.PROFILE,), None)
        if not self.ft_enabled:
            spec = C.AwaitMessage(tags=tags, epoch=self.epoch, srcs=srcs,
                                  control_kind=kind)
        else:
            # Hardened: a profile from an *older* epoch carries no data
            # but proves its sender alive, so the wait admits everything
            # up to this epoch (never a later one: that sync is not ours
            # to consume yet).
            spec = C.AwaitMessage(
                tags=tags, srcs=srcs, max_epoch=self.epoch,
                control_kind=kind,
                timeout=self.ft.timeout_for(
                    min(self._rounds[p] for p in self._missing)))
        return [self._arm("gather", spec)]

    def _await_work(self) -> list[C.Command]:
        """Wait for the next expected parcel, or finish the sync."""
        if self.ft_enabled and self._pending_srcs:
            # One named sender at a time; its ``no-work`` (and no other
            # CONTROL kind — a peer's resend request is not ours to
            # swallow) also ends the wait.  Neighbour scope: its profile
            # renews the wait (the sender is still gathering).
            tags = (Tag.WORK, Tag.CONTROL, Tag.PROFILE) \
                if self.neighbour_scope else (Tag.WORK, Tag.CONTROL)
            return [self._arm("recv_work", C.AwaitMessage(
                tags=tags, epoch=self.epoch,
                srcs=(self._pending_srcs[0],), control_kind="no-work",
                timeout=self.ft.timeout_for(self._attempt)))]
        if not self.ft_enabled and self._pending_count > 0:
            return [self._arm("recv_work", C.AwaitMessage(
                tags=(Tag.WORK,), epoch=self.epoch))]
        if self._retiring:
            return self._terminate("retired")
        if self._part is not None:
            return self._end_sweep()
        return self._advance_epoch()

    def _retire_note(self, dst: int) -> ControlMsg:
        return self.stamp(ControlMsg, dst=dst, epoch=self._left_at,
                          kind="retire")

    def _end_sweep(self) -> list[C.Command]:
        """Neighbour scope: book this node's share of the sweep, then
        compute on — or, holding nothing, leave the neighbourhood."""
        part, self._part = self._part, None
        if not self.assignment.empty:
            return [C.RecordSync(self.group, self.epoch, part, part=True)] \
                + self._advance_epoch()
        self._left_at = self.epoch + 1
        return ([C.RecordSync(self.group, self.epoch,
                              replace(part, retire=(self.me,)), part=True)]
                + [C.Send(self._retire_note(o))
                   for o in sorted(self.active - {self.me})]
                + self._terminate("done"))

    # -- message handling --------------------------------------------------
    def _on_message(self, event: E.MessageReceived) -> list[C.Command]:
        msg = event.msg
        if self._wait is None:
            if self._phase == "done":
                return []
            raise ProtocolError(
                f"message {msg!r} while in phase {self._phase!r}")
        if self._phase == "gather":
            return self._on_gathered(event.msgs)
        if event.earlier:
            raise ProtocolError(
                f"{len(event.msgs)} messages at once while in phase "
                f"{self._phase!r}: only a gather takes a batch")
        if not self._wait.matches(msg):
            # Not what the wait asked for (a backend with a coarser
            # mailbox, or a hand-written script): leave it.
            return self._rearm()
        if self._phase == "await_instruction":
            return self._on_instruction(msg)
        if self._phase == "idle":
            return self._sync("interrupted", msg.src
                              if msg.tag is Tag.INTERRUPT else None)
        if msg.tag is Tag.PROFILE:
            self._attempt = 0  # the sender is alive and has yet to plan
            return self._await_work()
        # recv_work: a parcel, or the named sender's "no-work" (it never
        # owed us one — plan divergence).
        if isinstance(msg, WorkMsg) and msg.ranges:
            self.assignment.add(msg.ranges)
        if self.ft_enabled:
            self._pending_srcs.pop(0)
            self._attempt = 0
        else:
            self._pending_count -= 1
        return self._await_work()

    def _on_gathered(self, msgs: Sequence[Message]) -> list[C.Command]:
        """Gather: take a batch in arrival order (a lone message is a
        batch of one), each message as the wait re-armed after the one
        before it would — a sender already heard, or anything else that
        wait does not match, is left — so a batch ends where its
        messages one at a time would (:class:`C.AwaitMessage`'s gather
        contract)."""
        wait = self._wait
        for msg in msgs:
            if msg.src not in self._missing or not wait.matches(msg):
                continue
            if msg.tag is Tag.CONTROL:
                # The neighbour left: no flow on our edge, ever again.
                self._drop_peer(msg.src)
            elif msg.epoch == self.epoch:
                self._profiles[msg.src] = SyncProfile.of(msg)
                self._missing.discard(msg.src)
                self._rounds.pop(msg.src, None)
            else:
                # Stale duplicate: liveness evidence only.
                self._rounds[msg.src] = 0
        return self._await_profiles()

    def _on_instruction(self, msg: InstructionMsg) -> list[C.Command]:
        if msg.select_scheme:
            raise ProtocolError(
                "customized selection needs the session-aware adapter "
                "(strategy CUSTOM is simulation-only)")
        cmds: list[C.Command] = []
        if msg.grant:
            self.assignment.add(msg.grant)
            cmds += self._trace(
                "grant", epoch=self.epoch,
                iterations=sum(e - s for s, e in msg.grant))
        if msg.done:
            return cmds + self._terminate("done")
        return cmds + self._apply_outcome(
            msg.outgoing, msg.incoming_srcs, msg.incoming, msg.active,
            msg.retire)

    # -- timeouts / failure detection --------------------------------------
    def _on_timeout(self, event: E.TimerFired) -> list[C.Command]:
        if self._phase == "idle" and self.neighbour_scope:
            return self._wake()  # its own deadline: it starts its wave
        if not self.ft_enabled:
            raise ProtocolError("TimerFired with fault tolerance disabled")
        if self._phase == "idle":
            return self._on_clock_silent()
        if self._phase == "await_instruction":
            if self._attempt >= self.ft.instruction_retries:
                # The master is reliable by assumption: exhaustion here
                # is unrecoverable rather than a declaration.
                raise ProtocolRetryExhausted(
                    self.me, self.lb_host, "instruction", self._attempt + 1)
            self._attempt += 1
            assert self._sent_profile is not None
            return [C.Send(self._sent_profile), self._await_instruction()]
        if self._phase == "gather":
            # Nudge silent peers — which doubles as a lost interrupt —
            # and, after a per-peer retry budget, declare them dead so
            # the plan is computed over the survivors.
            overdue = [p for p in sorted(self._missing)
                       if self._rounds[p] >= self.ft.max_retries]
            for peer in overdue:
                self._drop_peer(peer)
            cmds: list[C.Command] = [C.DeclareDead(p) for p in overdue]
            for peer in sorted(self._missing):
                self._rounds[peer] += 1
                cmds.append(C.Send(self.stamp(ControlMsg, dst=peer,
                                              kind="resend-profile")))
            return cmds + self._await_profiles()
        if self._phase == "recv_work":
            src = self._pending_srcs[0]
            if self._attempt >= self.ft.max_retries:
                self._drop_peer(src)
                return [C.DeclareDead(src)] + self._await_work()
            self._attempt += 1
            return [C.Send(self.stamp(ControlMsg, dst=src,
                                      kind="resend-work"))] \
                + self._await_work()
        raise ProtocolError(f"TimerFired while in phase {self._phase!r}")

    def _on_clock_silent(self) -> list[C.Command]:
        """The idle member's detector: re-request the clock's profile
        (which doubles as its lost interrupt); after the retry budget,
        declare it dead and sync without it — the lowest survivor
        interrupting the rest, as the new clock."""
        clock = min(self.active)
        if clock == self.me:
            return self._wake()  # the actives shifted: we are the clock
        if self._attempt < self.ft.max_retries:
            self._attempt += 1
            return [C.Send(self.stamp(ControlMsg, dst=clock,
                                      kind="resend-profile")),
                    self._await_clock()]
        self._drop_peer(clock)
        survivors = sorted(self.active)
        wave = self._interrupt(survivors[1:]) \
            if survivors[0] == self.me else []
        return [C.DeclareDead(clock)] + wave + self._wake()

    def _drop_peer(self, peer: int) -> bool:
        """Stop counting on ``peer``; True when a wait was on it."""
        self.active.discard(peer)
        if self._phase == "gather" and peer in self._missing:
            self._missing.discard(peer)
            self._rounds.pop(peer, None)
            return True
        if self._phase == "recv_work" and self._pending_srcs[:1] == [peer]:
            self._pending_srcs.pop(0)
            self._attempt = 0
            return True
        return False

    def _on_peer_gone(self, event) -> list[C.Command]:
        """``PeerDead``, and ``PeerLeft``: a planned departure needs the
        same surviving transitions as a death — drop the peer, stop
        waiting on it."""
        if not self._drop_peer(event.peer):
            return []
        if self._phase == "gather":
            return self._await_profiles()
        return self._await_work()

    # -- elastic membership -------------------------------------------------
    def _admit(self, peer: int) -> None:
        if peer not in self.members:
            self.members = tuple(sorted((*self.members, peer)))

    def _on_peer_joined(self, event: E.PeerJoined) -> list[C.Command]:
        """Admit a joiner announced by the membership registrar.

        Backends deliver this at an epoch fence, normally while the
        worker is computing (no commands needed — the next sync simply
        addresses the joiner like any other member); mid-wait delivery
        just re-arms the wait.
        """
        self._admit(event.peer)
        self.active.add(event.peer)
        return self._rearm()

    def _on_leave(self, event: E.LeaveRequested) -> list[C.Command]:
        """Planned departure: hand all remaining work to the registrar.

        The backend honors a leave request only at an iteration
        boundary of the compute slice, so the in-flight iteration is
        finished (never duplicated) and everything still assigned ships
        back in one ``leave`` control message for re-granting.
        """
        if self._phase != "computing":
            raise ProtocolError(
                f"LeaveRequested while in phase {self._phase!r} "
                "(planned departures happen at iteration boundaries)")
        ranges = tuple(self.assignment.take_all())
        return (self._trace("leave", epoch=self.epoch,
                            iterations=sum(e - s for s, e in ranges))
                + [C.Send(self.stamp(ControlMsg, dst=self.lb_host,
                                     kind="leave", payload=ranges))]
                + self._terminate("left"))

    def _on_work_reclaimed(self, event: E.WorkReclaimed) -> list[C.Command]:
        """Orphans surfaced after everyone else profiled zero work.

        "Done" is a group consensus — every peer that computed this plan
        is terminating — so there is nobody left to rebalance with:
        finish the reclaimed ranges alone, at the next epoch, instead of
        interrupting peers that will never answer with fresh profiles.
        """
        self._expect("done", event)
        self.active = {self.me}
        self.more_work = True
        return self._advance_epoch()

    # -- plan application --------------------------------------------------
    def _on_charged(self, event: E.Charged) -> list[C.Command]:
        """The replicated (deterministic) redistribution calculation,
        now that its time has been spent."""
        self._expect("planning", event)
        ordered = sorted(self._profiles.values(), key=lambda p: p.node)
        if self.neighbour_scope:
            return self._on_charged_sweep(self.planner(ordered))
        plan = plan_redistribution(ordered, self.policy, self.table,
                                   self.movement_cost_fn)
        cmds: list[C.Command] = [C.RecordSync(self.group, self.epoch, plan)]
        if plan.done:
            return cmds + self._terminate("done")
        srcs = tuple(t.src for t in plan.incoming(self.me))
        return cmds + self._apply_outcome(
            plan.outgoing(self.me), srcs, len(srcs), plan.active,
            self.me in plan.retire)

    def _on_charged_sweep(self, plan: RedistributionPlan
                          ) -> list[C.Command]:
        """Neighbour scope: of the plan over ``N[me]`` only this node's
        row is acted on — the parcels it sends and the ones it awaits.
        Who stays is not the plan's to say (leaving is announced by
        note, :meth:`_end_sweep`)."""
        mine = plan.outgoing(self.me)
        # An edge elsewhere in the neighbourhood may move work; this
        # node's part says so only of its own outgoing transfers.
        reason = plan.reason if mine or not plan.move \
            else "diffusion-converged"
        self._part = replace(
            plan, transfers=mine, move=bool(mine), reason=reason,
            work_to_move=sum(t.work for t in mine), retire=())
        srcs = tuple(t.src for t in plan.incoming(self.me))
        return self._apply_outcome(mine, srcs, len(srcs),
                                   sorted(self.active), False)

    def _work_msg(self, dst: int, ranges: Sequence[Range]) -> WorkMsg:
        count = sum(e - s for s, e in ranges)
        return WorkMsg(src=self.me, dst=dst, epoch=self.epoch,
                       ranges=tuple(ranges), count=count,
                       data_bytes=count * self.dc_bytes)

    def _apply_outcome(self, outgoing: Sequence[TransferOrder],
                       incoming_srcs: Sequence[int],
                       incoming_count: int,
                       new_active: Sequence[int],
                       retire: bool) -> list[C.Command]:
        """Execute a plan's work movement from this node's viewpoint."""
        cmds: list[C.Command] = []
        for idx, order in enumerate(outgoing):
            if retire and idx == len(outgoing) - 1:
                # A retiring node ships everything left with its final
                # order.
                ranges = self.assignment.take_all()
            else:
                # Roughly ``order.work`` off the tail; a staying node
                # always keeps at least one iteration.
                ranges, _ = self.assignment.take_tail_work(
                    self.table, order.work, keep_one=not retire)
            msg = self._work_msg(order.dst, ranges)
            if self.ft_enabled:
                # ``resend-work`` is answered from the last two epochs.
                self._work_cache[(msg.dst, msg.epoch)] = msg
                for key in [k for k in self._work_cache
                            if k[1] < msg.epoch - 1]:
                    del self._work_cache[key]
            cmds += self._trace("redistribute", epoch=self.epoch,
                                dst=order.dst, iterations=msg.count,
                                work=order.work)
            cmds.append(C.Send(msg))
        # Elastic membership: a plan's active set may name nodes that
        # joined after this worker's construction — admit them before
        # intersecting, so only nodes *removed* by the plan drop out.
        for node in new_active:
            self._admit(node)
        self.active = set(new_active) & set(self.members)
        if retire and self.ft_enabled and not self.assignment.empty:
            # Late-arriving reclaimed work on a retiring node: ship it to
            # the lowest-numbered survivor (it is absorbed at that node's
            # next sync).  With nobody left it stays on the assignment
            # for the backend's recovery registry to collect.
            survivors = sorted(self.active - {self.me})
            if survivors:
                cmds.append(C.Send(self._work_msg(
                    survivors[0], self.assignment.take_all())))
        self._retiring = retire
        self._pending_srcs = list(incoming_srcs)
        self._pending_count = incoming_count
        self._attempt = 0
        return cmds + self._await_work()


_HANDLERS = {
    E.Start: WorkerProtocol._on_start,
    E.ComputeDone: WorkerProtocol._on_compute_done,
    E.MessageReceived: WorkerProtocol._on_message,
    E.Charged: WorkerProtocol._on_charged,
    E.TimerFired: WorkerProtocol._on_timeout,
    E.PeerDead: WorkerProtocol._on_peer_gone,
    E.PeerLeft: WorkerProtocol._on_peer_gone,
    E.PeerJoined: WorkerProtocol._on_peer_joined,
    E.LeaveRequested: WorkerProtocol._on_leave,
    E.WorkReclaimed: WorkerProtocol._on_work_reclaimed,
}
