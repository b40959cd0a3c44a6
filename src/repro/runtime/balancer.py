"""The central load balancer's port on the event heap (GCDLB/LCDLB, §3.5).

One balancer lives on the master processor (which also computes).  It
collects profile messages, and once a group's set is complete it
computes the new distribution and sends instructions — *serially*, one
group after another, which is precisely what produces the paper's LCDLB
delay factor (§4.2): groups whose profiles complete while the balancer
is busy wait in its mailbox queue.

All of that conversation is
:class:`~repro.protocol.balancer.BalancerProtocol`, pumped by
:func:`repro.backend.driver.drive` as on every backend.
:class:`CentralBalancer` is only its port — a
:class:`~repro.runtime.port.SimPort`, shared with the workers, whose
``charge`` pauses the co-located compute slave (§6.2's context-switch
overhead) — plus what the simulator alone knows:

* the wait: with fault tolerance on, the profile wait is bounded by the
  liveness timeout (its expiry the pump's ``TimerFired``), and the
  fault controller's registry — where ``DeclareDead`` lands — hands its
  verdicts back as ``PeerDead`` before the next profile is delivered
  (docs/FAULT_MODEL.md has the detector and the recovery rules);
* the pump's two ports — the §4.3 selector (the session, then the pump,
  regroup once the batch that carried the selection has run) and the
  reclaim pool;
* the lame duck: a finished pump still answers re-sent profiles while
  any slave lives (:meth:`CentralBalancer.finish`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Optional, Union

from ..backend.driver import drive
from ..core.redistribution import SyncProfile
from ..core.strategies.registry import get_strategy
from ..message.messages import Message, Tag
from ..protocol import commands as C
from ..protocol import events as E
from ..simulation import Event
from .port import SimPort
from .session import LoopSession

__all__ = ["CentralBalancer"]


class CentralBalancer(SimPort):
    """Asynchronous central balancer serving one or more groups."""

    track = "balancer"

    def __init__(self, session: LoopSession) -> None:
        self.session = session
        self.me = session.lb_host
        self.protocol = session.plan.workers[self.me].build_balancer(
            session.groups, table=session.table,
            movement_cost_fn=session.plan.movement_cost_fn)
        if session.selector is not None:
            self.protocol.select = self._select
        if session.controller is not None:
            self.protocol.claim_orphans = self._claim_orphans
        self._chosen: Optional[tuple[str, int]] = None
        #: A received profile that waits behind the registry's verdicts,
        #: and those verdicts (``None``: look once the timer's batch ran).
        self._held: Optional[Message] = None
        self._verdicts: Optional[list[int]] = []
        self._heard: set[int] = set()
        #: When the liveness period that began with the last probe round
        #: (or the first wait) ends.
        self._period_end: Optional[float] = None
        self._ended: Optional[Event] = None

    def run(self) -> Generator[Event, None, None]:
        yield from drive(self.protocol, self, None, track=self.track)
        # The ports are bound methods of this port, a cycle through the
        # pump that would hold the whole session for the cycle collector.
        self.protocol.select = self.protocol.claim_orphans = None

    # -- the pump's ports -----------------------------------------------------
    def _select(self, profiles: list[SyncProfile]) -> tuple[str, int, bool]:
        session = self.session
        scheme, group_size, session.stats.selection_report = \
            session.selector(session, profiles)
        self._chosen = (scheme, group_size)
        return scheme, group_size, get_strategy(scheme).centralized

    def _claim_orphans(self) -> tuple[tuple, float]:
        granted = tuple(self.session.controller.claim_orphans())
        work = self.session.table.range_work
        return granted, sum(work(s, e) for s, e in granted)

    def _commit(self) -> None:
        """The selection went out with the batch that made it: commit the
        session to it, then the pump to the session's new groups."""
        if self._chosen is not None:
            self.session.apply_selection(*self._chosen)
            self._chosen = None
            self.protocol.regroup(self.session.groups)

    # -- what drive() asks of a port ------------------------------------------
    def wait(self, spec: C.AwaitMessage
             ) -> Generator[Event, None, Union[Message, E.PeerDead, None]]:
        """The next live sender's profile, ``None`` once a liveness period
        passed since the last probe round (a deadline: no message, nor a
        duplicate, defers it) — or first the registry's verdicts the pump
        has not heard, lowest node first: after a probe round (they
        include its own), and before a profile (a fenced node's must
        neither complete a box nor be planned with — nor be delivered
        at all)."""
        self._commit()
        session = self.session
        env = session.env
        if self._verdicts is None:
            self._verdicts = self._unheard()
        if session.ft.enabled and self._period_end is None:
            self._period_end = env.now + session.ft.liveness_timeout
        while True:
            if self._verdicts:
                return E.PeerDead(self._verdicts.pop(0))
            msg, self._held = self._held, None
            if msg is not None and not session.is_dead(msg.src):
                return msg
            if session.ft.enabled:
                spec = replace(spec, timeout=max(self._period_end - env.now,
                                                 0.0))
            msg = yield from self._recv_timed(spec)
            if msg is None:  # the probe round is next: a new period
                self._verdicts = self._period_end = None
                return None
            self._held, self._verdicts = msg, self._unheard()

    def _unheard(self) -> list[int]:
        controller = self.session.controller
        if controller is None:
            return []
        unheard = sorted(controller.declared - self._heard)
        self._heard.update(unheard)
        return unheard

    def finish(self, reason: str
               ) -> Union[E.MessageReceived, Generator, None]:
        """A verdict that ended the run may have overtaken a profile: it
        is still delivered.  Then, hardened, the pump stays on as a lame
        duck (a hold): a node whose DONE instruction was dropped must
        not exhaust its retries against a silent (exited) master, so a
        re-sent profile is fed back for the cached instruction while any
        slave lives."""
        self._commit()
        msg, self._held = self._held, None
        if msg is not None and not self.session.is_dead(msg.src):
            return E.MessageReceived(msg)
        return self._lame_duck() if self.session.ft.enabled else None

    def _lame_duck(self) -> Generator[Event, None,
                                      Optional[E.MessageReceived]]:
        """The next re-sent profile; ``None`` once the last slave ended.
        The pump can answer no epoch later than its last instruction's,
        so the wait admits none: after a distributed selection, node 0's
        inbox is where the co-located peer gathers its group's profiles.
        It probes nobody, so it arms no timer."""
        session = self.session
        wait = C.AwaitMessage(tags=(Tag.PROFILE,), max_epoch=max(
            (i.epoch for i in self.protocol.last_instruction.values()),
            default=0))
        if self._ended is None:
            self._ended = session.env.all_of(
                rt.proc for rt in session.nodes.values() if rt.proc)
        while not self._ended.triggered:
            msg = yield from self._recv_timed(wait, until=self._ended)
            if msg is not None and not session.is_dead(msg.src):
                return E.MessageReceived(msg)
        return None
