"""The central load balancer's discrete-event shell (GCDLB/LCDLB, §3.5).

One balancer lives on the master processor (which also computes).  It
collects profile messages, and once a group's set is complete it
computes the new distribution and sends instructions — *serially*, one
group after another, which is precisely what produces the paper's LCDLB
delay factor (§4.2): groups whose profiles complete while the balancer
is busy wait in its mailbox queue.

All of that conversation is
:meth:`BalancerProtocol.on_event <repro.protocol.balancer.BalancerProtocol.on_event>`,
the pump every backend runs.  :class:`CentralBalancer` is its driver on
the event heap, the balancer flavour of
:func:`repro.backend.driver.drive`: events in, the returned batch run
by :func:`~repro.backend.driver.execute` against the port it shares
with the workers (:class:`~repro.runtime.port.SimPort`).  It owns only
what the simulator alone knows:

* CPU stealing — a ``Charge`` pauses the co-located compute slave
  (§6.2's context-switch overhead) for as long as the loaded master
  takes to spend it;
* the liveness timer: with fault tolerance on, the profile wait is
  bounded and its expiry is a ``TimerFired``; the fault controller's
  registry is where ``DeclareDead`` lands and where ``PeerDead`` comes
  from (docs/FAULT_MODEL.md has the detector and the recovery rules);
* the pump's two ports — the §4.3 selector (after whose batch the
  session, then the pump, regroup) and the reclaim pool.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Optional

from ..backend.driver import execute
from ..core.redistribution import SyncProfile
from ..core.strategies.registry import get_strategy
from ..message.messages import Tag
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

    def charge(self, seconds: float) -> Generator[Event, None, None]:
        """Spend balancer computation on the (loaded) master, pausing a
        co-located compute slave meanwhile."""
        env = self.session.env
        wall = self.session.stations[self.me].time_to_complete(
            env.now, seconds) - env.now
        node = self.session.nodes.get(self.me)
        if node is not None:
            node.steal(wall)
        yield env.timeout(wall)

    # -- main loop ------------------------------------------------------------
    def _turn(self, event: E.ProtocolEvent
              ) -> Generator[Event, None, C.Command]:
        """Feed one event and run the pump's answer."""
        session = self.session
        commands = self.protocol.on_event(event)
        if type(event) is E.TimerFired and session.controller is not None:
            # One retry per group whose members this round re-requests.
            for _group in {self.protocol.group_of[c.msg.dst]
                           for c in commands if type(c) is C.Send}:
                session.controller.note_retry()
        then = yield from execute(commands, self, self.track)
        if self._chosen is not None:
            # The selection went out with the batch: commit the session
            # to it, then the pump to the session's new groups.
            session.apply_selection(*self._chosen)
            self._chosen = None
            self.protocol.regroup(session.groups)
        return then

    def run(self) -> Generator[Event, None, None]:
        session = self.session
        ft = session.ft
        controller = session.controller
        folded: set[int] = set()
        # The pump only ever waits for the next profile; the liveness
        # timer on that wait is this shell's to arm.
        wait = C.AwaitMessage(
            tags=(Tag.PROFILE,),
            timeout=ft.liveness_timeout if ft.enabled else None)
        then = yield from self._turn(E.Start())
        # Lame duck: a finished pump still answers a re-sent profile
        # with the cached instruction, so it keeps being fed while any
        # slave lives — a node whose DONE instruction was dropped must
        # not exhaust its retries against a silent (exited) master.  It
        # can answer no epoch later than its last instruction's, so it
        # admits none: after a distributed selection, node 0's inbox is
        # where the co-located peer gathers its group's profiles.  It
        # probes nobody, so it arms no timer and ends with the last slave.
        ended: Optional[Event] = None
        while type(then) is not C.Done or ft.enabled:
            if type(then) is C.Done and ended is None:
                wait = replace(wait, timeout=None, max_epoch=max(
                    (i.epoch for i in self.protocol.last_instruction.values()),
                    default=0))
                ended = session.env.all_of(rt.proc for rt in
                                           session.nodes.values() if rt.proc)
            if ended is not None and ended.triggered:
                break
            msg = yield from self._recv_timed(wait, until=ended)
            if msg is None and ended is None:
                then = yield from self._turn(E.TimerFired())
            if controller is not None:
                # Registry verdicts the pump has not heard arrive as
                # ``PeerDead``, lowest node first: after a probe round
                # (they include its own), before a profile (a fenced
                # node's must neither complete a box nor be planned
                # with — nor be delivered at all).
                for peer in sorted(controller.declared - folded):
                    folded.add(peer)
                    then = yield from self._turn(E.PeerDead(peer))
            if msg is not None and not session.is_dead(msg.src):
                then = yield from self._turn(E.MessageReceived(msg))
        # The ports are bound methods of this shell, a cycle through the
        # pump that would hold the whole session for the cycle collector.
        self.protocol.select = self.protocol.claim_orphans = None
