"""The simulator's end of a protocol pump — its one command interpreter.

:class:`SimPort` is to the discrete-event backend what
:func:`repro.backend.driver.execute` and a transport's wait are to the
real ones: it runs a batch of protocol commands against the simulated
machine and blocks on an ``AwaitMessage``.  Both simulated participants
— :class:`~repro.runtime.node.NodeRuntime` for a worker,
:class:`~repro.runtime.balancer.CentralBalancer` for the central
balancer — inherit it, so a ``Send`` is one ``vm.send``, a
``RecordSync`` one ``ledger.sync`` (the session's
:class:`~repro.backend.driver.RunLedger`, as on every backend, writes
the sync's ``decision`` instant), a ``DeclareDead`` one
``controller.declare_dead`` and an ``Emit`` one recorder call, here and
nowhere else.  A ``Charge`` is spent where it stands in its batch,
through :meth:`_charge` — the one thing the balancer does differently.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..message.messages import Message, Tag
from ..protocol import commands as C
from ..simulation import Event
from .session import LoopSession
from .stats import SyncRecord

__all__ = ["SimPort"]


class SimPort:
    """Command interpreter and timed receive of one simulated host."""

    session: LoopSession
    me: int
    track: str

    def _charge(self, seconds: float) -> Generator[Event, None, None]:
        """Spend ``seconds`` of local computation, slowed by this
        host's current external load."""
        env = self.session.env
        t_end = self.session.stations[self.me].time_to_complete(
            env.now, seconds)
        yield env.timeout(t_end - env.now)

    def _execute(self, commands: tuple[C.Command, ...]
                 ) -> Generator[Event, None, Optional[C.Command]]:
        """Run one batch of protocol commands against the simulator;
        returns the batch's continuation (its last command)."""
        session = self.session
        controller = session.controller
        if controller is not None:
            # Every parcel of the batch enters the ledger *before* the
            # first command runs: its ranges are already off the
            # assignment, so a crash between two sends must find them
            # there.  A receiver declared dead after planning gets its
            # parcel orphaned instead of shipped into the void.
            for cmd in commands:
                if type(cmd) is C.Send and cmd.msg.tag is Tag.WORK \
                        and cmd.msg.ranges:
                    msg = cmd.msg
                    if session.is_dead(msg.dst):
                        controller.pool_ranges(msg.ranges)
                    else:
                        controller.register_parcel(self.me, msg.dst,
                                                   msg.epoch, msg.ranges)
        then = None
        for cmd in commands:
            kind = type(cmd)
            if kind is C.Send:
                if cmd.msg.tag is Tag.WORK and session.is_dead(cmd.msg.dst):
                    continue  # pooled above, or reclaimed on declaration
                yield from session.vm.send(cmd.msg)
            elif kind is C.RecordSync:
                session.ledger.sync(SyncRecord.of_plan(
                    session.env.now, cmd.group, cmd.epoch, cmd.plan),
                    cmd.part)
            elif kind is C.DeclareDead:
                if controller is not None:
                    controller.declare_dead(cmd.peer, by=self.me)
            elif kind is C.Emit:
                session.recorder.event(cmd.name, track=self.track,
                                       **cmd.args())
            else:
                if kind is C.Charge:
                    yield from self._charge(cmd.seconds)
                then = cmd
        return then

    def _recv_timed(self, spec: C.AwaitMessage,
                    until: Optional[Event] = None
                    ) -> Generator[Event, None, Optional[Message]]:
        """The next message ``spec`` accepts; ``None`` when its timeout
        (or ``until``, an event that stands in for one) fired first.

        ``spec.matches`` is the mailbox predicate; a single tag and an
        exact epoch additionally ride as :class:`SlotFilter` slots so
        the common receive stays one bucket lookup.  A timed-out get
        request is withdrawn from the mailbox so it can never swallow a
        later message.  With neither a timeout nor ``until`` this is
        exactly the legacy blocking receive.
        """
        vm = self.session.vm
        request = vm.recv(
            self.me, spec.tags[0] if len(spec.tags) == 1 else None,
            epoch=spec.epoch, match=spec.matches)
        if spec.timeout is None and until is None or request.triggered:
            msg = yield request
            return msg
        env = self.session.env
        yield env.any_of([request, until or env.timeout(spec.timeout)])
        if request.triggered:
            return request.value
        vm.inbox[self.me].cancel(request)
        return None
