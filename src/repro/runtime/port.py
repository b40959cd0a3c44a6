"""The simulator's port: where a protocol pump's commands take effect.

:class:`SimPort` is to the discrete-event backend what a
:class:`~repro.backend.driver.Reporter` and a transport's wait are to
the real ones: :func:`repro.backend.driver.drive` pumps both simulated
participants against it, and :func:`~repro.backend.driver.execute`
runs each batch of their commands in order — for
:class:`~repro.runtime.node.NodeRuntime`, a worker, and
:class:`~repro.runtime.balancer.CentralBalancer`, the central balancer.
A run of consecutive ``Send`` commands is one ``vm.multicast`` (a
chain of send-NIC holds that the pump wakes from once), a
``RecordSync`` one ``ledger.sync`` (the session's
:class:`~repro.backend.driver.RunLedger`, as on every backend, writes
the sync's ``decision`` instant), a ``DeclareDead`` one
``controller.declare_dead`` and an ``Emit`` one recorder call, here and
nowhere else.  A ``Charge`` is spent where it stands in its batch, on
the loaded host, through :meth:`charge`, which pauses the host's
compute slave meanwhile (the balancer's calculation on the master);
a timer's retries are the fault controller's count, one per group
re-requested.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, Sequence

from ..message.messages import Message, Tag
from ..protocol import commands as C
from ..simulation import Event
from .session import LoopSession
from .stats import SyncRecord

__all__ = ["SimPort"]


class SimPort:
    """Command port and timed receive of one simulated host."""

    session: LoopSession
    me: int
    track: str

    @property
    def recorder(self):
        return self.session.recorder

    def admit(self, commands: Sequence[C.Command]) -> None:
        """Every parcel of a batch enters the fault controller's ledger
        *before* the first command runs: its ranges are already off the
        assignment, so a crash between two sends must find them there.
        A receiver declared dead after planning gets its parcel orphaned
        instead of shipped into the void."""
        session = self.session
        controller = session.controller
        if controller is None:
            return
        for cmd in commands:
            if type(cmd) is C.Send and cmd.msg.tag is Tag.WORK \
                    and cmd.msg.ranges:
                msg = cmd.msg
                if session.is_dead(msg.dst):
                    controller.pool_ranges(msg.ranges)
                else:
                    controller.register_parcel(self.me, msg.dst,
                                               msg.epoch, msg.ranges)

    def send(self, msgs: Iterable[Message]
             ) -> Generator[Event, None, Optional[Event]]:
        """One chain of sends through this host's NIC (``vm.multicast``).
        A parcel for a receiver dead by the time its send begins is not
        sent: pooled on admission, or reclaimed on declaration."""
        is_dead, work = self.session.is_dead, Tag.WORK
        return self.session.vm.multicast(
            msg for msg in msgs if msg.tag is not work or not is_dead(msg.dst))

    def sync(self, group: int, epoch: int, plan, part: bool = False) -> None:
        session = self.session
        session.ledger.sync(
            SyncRecord.of_plan(session.env.now, group, epoch, plan), part)

    def declared(self, peer: int) -> None:
        if self.session.controller is not None:
            self.session.controller.declare_dead(peer, by=self.me)

    def charge(self, seconds: float) -> Generator[Event, None, None]:
        """Spend ``seconds`` of local computation, slowed by this
        host's current external load — pausing the host's compute
        slave meanwhile, when it is computing (the central balancer's
        calculation on the master)."""
        session = self.session
        env = session.env
        wall = session.stations[self.me].time_to_complete(
            env.now, seconds) - env.now
        node = session.nodes.get(self.me)
        if node is not None:
            node.steal(wall)
        yield env.timeout(wall)

    def is_dead(self, peer: int) -> bool:
        """The shared registry's verdict (the detector's view)."""
        return self.session.is_dead(peer)

    def note_retry(self) -> None:
        if self.session.controller is not None:
            self.session.controller.note_retry()

    def _recv_timed(self, spec: C.AwaitMessage,
                    until: Optional[Event] = None
                    ) -> Generator[Event, None, Optional[Message]]:
        """The next message ``spec`` accepts; ``None`` when its timeout
        (or ``until``, an event that stands in for one) fired first.

        A timed-out get request is withdrawn from the mailbox so it can
        never swallow a later message.  With neither a timeout nor
        ``until`` this is exactly the blocking receive.
        """
        vm = self.session.vm
        request = vm.recv(self.me, spec)
        if spec.timeout is None and until is None or request.triggered:
            msg = yield request
            return msg
        env = self.session.env
        yield env.any_of([request, until or env.timeout(spec.timeout)])
        if request.triggered:
            return request.value
        vm.inbox[self.me].cancel(request)
        return None
