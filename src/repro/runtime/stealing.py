"""Random-victim work stealing (the Phish model of paper §2.2).

A contrast baseline to the paper's group-synchronized strategies: there
are no synchronization points at all.  A processor that runs out of
work (the *thief*) picks a victim at random and requests work; the
victim — at its next iteration boundary — ships half of its remaining
iterations, or an empty reply if it has nothing to spare, in which case
the thief tries another victim.  A thief whose round of requests comes
back empty retires and notifies the master; when everyone has retired
the master broadcasts termination.

While waiting for a reply a thief keeps serving incoming steal requests
(with empty replies — it is broke by definition), which is what makes
mutual stealing deadlock-free.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..machine.load import Shuffler
from ..message.messages import ControlMsg, Message, Tag, WorkMsg
from ..simulation import Event
from .node import NodeRuntime
from .session import LoopSession
from .stats import SyncRecord

__all__ = ["StealingNodeRuntime"]

STEAL_REQUEST = "steal-request"
RETIRED_NOTICE = "retired"
ALL_DONE = "all-done"


class _Wants:
    """What a stealing receive accepts (a mailbox spec): CONTROL
    notices of the given kinds, and the reply of ``victim``, if any."""

    __slots__ = ("tags", "kinds", "victim")

    def __init__(self, *kinds: str, victim: Optional[int] = None) -> None:
        self.tags = (Tag.CONTROL,) if victim is None \
            else (Tag.CONTROL, Tag.WORK)
        self.kinds = kinds
        self.victim = victim

    def matches(self, msg: Message) -> bool:
        if msg.tag is Tag.CONTROL:
            return msg.kind in self.kinds
        return msg.tag is Tag.WORK and msg.src == self.victim


_REQUESTS = _Wants(STEAL_REQUEST)
_IN_RETIREMENT = _Wants(STEAL_REQUEST, ALL_DONE)
_AT_MASTER = _Wants(STEAL_REQUEST, RETIRED_NOTICE)


class StealingNodeRuntime(NodeRuntime):
    """Node protocol for the work-stealing strategy (code ``WS``)."""

    def __init__(self, session: LoopSession, node_id: int) -> None:
        super().__init__(session, node_id)
        self._rng = Shuffler(session.options.group_seed * 65_537 + node_id)
        self._steal_seq = 0

    # -- interrupt wiring --------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        """Steal requests break out of compute at the next boundary."""
        if (msg.tag is Tag.CONTROL
                and getattr(msg, "kind", "") == STEAL_REQUEST
                and self.computing and self.proc is not None
                and self.proc.is_alive):
            self.computing = False
            self.proc.interrupt("steal-request")

    # -- serving -----------------------------------------------------------
    def _serve_request(self, msg: ControlMsg
                       ) -> Generator[Event, None, None]:
        """Reply to one steal request: half the remaining iterations."""
        session = self.session
        count = self.protocol.assignment.count
        give = count // 2
        if give > 0:
            ranges = self.protocol.assignment.take_tail_count(give)
            data = give * session.loop.dc_bytes
        else:
            ranges, data = [], 0
        yield from session.vm.send(WorkMsg(
            src=self.me, dst=msg.src, epoch=0,
            ranges=tuple(ranges), count=give, data_bytes=data))
        if give:
            self._steal_seq += 1
            session.stats.record_sync(SyncRecord(
                time=session.env.now, group=0, epoch=self._steal_seq,
                reason="steal", moved_work=float(
                    sum(session.table.range_work(s, e) for s, e in ranges)),
                n_transfers=1, retired=()))

    def _serve_pending(self) -> Generator[Event, None, None]:
        while True:
            msg = self.session.vm.poll(self.me, _REQUESTS)
            if msg is None:
                return
            yield from self._serve_request(msg)

    # -- stealing -----------------------------------------------------------
    def _steal_round(self) -> Generator[Event, None, bool]:
        """One round of random-victim requests; True if work arrived."""
        session = self.session
        vm = session.vm
        victims = [v for v in range(session.n) if v != self.me]
        self._rng.shuffle(victims)
        for victim in victims:
            yield from vm.send(ControlMsg(src=self.me, dst=victim,
                                          kind=STEAL_REQUEST))
            reply = _Wants(STEAL_REQUEST, ALL_DONE, victim=victim)
            while True:
                msg = yield vm.recv(self.me, reply)
                if msg.tag is Tag.CONTROL:
                    if msg.kind == ALL_DONE:
                        # Termination raced our request; give up.
                        self.protocol.more_work = False
                        return False
                    yield from self._serve_request(msg)
                    continue
                break
            if msg.count:
                self.protocol.assignment.add(msg.ranges)
                return True
        return False

    def _await_termination(self) -> Generator[Event, None, None]:
        """Retired: keep answering steal requests until ALL_DONE."""
        session = self.session
        vm = session.vm
        yield from vm.send(ControlMsg(src=self.me, dst=0,
                                      kind=RETIRED_NOTICE))
        if self.me == 0:
            yield from self._master_collect()
            return
        while True:
            msg = yield vm.recv(self.me, _IN_RETIREMENT)
            if msg.kind == ALL_DONE:
                return
            yield from self._serve_request(msg)

    def _master_collect(self) -> Generator[Event, None, None]:
        """The master gathers retirement notices, then ends the run."""
        session = self.session
        vm = session.vm
        retired = {0}
        while len(retired) < session.n:
            msg = yield vm.recv(self.me, _AT_MASTER)
            if msg.kind == RETIRED_NOTICE:
                retired.add(msg.src)
            else:
                yield from self._serve_request(msg)
        yield from vm.multicast(
            ControlMsg(src=0, dst=d, kind=ALL_DONE)
            for d in range(1, session.n))

    # -- main loop ----------------------------------------------------------
    def pump(self) -> Generator[Event, None, None]:
        """Stealing has no synchronization to pump the protocol for: its
        own loop around the simulator's compute slice."""
        session = self.session
        env = session.env
        while self.protocol.more_work:
            if not self.protocol.assignment.empty:
                status = yield from self._compute()
                if status == "interrupted":
                    yield from self._serve_pending()
                    continue
            # Out of work: one round of stealing.
            got = yield from self._steal_round()
            if not self.protocol.more_work:
                break
            if not got:
                yield from self._await_termination()
                break
        self.finish_time = env.now
