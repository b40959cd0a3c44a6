"""Fault injection and recovery bookkeeping for one loop run.

One :class:`FaultController` per :class:`~repro.runtime.session.LoopSession`
plays three roles (see ``docs/FAULT_MODEL.md`` for the model it enforces):

**Injector.**  It schedules the plan's node crashes (fail-stop: the
victim's simulated process is stopped wherever it is) and slowdowns
(compute pauses through the existing steal mechanism), and installs a
hook on the shared bus that drops or delays matching messages using the
plan's seeded RNG.

**Failure detector (registry).**  Ground truth (``crashed``) is known
only to the injector.  Protocol peers learn of a death exclusively by
*declaring* it after a timed request exhausts its retry budget; the
declaration is recorded here (``declared``) and is visible to every
survivor — this object stands in for the master-resident recovery
registry a real NOW deployment would gossip through.  Declaring a node
that is in fact alive **fences** it (the node is forcibly crashed),
keeping the fail-stop abstraction exact even under false suspicion.

**Work ledger + orphan pool.**  Every migrated iteration range is
registered as a :class:`WorkParcel` when the sender takes it off its
assignment, marked consumed when a receiver absorbs it, and swept into
the orphan ``pool`` when a death strands it.  The pool also receives a
dead node's unfinished assignment.  Survivors claim pooled ranges at
synchronization points; whatever remains is re-run at the end of the run
(docs/FAULT_MODEL.md, "End of a run"), so the exactly-once coverage
invariant survives any plan with at least one surviving processor.

Its tallies go straight into the run's
:class:`~repro.runtime.stats.LoopRunStats` (retries, reclaimed
iterations, who crashed or was fenced) and its declarations into the
run's :class:`~repro.backend.driver.RunLedger`; drops and delays are
the network's own counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from ..message.messages import Message, WorkMsg
from ..simulation import Event
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.session import LoopSession

__all__ = ["FaultController", "WorkParcel"]

Range = tuple[int, int]


@dataclass
class WorkParcel:
    """One in-flight work migration, tracked from take-off to landing."""

    src: int
    dst: int
    epoch: int
    ranges: tuple[Range, ...]
    consumed: bool = False
    pooled: bool = False


@dataclass
class _BudgetedFault:
    """A drop/delay fault with its remaining budget."""

    spec: Any
    remaining: int


class FaultController:
    """Injects one :class:`FaultPlan` and tracks recovery state."""

    def __init__(self, session: "LoopSession", plan: FaultPlan) -> None:
        plan.validate_for(session.n)
        self.session = session
        self.stats = session.stats
        self.plan = plan
        self.rec = session.recorder
        self._rng = plan.rng()
        # -- ground truth vs detected state --------------------------------
        self.crashed: set[int] = set()
        self.declared = session.ledger.declared
        self.fenced: set[int] = set()
        self._assignment_reclaimed: set[int] = set()
        # -- ledger and pool ------------------------------------------------
        self.parcels: dict[tuple[int, int, int], WorkParcel] = {}
        self.pool: list[Range] = []
        self._drop_budgets = [
            _BudgetedFault(spec=f, remaining=f.max_drops)
            for f in plan.drops]
        self._delay_budgets = [
            _BudgetedFault(spec=f, remaining=f.max_delays)
            for f in plan.delays]

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Hook the bus and schedule the plan's timed faults."""
        env = self.session.env
        network = self.session.vm.network
        network.fault_hook = self._on_transmit
        network.on_drop = self._on_drop
        self._injectors: list = []
        for crash in self.plan.crashes:
            self._injectors.append(
                env.process(self._crash_at(crash.node, crash.time),
                            name=f"fault:crash{crash.node}"))
        for slow in self.plan.slowdowns:
            self._injectors.append(
                env.process(self._slow_at(slow.node, slow.time,
                                          slow.pause_seconds),
                            name=f"fault:slow{slow.node}"))

    def uninstall(self) -> None:
        """Detach the bus hooks and stop not-yet-fired injectors.

        Called by the executor at stage end so a later stage on the same
        environment (``run_application``) is not haunted by this stage's
        pending crash timers or drop hooks.
        """
        network = self.session.vm.network
        # ``==``: each attribute access builds a fresh bound method.
        if network.fault_hook == self._on_transmit:
            network.fault_hook = None
        if network.on_drop == self._on_drop:
            network.on_drop = None
        for proc in getattr(self, "_injectors", []):
            if proc.is_alive:
                proc.stop()

    def _crash_at(self, node: int, time: float
                  ) -> Generator[Event, None, None]:
        env = self.session.env
        if time > env.now:
            yield env.timeout(time - env.now)
        self.crash(node)
        return
        yield  # pragma: no cover - keeps this a generator for time == now

    def _slow_at(self, node: int, time: float, pause: float
                 ) -> Generator[Event, None, None]:
        env = self.session.env
        if time > env.now:
            yield env.timeout(time - env.now)
        runtime = self.session.nodes.get(node)
        if runtime is not None and node not in self.crashed:
            runtime.steal(pause)
        return
        yield  # pragma: no cover

    # -- injection: crashes ---------------------------------------------------
    def crash(self, node: int) -> None:
        """Fail-stop ``node`` now (injected crash or fencing)."""
        if node in self.crashed:
            return
        env = self.session.env
        self.crashed.add(node)
        self.stats.crashed_nodes = tuple(sorted(self.crashed))
        self.rec.event("crash", track=f"node{node}")
        runtime = self.session.nodes.get(node)
        if runtime is not None:
            runtime.protocol.more_work = False
            runtime.computing = False
            if runtime.finish_time is None:
                runtime.finish_time = env.now
            self.session.vm.inbox[node].notify = None
            self.session.vm.inbox[node].cancel_all()
            proc = runtime.proc
            if proc is not None and proc.is_alive \
                    and proc is not env.active_process:
                proc.stop()

    def is_crashed(self, node: int) -> bool:
        return node in self.crashed

    # -- injection: messages --------------------------------------------------
    @staticmethod
    def _tag_value(item: Any) -> Optional[str]:
        if isinstance(item, Message):
            return item.tag.value
        return None

    def _on_transmit(self, src: int, dst: int, nbytes: int,
                     item: Any) -> "None | str | float":
        """Bus fault hook: decide each non-local transfer's fate."""
        if src in self.crashed:
            # A dead host emits nothing; detached helper processes that
            # outlived their node are silenced here.
            return "drop"
        now = self.session.env.now
        tag = self._tag_value(item)
        for budgeted in self._drop_budgets:
            if (budgeted.remaining > 0
                    and budgeted.spec.matches(now, src, dst, tag)
                    and self._rng.random() < budgeted.spec.probability):
                budgeted.remaining -= 1
                return "drop"
        extra = 0.0
        for budgeted in self._delay_budgets:
            if (budgeted.remaining > 0
                    and budgeted.spec.matches(now, src, dst, tag)
                    and self._rng.random() < budgeted.spec.probability):
                budgeted.remaining -= 1
                extra += budgeted.spec.extra_seconds
        return extra or None

    def _on_drop(self, src: int, dst: int, item: Any) -> None:
        self.rec.event("message_drop", track="network", src=src, dst=dst,
                       tag=self._tag_value(item) or "")

    # -- failure declaration (detection) --------------------------------------
    def is_declared_dead(self, node: int) -> bool:
        return node in self.declared

    def declare_dead(self, node: int, by: int) -> None:
        """Record that ``by`` gave up on ``node`` (retries exhausted).

        Fences the victim if it is in fact alive, then reclaims its
        unfinished assignment and every unconsumed parcel it touches
        into the orphan pool.  Idempotent.
        """
        if node == self.session.lb_host and node not in self.crashed:
            # The model assumes the master is reliable (it holds this
            # registry and gathers results): suspecting it is always a
            # false positive, so the declaration is ignored — the waiter
            # stops waiting and the retry machinery reconciles later.
            return
        if node in self.declared:
            return
        self.declared.add(node)
        fenced = node not in self.crashed
        self.rec.event("declare_dead", track=f"node{node}", by=by,
                       fenced=fenced)
        if fenced:
            self.fenced.add(node)
            self.stats.fenced_nodes = tuple(sorted(self.fenced))
            self.rec.event("fence", track=f"node{node}")
            self.crash(node)
        self._reclaim_node(node)

    def _reclaim_node(self, node: int) -> None:
        if node not in self._assignment_reclaimed:
            self._assignment_reclaimed.add(node)
            runtime = self.session.nodes.get(node)
            if runtime is not None:
                ranges = runtime.protocol.assignment.take_all()
                self.pool_ranges(ranges)
        for parcel in self.parcels.values():
            if parcel.consumed or parcel.pooled:
                continue
            if parcel.src == node or parcel.dst == node:
                parcel.pooled = True
                self.pool_ranges(parcel.ranges)

    def pool_ranges(self, ranges) -> None:
        live = [r for r in ranges if r[1] > r[0]]
        if live:
            self.pool.extend(live)
            self.stats.reclaimed_iterations += sum(e - s for s, e in live)

    # -- work ledger -----------------------------------------------------------
    def register_parcel(self, src: int, dst: int, epoch: int,
                        ranges) -> None:
        """Record a migration at take-off (or re-arm it on resend)."""
        key = (src, dst, epoch)
        if key not in self.parcels:
            self.parcels[key] = WorkParcel(src=src, dst=dst, epoch=epoch,
                                           ranges=tuple(ranges))

    def try_consume(self, src: int, dst: int, epoch: int
                    ) -> Optional[tuple[Range, ...]]:
        """Claim a delivered parcel's ranges exactly once.

        Returns ``None`` for duplicates (a resend raced the original)
        and for parcels already swept into the pool — the caller must
        then discard the message.  Unregistered (pre-fault-era or
        unsolicited) keys return an empty tuple: the caller keeps the
        message's own ranges and we record the consumption.
        """
        key = (src, dst, epoch)
        parcel = self.parcels.get(key)
        if parcel is None:
            self.parcels[key] = WorkParcel(src=src, dst=dst, epoch=epoch,
                                           ranges=(), consumed=True)
            return ()
        if parcel.consumed or parcel.pooled:
            return None
        parcel.consumed = True
        return parcel.ranges

    # -- orphan pool -----------------------------------------------------------
    def claim_orphans(self) -> list[Range]:
        """Hand the entire pool to the caller (a syncing survivor)."""
        claimed, self.pool = self.pool, []
        return claimed

    @property
    def has_orphans(self) -> bool:
        return bool(self.pool)

    def note_retry(self) -> None:
        self.stats.fault_retries += 1

    # -- end of the run --------------------------------------------------------
    def sweep_orphans(self) -> None:
        """Reclaim every range no live protocol participant will run.

        Called by the executor after all node processes have finished:
        dead nodes' assignments not yet reclaimed, unconsumed WORK
        messages sitting in the mailboxes of dead or retired nodes, and
        finally *every* remaining unconsumed parcel — at this point no
        protocol process will ever run again, so a parcel that is
        neither consumed nor pooled is definitively lost whether it was
        dropped, stranded in a mailbox, or still in flight on the bus.
        """
        for node in sorted(self.crashed):
            self._reclaim_node(node)
        for inbox in self.session.vm.inbox:
            for item in list(inbox.items):
                if isinstance(item, WorkMsg) and item.ranges:
                    ranges = self.try_consume(item.src, item.dst, item.epoch)
                    if ranges is None:
                        continue
                    self.pool_ranges(ranges if ranges else item.ranges)
        for parcel in self.parcels.values():
            if not parcel.consumed and not parcel.pooled:
                parcel.pooled = True
                self.pool_ranges(parcel.ranges)
