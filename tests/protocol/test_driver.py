"""The shared backend driver against an in-memory fake port.

No threads and no clock: a deterministic round-robin scheduler steps
each participant's :func:`~repro.backend.driver.drive` generator, a
fake port routes ``Send`` into the destination's
:class:`~repro.backend.driver.Inbox` and books records into a
:class:`~repro.backend.driver.RunLedger`, and time is a counter that
advances one tick per burnt iteration.
"""

from __future__ import annotations

import pytest

from repro.apps.workload import LoopSpec, WorkTable
from repro.backend import driver
from repro.backend.driver import Burn, Inbox, Reporter, RunLedger, drive
from repro.core.diffusion import DiffusionPlanner
from repro.core.policy import DlbPolicy
from repro.machine.cluster import ClusterSpec
from repro.message.messages import (
    ControlMsg,
    InterruptMsg,
    ProfileMsg,
    Tag,
    WorkMsg,
)
from repro.network.topology import Topology
from repro.obs.metrics import CounterDict
from repro.protocol import (
    AwaitMessage,
    BalancerProtocol,
    Charged,
    ComputeDone,
    MessageReceived,
    PeerDead,
    Send,
    Start,
    TimerFired,
    WorkerProtocol,
)
from repro.runtime import executor
from repro.runtime.assignment import Assignment, check_coverage
from repro.runtime.options import FaultToleranceConfig, RunOptions
from repro.runtime.stats import LoopRunStats

from .conftest import COST, make_worker

FT = FaultToleranceConfig(enabled=True, request_timeout=0.05, backoff=2.0,
                          max_retries=2)


def _turn(event, commands):
    """One pump turn reduced to what is the same on every backend:
    the event's type and the commands' types.  *Who* interrupts whom is
    timing — it depends on which node's clock runs out first — so
    INTERRUPT sends and the compute status are left out."""
    return (type(event).__name__, tuple(
        f"Send:{c.msg.tag.name}" if isinstance(c, Send) else type(c).__name__
        for c in commands
        if not (isinstance(c, Send) and c.msg.tag is Tag.INTERRUPT)))


class NullPort(Reporter):
    """Swallows everything; time stands still."""

    def now(self):
        return 0.0

    def deliver(self, msg):
        pass

    def emit(self, body):
        pass


class FakePort(Reporter):
    """Routes into peer inboxes, logs every port call."""

    def __init__(self, me, cluster):
        super().__init__(me, 0.0)
        self.cluster = cluster
        self.calls = []

    def now(self):
        return self.cluster.ticks

    def deliver(self, msg):
        self.calls.append(("send", msg.tag, msg.dst))
        self.cluster.route(msg)

    def emit(self, body):
        self.calls.append((body["k"],))
        self.cluster.ledger.record(self.me, body, self.now())


class FakeCluster:
    """N workers (+ a balancer when centralized), stepped round-robin."""

    def __init__(self, table, blocks, *, centralized, planner=None,
                 groups=None):
        n = len(blocks)
        groups = groups or [list(range(n))]
        self.ticks = 0.0
        stats = LoopRunStats(loop_name="fake", strategy="?",
                             n_processors=n, group_size=n, backend="fake")
        stats.messages_by_tag = CounterDict()
        self.ledger = RunLedger(stats, table)
        self.centralized = centralized
        self.inboxes = {node: Inbox() for node in range(n)}
        self.ports = {node: FakePort(node, self) for node in range(n)}
        self.events = {node: [] for node in range(n)}
        self.conversation = {node: [] for node in range(n)}
        self.protos = {}
        self.pumps = {}
        for node, ranges in enumerate(blocks):
            gid = next(g for g, members in enumerate(groups)
                       if node in members)
            members = planner.scope(node) if planner else tuple(groups[gid])
            proto = make_worker(node, members, table=table, planner=planner,
                                centralized=centralized, ranges=ranges,
                                group=gid)
            self._spy(node, proto)
            self.protos[node] = proto
            self.pumps[node] = drive(proto, self.ports[node],
                                     self.inboxes[node], track=f"node{node}")
        if centralized:
            self.inboxes["balancer"] = Inbox()
            self.ports["balancer"] = FakePort(None, self)
            self.events["balancer"] = []
            self.conversation["balancer"] = []
            balancer = BalancerProtocol(0, groups, policy=DlbPolicy(),
                                        table=table)
            self._spy("balancer", balancer)
            self.pumps["balancer"] = drive(
                balancer, self.ports["balancer"], self.inboxes["balancer"],
                track="balancer")

    def _spy(self, node, proto):
        real = proto.on_event

        def on_event(event):
            self.events[node].append(event)
            commands = real(event)
            self.conversation[node].append(_turn(event, commands))
            return commands
        proto.on_event = on_event

    def route(self, msg):
        to_balancer = (self.centralized and msg.tag is Tag.PROFILE
                       and msg.dst == 0)
        self.inboxes["balancer" if to_balancer else msg.dst].post(msg)

    def run(self, max_steps=10_000):
        """Step every runnable participant until all returned."""
        wants = {key: pump.send(None) for key, pump in self.pumps.items()}
        reasons = {}
        for _ in range(max_steps):
            if not wants:
                return reasons
            progressed = False
            for key in list(wants):
                want = wants[key]
                if isinstance(want, Burn):
                    self.ticks += 1.0
                    reply = None
                else:
                    reply = self.inboxes[key].take(want)
                    if reply is None:
                        continue  # blocked on its wait
                progressed = True
                try:
                    wants[key] = self.pumps[key].send(reply)
                except StopIteration as stop:
                    reasons[key] = stop.value
                    del wants[key]
            assert progressed, f"deadlock: everyone waits ({wants})"
        raise AssertionError("fake cluster did not terminate")


def test_distributed_exchange_through_the_driver(table):
    """2-node GDDLB: node 1's short block finishes first, interrupts node
    0 at an iteration boundary, both plan, work moves, both finish."""
    cluster = FakeCluster(table, [[(0, 12)], [(12, 14)]], centralized=False)
    reasons = cluster.run()
    assert set(reasons) == {0, 1}
    check_coverage(cluster.ledger.stats.executed_by_node, 14)

    exe, fin, sync = ("exec",), ("finish",), ("sync",)

    def sent(tag, dst):
        return ("send", tag, dst)
    # Node 1: two iterations, then the receiver-initiated sync (§3.1);
    # four moved iterations later it finishes first again and the
    # second sync agrees the loop is done.
    assert cluster.ports[1].calls == [
        exe, exe, sent(Tag.INTERRUPT, 0), sent(Tag.PROFILE, 0), sync,
        exe, exe, exe, exe,
        sent(Tag.INTERRUPT, 0), sent(Tag.PROFILE, 0), sync, fin]
    # Node 0 stopped *between* iterations — after its third — because
    # the flag for its current epoch was set, not because its block ran
    # out; it answered with a profile, planned, and shipped work.
    # At the second sync node 0 ran out with node 1's interrupt already
    # flagged: a peer got there first, so it answers and interrupts
    # nobody.
    assert cluster.events[0].count(ComputeDone("interrupted", by=1)) == 2
    assert cluster.ports[0].calls == [
        exe, exe, exe, sent(Tag.PROFILE, 1), sync, sent(Tag.WORK, 1),
        exe, exe, exe, exe, exe,
        sent(Tag.PROFILE, 1), sync, fin]
    # The ledger booked each sync once although both replicas reported
    # it, and every participant's counters exactly once, at Done.
    syncs = cluster.ledger.stats.syncs
    assert [(s.group, s.epoch) for s in syncs] == [(0, 0), (0, 1)]
    assert cluster.ledger.stats.network_messages == sum(
        p.messages for p in cluster.ports.values())
    assert set(cluster.ledger.stats.node_finish_times) == {0, 1}


def test_centralized_exchange_through_the_driver(table):
    """GCDLB: profiles feed the balancer's own drive() pump; only it
    records syncs; workers never wait on each other's profiles."""
    cluster = FakeCluster(table, [[(0, 12)], [(12, 14)], [(14, 16)]],
                          centralized=True)
    reasons = cluster.run()
    assert set(reasons) == {0, 1, 2, "balancer"}
    check_coverage(cluster.ledger.stats.executed_by_node, 16)
    balancer_calls = cluster.ports["balancer"].calls
    assert ("sync",) in balancer_calls
    assert {call[1] for call in balancer_calls if call[0] == "send"} == \
        {Tag.INSTRUCTION}
    for node in range(3):
        assert ("sync",) not in cluster.ports[node].calls
        assert ("send", Tag.PROFILE, 0) in cluster.ports[node].calls
    # The balancer finishes without a node id: no finish time for it.
    assert set(cluster.ledger.stats.node_finish_times) == {0, 1, 2}


@pytest.mark.parametrize("strategy", ["GDDLB", "GCDLB", "DIFF", "LCDLB"])
def test_simulator_and_driver_hold_the_same_conversation(
        table, monkeypatch, strategy):
    """The four backends speak one protocol: node 0's ``on_event``
    conversation — event in, commands out — in a simulator run is, turn
    for turn, the one ``drive()`` holds against the fake port for the
    same loop and the same initial blocks; and so is the central
    balancer's, under the centralized schemes.  LCDLB runs two groups
    of two (the second a copy of the first, so both backends see the
    profiles in the same order): their services queue behind each
    other at the one balancer."""
    blocks = [[(0, 12)], [(12, 14)]]
    groups = None
    if strategy == "LCDLB":
        blocks += [[(14, 26)], [(26, 28)]]
        groups = [[0, 1], [2, 3]]
    n, n_groups = len(blocks), len(groups or [0])
    centralized = strategy in ("GCDLB", "LCDLB")
    planner = DiffusionPlanner(Topology.bus(2), DlbPolicy(), table) \
        if strategy == "DIFF" else None
    cluster = FakeCluster(table, blocks, centralized=centralized,
                          planner=planner, groups=groups)
    cluster.run()

    heard = {0: [], "balancer": []}

    def spy_on(cls, who):
        real = cls.on_event

        def spy(self, event):
            commands = real(self, event)
            if who(self) in heard:
                heard[who(self)].append(_turn(event, commands))
            return commands
        monkeypatch.setattr(cls, "on_event", spy)
    spy_on(WorkerProtocol, lambda proto: proto.me)
    spy_on(BalancerProtocol, lambda proto: "balancer")
    monkeypatch.setattr(driver, "equal_block_partition",
                        lambda _n, _p: [Assignment(b) for b in blocks])
    stats = executor.run_loop(
        LoopSpec(name="fake", n_iterations=blocks[-1][-1][1],
                 iteration_time=COST, dc_bytes=100),
        ClusterSpec.homogeneous(n, max_load=0, seed=7), strategy,
        RunOptions(policy=DlbPolicy(), group_size=2))
    assert stats.n_syncs == len(cluster.ledger.stats.syncs) == 2 * n_groups
    assert heard[0] == cluster.conversation[0]
    if strategy == "DIFF":
        # One sync per sweep from two parts each, the same on both
        # sides: node 0 shipped, node 1 left once it ran dry.
        for syncs in (stats.syncs, cluster.ledger.stats.syncs):
            assert [s.n_transfers for s in syncs] == [1, 0]
            assert [s.retired for s in syncs] == [(), (0, 1)]
    # Not vacuous: a sync that moved work, then the one that ended it.
    names = [name for _event, cmds in heard[0] for name in cmds]
    assert names.count("Send:PROFILE") == 2 and "Send:WORK" in names
    assert names[-1] == "Done"
    if strategy == "GDDLB":
        assert heard[0][2:4] == [
            ("MessageReceived", ("Charge",)),
            ("Charged", ("RecordSync", "Send:WORK", "StartCompute"))]
    if not centralized:
        assert not heard["balancer"]
        return
    # The balancer leg: drive() feeds the simulated balancer the
    # same events, and gets the same batches to run.
    assert heard["balancer"] == cluster.conversation["balancer"]
    waiting = ("MessageReceived", ("AwaitMessage",))
    service = ("Charge", "RecordSync") + ("Send:INSTRUCTION",) * 2
    assert heard["balancer"][0] == ("Start", ("AwaitMessage",))
    assert heard["balancer"][-1] == ("MessageReceived", service + ("Done",))
    if strategy == "LCDLB":
        # Both groups' gathers overlap; the second service waits its
        # turn behind the first (§4.2's delay factor).
        serving = ("MessageReceived", service + ("AwaitMessage",))
        assert heard["balancer"][1:5] == [waiting, waiting, serving, serving]


def _waiting_worker(table, ft=None):
    """A distributed worker driven up to its first profile wait."""
    inbox = Inbox()
    proto = make_worker(0, (0, 1, 2), centralized=False, table=table,
                        ranges=[(0, 1)], ft=ft)
    seen = []
    real = proto.on_event
    proto.on_event = lambda event: (seen.append(event), real(event))[1]

    port = NullPort(0, 0.0)
    pump = drive(proto, port, inbox, track="node0")
    want = pump.send(None)
    assert isinstance(want, Burn) and want == Burn(0, COST)
    want = pump.send(None)
    assert isinstance(want, AwaitMessage) and want.tags == (Tag.PROFILE,)
    return pump, port, seen, want


def test_none_receive_feeds_timer_fired(table):
    pump, port, seen, want = _waiting_worker(table, ft=FT)
    assert want.timeout is not None
    again = pump.send(None)  # the transport's "timed out"
    assert isinstance(seen[-1], TimerFired)
    assert port.retries == 1
    assert isinstance(again, AwaitMessage)


class IdlePort(NullPort):
    """The simulator's periodic member in miniature: its block is done,
    so a slice ends ``"idle"`` — and, begun from the idle wait, as the
    sync's ``"interrupted"``."""

    def __init__(self, me):
        super().__init__(me, 0.0)
        self.sent = []

    def deliver(self, msg):
        self.sent.append(msg)

    def compute(self, proto, inbox, track, boundary):
        return "interrupted" if proto.phase == "idle" else "idle"
        yield  # a generator, as every port's slice is


def test_drive_counts_one_retry_per_idle_timer_and_none_for_the_wave(table):
    proto = make_worker(1, (0, 1, 2), centralized=False, table=table, ft=FT)
    port = IdlePort(1)
    pump = drive(proto, port, Inbox(), track="node1")
    want = pump.send(None)
    assert Tag.INTERRUPT in want.tags and proto.phase == "idle"
    for attempt in range(1, FT.max_retries + 1):
        want = pump.send(None)  # the clock stays silent
        assert port.retries == attempt
        assert [(m.kind, m.dst) for m in port.sent] == \
            [("resend-profile", 0)] * attempt
    port.sent.clear()
    want = pump.send(None)  # give up: declare 0, wave to 2, then sync
    assert port.retries == FT.max_retries
    assert [(m.tag, m.dst) for m in port.sent] == \
        [(Tag.INTERRUPT, 2), (Tag.PROFILE, 2)]
    assert want.tags == (Tag.PROFILE,) and want.srcs == (2,)


class LameDuckPort(NullPort):
    """A balancer's port whose ``finish`` hands back a hold, as the
    simulator's does: it yields its own wait to the caller and ends in
    the re-sent profile it got, or in ``None`` — the last slave ended."""

    def __init__(self):
        super().__init__(None, 0.0)
        self.sent = []
        self.finishes = 0

    def deliver(self, msg):
        self.sent.append(msg)

    def finish(self, reason):
        self.finishes += 1
        return self._lame_duck()

    def _lame_duck(self):
        msg = yield "lame duck"
        return None if msg is None else MessageReceived(msg)


def _profile(src, epoch=0, group=0):
    return ProfileMsg(src=src, dst=0, epoch=epoch, group=group,
                      remaining_work=0.0, remaining_count=0, rate=1.0)


def test_the_balancer_runs_on_drive_with_a_holding_finish(table):
    """The central balancer's one pump: a probe round counts one retry
    per group it re-requests, a finished pump's hold feeds a re-sent
    profile back (answered with the cached instruction) and the pump
    ends when the hold ends in ``None``."""
    balancer = BalancerProtocol(0, [[1, 2], [3, 4]], policy=DlbPolicy(),
                                table=table, ft=FT)
    port = LameDuckPort()
    pump = drive(balancer, port, None, track="balancer")
    want = pump.send(None)
    assert isinstance(want, AwaitMessage) and want.tags == (Tag.PROFILE,)
    # Both groups silent: four probes, one retry per group.
    want = pump.send(None)
    assert [(m.kind, m.dst) for m in port.sent] == \
        [("resend-profile", node) for node in (1, 2, 3, 4)]
    assert port.retries == 2
    for src in (1, 2):
        want = pump.send(_profile(src))
    # Group 0 served; only group 1 is probed now: one more retry.
    port.sent.clear()
    want = pump.send(None)
    assert [m.dst for m in port.sent] == [3, 4]
    assert port.retries == 3
    for src in (3, 4):
        want = pump.send(_profile(src, group=1))
    assert want == "lame duck" and port.finishes == 1
    # Node 1 lost its DONE and re-sends: the cached instruction again.
    port.sent.clear()
    want = pump.send(_profile(1))
    assert [(m.dst, m.done) for m in port.sent] == [(1, True)]
    assert want == "lame duck" and port.finishes == 2
    with pytest.raises(StopIteration) as stop:
        pump.send(None)
    assert stop.value.value == "done"
    assert port.retries == 3


def test_commandless_membership_event_rearms_the_previous_wait(table):
    pump, _port, seen, want = _waiting_worker(table)
    # Peer 7 was never a member: the protocol has nothing to do.
    again = pump.send(PeerDead(7))
    assert seen[-1] == PeerDead(7)
    assert again is want


def test_interrupt_for_a_later_epoch_does_not_stop_this_one(table):
    inbox = Inbox()
    inbox.post(InterruptMsg(src=1, dst=0, epoch=3, group=0))
    proto = make_worker(0, (0, 1), centralized=False, table=table,
                        ranges=[(0, 3)])

    pump = drive(proto, NullPort(0, 0.0), inbox, track="node0")
    burns = []
    want = pump.send(None)
    while isinstance(want, Burn):
        burns.append(want.iteration)
        want = pump.send(None)
    assert burns == [0, 1, 2]  # ran to the end of the block


def test_inbox_remembers_who_interrupted_first():
    inbox = Inbox()
    assert inbox.interrupter(0) is None
    inbox.post(InterruptMsg(src=2, dst=0, epoch=0, group=0))
    inbox.post(InterruptMsg(src=1, dst=0, epoch=0, group=0))
    assert inbox.has_interrupt(0) and inbox.interrupter(0) == 2


def test_ledger_adds_up_the_parts_of_a_sweep():
    """Replicas of one plan de-duplicate; the parts of a neighbour-local
    sweep sum (moved work, transfers) and unite (retirees)."""
    stats = LoopRunStats(loop_name="fake", strategy="?", n_processors=3,
                         group_size=3, backend="fake")
    ledger = RunLedger(stats, WorkTable(1.0, 3))

    def row(moved, transfers, retired, reason):
        return {"time": 1.0, "reason": reason, "moved_work": moved,
                "n_transfers": transfers, "retired": retired,
                "predicted_current": moved, "predicted_balanced": 0.0}

    def sync(epoch, part, **kw):
        body = {"k": "sync", "group": 0, "epoch": epoch, "row": row(**kw)}
        if part:
            body["part"] = True
        return body

    for node in range(3):       # three replicas of one eq.-3 plan
        ledger.record(node, sync(0, False, moved=0.5, transfers=1,
                                 retired=[], reason="moved"), 1.0)
    ledger.record(0, sync(1, True, moved=0.0, transfers=0, retired=[0],
                          reason="done"), 2.0)
    ledger.record(1, sync(1, True, moved=0.25, transfers=2, retired=[],
                          reason="diffused"), 2.1)
    ledger.record(2, sync(1, True, moved=0.5, transfers=1, retired=[2],
                          reason="diffused"), 2.2)
    first, sweep = stats.syncs
    assert (first.moved_work, first.n_transfers) == (0.5, 1)
    assert (sweep.moved_work, sweep.n_transfers) == (0.75, 3)
    assert sweep.retired == (0, 2) and sweep.reason == "diffused"
    assert sweep.predicted_current == 0.5


# -- AwaitMessage.matches: the one matching rule ---------------------------
_MSG = ProfileMsg(src=2, dst=0, epoch=5, group=0, remaining_work=1.0,
                  remaining_count=1, rate=1.0)


@pytest.mark.parametrize("spec,expected", [
    (AwaitMessage(tags=None), True),
    (AwaitMessage(tags=(Tag.PROFILE,)), True),
    (AwaitMessage(tags=(Tag.WORK, Tag.CONTROL)), False),
    (AwaitMessage(tags=(Tag.PROFILE,), epoch=None), True),
    (AwaitMessage(tags=(Tag.PROFILE,), epoch=5), True),
    (AwaitMessage(tags=(Tag.PROFILE,), epoch=4), False),
    (AwaitMessage(tags=(Tag.PROFILE,), srcs=None), True),
    (AwaitMessage(tags=(Tag.PROFILE,), srcs=(1, 2)), True),
    (AwaitMessage(tags=(Tag.PROFILE,), srcs=(1, 3)), False),
    (AwaitMessage(tags=(Tag.PROFILE,), epoch=5, srcs=(3,)), False),
    (AwaitMessage(tags=None, epoch=None, srcs=None, timeout=0.1), True),
    (AwaitMessage(tags=(Tag.PROFILE,), max_epoch=5), True),
    (AwaitMessage(tags=(Tag.PROFILE,), max_epoch=6), True),   # stale: alive
    (AwaitMessage(tags=(Tag.PROFILE,), max_epoch=4), False),  # a later sync
    (AwaitMessage(tags=(Tag.PROFILE,), control_kind="no-work"), True),
])
def test_await_message_matches(spec, expected):
    assert spec.matches(_MSG) is expected


def test_hardened_waits_leave_what_is_not_theirs_in_the_mailbox(table):
    """The waits the pump really arms: a gather takes no later-epoch
    profile, a work wait takes its sender's ``no-work`` but not its
    ``resend-*`` requests (on thread/process nobody else would ever
    see them again)."""
    a = make_worker(0, (0, 1), centralized=False, table=table,
                    ranges=[(0, 4)], ft=FT)
    a.on_event(Start())
    gather = a.on_event(ComputeDone("finished"))[-1]
    assert (gather.tags, gather.srcs, gather.max_epoch) == \
        ((Tag.PROFILE,), (1,), 0)

    def profile(epoch):
        return ProfileMsg(src=1, dst=0, epoch=epoch, group=0,
                          remaining_work=8 * COST, remaining_count=8,
                          rate=1.0, ranges=((4, 12),))
    assert not gather.matches(profile(1))
    assert not gather.matches(
        ControlMsg(src=1, dst=0, epoch=0, kind="resend-profile"))
    assert gather.matches(profile(0))
    a.on_event(MessageReceived(profile(0)))
    wait = a.on_event(Charged())[-1]
    assert (wait.tags, wait.srcs, wait.epoch, wait.control_kind) == \
        ((Tag.WORK, Tag.CONTROL), (1,), 0, "no-work")
    for kind, expected in (("no-work", True), ("resend-work", False),
                           ("resend-profile", False)):
        assert wait.matches(
            ControlMsg(src=1, dst=0, epoch=0, kind=kind)) is expected
    assert wait.matches(_work(1, 0)) and not wait.matches(_work(1, 1))


# -- Inbox -----------------------------------------------------------------
def _work(src, epoch):
    return WorkMsg(src=src, dst=0, epoch=epoch, ranges=((0, 1),),
                   data_bytes=0)


def test_inbox_interrupts_fold_into_epoch_flags_and_never_surface():
    inbox = Inbox()
    for epoch in (1, 2, 4):
        inbox.post(InterruptMsg(src=1, dst=0, epoch=epoch, group=0))
    assert inbox.take(AwaitMessage(tags=None)) is None
    assert [inbox.has_interrupt(e) for e in range(6)] == \
        [False, True, True, False, True, False]
    inbox.drain_interrupts(2)  # forgets <= 2 only
    assert [inbox.has_interrupt(e) for e in range(6)] == \
        [False, False, False, False, True, False]
    inbox.drain_interrupts(1)  # draining never un-forgets
    assert not inbox.has_interrupt(2) and inbox.has_interrupt(4)


def test_inbox_a_wait_naming_interrupt_takes_the_first_of_its_epoch():
    """The periodic idle wait: a flagged interrupt is taken (the first
    of its epoch, once) only by a wait whose tags name INTERRUPT, and
    never from a drained epoch."""
    inbox = Inbox()
    for src, epoch in ((2, 1), (3, 1), (1, 0)):
        inbox.post(InterruptMsg(src=src, dst=0, epoch=epoch, group=0))
    idle = AwaitMessage(tags=(Tag.INTERRUPT, Tag.CONTROL), epoch=1)
    assert inbox.take(AwaitMessage(tags=(Tag.CONTROL,), epoch=1)) is None
    assert inbox.take(idle).src == 2
    assert inbox.take(idle) is None and not inbox.has_interrupt(1)
    inbox.drain_interrupts(0)
    assert inbox.take(AwaitMessage(tags=(Tag.INTERRUPT,))) is None


def test_inbox_full_drain_forgets_messages_flags_and_floor():
    inbox = Inbox()
    inbox.post(_work(1, 0))
    inbox.post(InterruptMsg(src=1, dst=0, epoch=3, group=0))
    inbox.drain_interrupts(2)
    assert inbox.drain() == [_work(1, 0)]
    assert not inbox.has_interrupt(3)
    inbox.post(InterruptMsg(src=2, dst=0, epoch=0, group=0))
    assert inbox.has_interrupt(0) and inbox.interrupter(0) == 2


def test_inbox_notices_preempt_buffered_messages():
    inbox = Inbox()
    inbox.post(_work(1, 0))
    inbox.post(PeerDead(3))
    inbox.post(PeerDead(4))
    spec = AwaitMessage(tags=(Tag.WORK,))
    assert inbox.take(spec) == PeerDead(3)
    assert inbox.take(spec) == PeerDead(4)
    assert inbox.take(spec) == _work(1, 0)
    assert inbox.take(spec) is None


def test_inbox_non_matching_messages_stay_buffered_in_arrival_order():
    inbox = Inbox()
    control = ControlMsg(src=2, dst=0, epoch=1, kind="no-work")
    for msg in (_work(1, 0), control, _work(2, 1), _work(3, 1)):
        inbox.post(msg)
    epoch1 = AwaitMessage(tags=(Tag.WORK,), epoch=1)
    assert inbox.take(epoch1) == _work(2, 1)
    assert inbox.take(AwaitMessage(tags=(Tag.INSTRUCTION,))) is None
    assert inbox.take(epoch1) == _work(3, 1)
    assert inbox.take(epoch1) is None
    # What was skipped is still there, oldest first.
    anything = AwaitMessage(tags=None)
    assert inbox.take(anything) == _work(1, 0)
    assert inbox.take(anything) == control
    assert inbox.take(anything) is None


@pytest.mark.parametrize("hardened", [False, True])
def test_the_simulator_feeds_only_an_untimed_gather_whole(
        monkeypatch, hardened):
    """An untimed gather is one pump turn per sync on the simulator; a
    timed one stays one message per turn: each arrival restarts its
    timer."""
    batches = []
    on_event = WorkerProtocol.on_event

    def spy(proto, event):
        if isinstance(event, MessageReceived) and proto.phase == "gather":
            batches.append(len(event.msgs))
        return on_event(proto, event)
    monkeypatch.setattr(WorkerProtocol, "on_event", spy)
    stats = executor.run_loop(
        LoopSpec(name="skew", n_iterations=64, dc_bytes=8,
                 iteration_time=tuple(1e-3 * (1 + j % 4) for j in range(64))),
        ClusterSpec.homogeneous(8, max_load=3, seed=7), "GDDLB",
        RunOptions(fault_tolerance=FaultToleranceConfig(enabled=hardened)))
    assert stats.n_syncs >= 1
    if hardened:
        assert set(batches) == {1} and len(batches) >= 7 * 8
    else:
        assert batches and set(batches) == {7}
