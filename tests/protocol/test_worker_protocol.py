"""Scripted event traces through :class:`WorkerProtocol`.

One happy-path and one crash-recovery trace per strategy shape:
GCDLB (centralized, global group), LCDLB (centralized, local group),
GDDLB (distributed, global group), LDDLB (distributed, local group) —
plus the static NONE baseline, the lone-node edge, and the
neighbour-scoped conversation of the diffusion strategy.  Pure state
machine throughout: events in, commands out, no simulator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workload import WorkTable
from repro.core.diffusion import DiffusionPlanner
from repro.core.policy import DlbPolicy
from repro.message.messages import (
    ControlMsg,
    InstructionMsg,
    InterruptMsg,
    ProfileMsg,
    Tag,
    TransferOrder,
    WorkMsg,
)
from repro.protocol import (
    AwaitMessage,
    Charge,
    Charged,
    ComputeDone,
    DeclareDead,
    Done,
    MessageReceived,
    PeerDead,
    ProtocolError,
    ProtocolRetryExhausted,
    RecordSync,
    Send,
    Start,
    StartCompute,
    TimerFired,
    WorkReclaimed,
)
from repro.network.topology import Topology
from repro.runtime.options import FaultToleranceConfig

from .conftest import COST, all_of, make_worker, only

FT = FaultToleranceConfig(enabled=True, request_timeout=0.05, backoff=2.0,
                          max_retries=2)


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("members,group", [((0, 1, 2), 0),   # GCDLB shape
                                           ((2, 3), 1)])     # LCDLB shape
def test_centralized_happy_path(table, members, group):
    """Compute -> interrupt group -> profile to master -> instruction ->
    receive work -> next epoch -> done instruction -> Done."""
    me = members[-1]
    w = make_worker(me, members, centralized=True, table=table,
                    ranges=[(32, 48)], group=group)
    assert w.on_event(Start()) == (StartCompute(),)

    cmds = w.on_event(ComputeDone("finished"))
    interrupts = [c.msg for c in all_of(cmds, Send)
                  if c.msg.tag is Tag.INTERRUPT]
    assert sorted(m.dst for m in interrupts) == \
        sorted(set(members) - {me})
    assert all(isinstance(m, InterruptMsg) and m.epoch == 0
               for m in interrupts)
    profile = [c.msg for c in all_of(cmds, Send)
               if c.msg.tag is Tag.PROFILE]
    assert len(profile) == 1 and profile[0].dst == 0  # to the master
    assert profile[0].remaining_count == 16
    wait = only(cmds, AwaitMessage)
    assert wait.tags == (Tag.INSTRUCTION,) and wait.epoch == 0
    assert wait.timeout is None  # fault tolerance off: block forever

    # The balancer orders us to expect one incoming transfer.
    instr = InstructionMsg(src=0, dst=me, epoch=0, group=group,
                           incoming=1, active=tuple(members))
    cmds = w.on_event(MessageReceived(instr))
    wait = only(cmds, AwaitMessage)
    assert wait.tags == (Tag.WORK,) and wait.epoch == 0

    work = WorkMsg(src=members[0], dst=me, epoch=0, ranges=((0, 4),),
                   count=4)
    cmds = w.on_event(MessageReceived(work))
    assert cmds == (StartCompute(),)
    assert w.epoch == 1                      # epoch advanced
    assert w.assignment.count == 20          # 16 + 4 granted

    # Next round: the group is globally done.
    cmds = w.on_event(ComputeDone("finished"))
    done = InstructionMsg(src=0, dst=me, epoch=1, group=group, done=True,
                          active=())
    cmds = w.on_event(MessageReceived(done))
    assert cmds == (Done("done"),)
    assert w.more_work is False


@pytest.mark.parametrize("members,group", [((0, 1), 0),    # GDDLB shape
                                           ((2, 3), 1)])   # LDDLB shape
def test_distributed_happy_path(table, members, group):
    """Two peers replicate the plan; work flows from loaded to idle."""
    a, b = members
    wa = make_worker(a, members, centralized=False, table=table,
                     ranges=(), group=group)            # finished its block
    wb = make_worker(b, members, centralized=False, table=table,
                     ranges=[(32, 64)], group=group)    # 32 iterations left
    wa.on_event(Start())
    wb.on_event(Start())

    # a finishes first: interrupts b, sends its profile, gathers.
    cmds_a = wa.on_event(ComputeDone("finished"))
    sends = [c.msg for c in all_of(cmds_a, Send)]
    assert [m.tag for m in sends] == [Tag.INTERRUPT, Tag.PROFILE]
    assert all(m.dst == b for m in sends)
    wait = only(cmds_a, AwaitMessage)
    assert wait.tags == (Tag.PROFILE,) and wait.srcs == (b,)

    # b stops at an iteration boundary and profiles back.
    cmds_b = wb.on_event(ComputeDone("interrupted"))
    profile_b = only(cmds_b, Send).msg
    assert profile_b.tag is Tag.PROFILE and profile_b.dst == a

    # Deliver the profiles: a complete gather asks for the replicated
    # calculation's time and nothing else...
    delta = Charge(wa.policy.delta_seconds)
    assert wa.on_event(MessageReceived(profile_b)) == (delta,)
    profile_a = [m for m in sends if m.tag is Tag.PROFILE][0]
    assert wb.on_event(MessageReceived(profile_a)) == (delta,)
    # ...and once it is spent, both compute the same plan.
    cmds_a = wa.on_event(Charged())
    cmds_b = wb.on_event(Charged())
    plan_a = only(cmds_a, RecordSync).plan
    plan_b = only(cmds_b, RecordSync).plan
    assert plan_a.transfers == plan_b.transfers
    (transfer,) = plan_a.transfers
    assert (transfer.src, transfer.dst) == (b, a)
    assert transfer.work == pytest.approx(0.16)

    # b ships the tail half; a waits for exactly that parcel.
    work = only(cmds_b, Send).msg
    assert work.tag is Tag.WORK and work.dst == a
    assert work.ranges == ((48, 64),)
    assert cmds_b[-1] == StartCompute() and wb.epoch == 1
    wait = only(cmds_a, AwaitMessage)
    assert wait.tags == (Tag.WORK,) and wait.epoch == 0

    cmds_a = wa.on_event(MessageReceived(work))
    assert cmds_a == (StartCompute(),)
    assert wa.epoch == 1 and wa.assignment.count == 16


def test_static_baseline_stops_after_block(table):
    w = make_worker(0, (0, 1), centralized=False, table=table,
                    ranges=[(0, 32)], is_dlb=False)
    assert w.on_event(Start()) == (StartCompute(),)
    assert w.on_event(ComputeDone("finished")) == (Done("done"),)


def test_lone_distributed_node_terminates(table):
    w = make_worker(3, (3,), centralized=False, table=table,
                    ranges=[(0, 8)], group=1)
    w.on_event(Start())
    assert w.on_event(ComputeDone("finished")) == (Done("lone"),)


def test_a_deadline_syncs_a_lone_node_and_interrupts_a_group(table):
    """``ComputeDone("deadline")``: the periodic clock starts this sync
    and work may remain, so a lone node plans (with itself) instead of
    terminating, and a group's clock interrupts its peers, as a
    finisher does."""
    lone = make_worker(3, (3,), centralized=False, table=table,
                       ranges=[(0, 8)], group=1)
    lone.on_event(Start())
    assert lone.on_event(ComputeDone("deadline")) == \
        (Charge(lone.policy.delta_seconds),)
    assert lone.phase == "planning" and lone.more_work

    clock = make_worker(0, (0, 1, 2), centralized=True, table=table,
                        ranges=[(0, 8)])
    clock.on_event(Start())
    sends = [c.msg for c in all_of(clock.on_event(ComputeDone("deadline")),
                                   Send)]
    assert [(m.tag, m.dst) for m in sends] == [
        (Tag.INTERRUPT, 1), (Tag.INTERRUPT, 2), (Tag.PROFILE, 0)]
    assert sends[-1].remaining_count == 8


# ---------------------------------------------------------------------------
# The periodic ablation's idle member (§2.2)
# ---------------------------------------------------------------------------
def _idle(table, me, members=(0, 1, 2), ft=FT, centralized=True):
    """A member whose block is done, waiting for its clock."""
    w = make_worker(me, members, centralized=centralized, table=table, ft=ft)
    w.on_event(Start())
    cmds = w.on_event(ComputeDone("idle"))
    assert w.phase == "idle"
    return w, only(cmds, AwaitMessage)


def test_an_interrupt_ends_the_idle_phase(table):
    w, wait = _idle(table, 2)
    assert (wait.tags, wait.epoch, wait.control_kind) == \
        ((Tag.INTERRUPT, Tag.CONTROL), 0, "resend-profile")
    assert wait.timeout == pytest.approx(FT.timeout_for(0))
    cmds = w.on_event(MessageReceived(
        InterruptMsg(src=0, dst=2, epoch=0)))
    assert not _sends(cmds, Tag.INTERRUPT)  # a group member answers
    assert [m.dst for m in _sends(cmds, Tag.PROFILE)] == [0]
    assert w.phase == "await_instruction"
    _plain, wait = _idle(table, 2, ft=None)
    assert wait.timeout is None


def test_the_probe_ends_the_idle_phase(table):
    """A request for this epoch's profile — the central balancer's
    liveness probe — is the interrupt that got lost: the member syncs.
    A request for its work is no such thing."""
    w, wait = _idle(table, 2)
    assert not wait.matches(ControlMsg(src=0, dst=2, epoch=0,
                                       kind="resend-work"))
    probe = ControlMsg(src=0, dst=2, epoch=0, kind="resend-profile")
    assert wait.matches(probe)
    cmds = w.on_event(MessageReceived(probe))
    assert [m.dst for m in _sends(cmds, Tag.PROFILE)] == [0]
    assert w.phase == "await_instruction"


def test_each_idle_timer_re_requests_the_clocks_profile(table):
    w, _ = _idle(table, 2)
    for attempt in range(1, FT.max_retries + 1):
        cmds = w.on_event(TimerFired())
        probe = only(cmds, Send).msg
        assert (probe.tag, probe.kind, probe.dst, probe.epoch) == \
            (Tag.CONTROL, "resend-profile", 0, 0)
        assert only(cmds, AwaitMessage).timeout == \
            pytest.approx(FT.timeout_for(attempt))
        assert w.phase == "idle"


@pytest.mark.parametrize("me, wave", [(1, [2, 3]), (2, []), (3, [])])
def test_a_silent_clock_is_declared_and_the_lowest_survivor_waves(
        table, me, wave):
    w, _ = _idle(table, me, members=(0, 1, 2, 3))
    for _ in range(FT.max_retries):
        w.on_event(TimerFired())
    cmds = w.on_event(TimerFired())
    assert cmds == (DeclareDead(0),) + tuple(
        Send(InterruptMsg(src=me, dst=o, epoch=0)) for o in wave) \
        + (StartCompute(),)
    assert w.active == {1, 2, 3}
    # The (empty) slice that readies the profile enters the sync on
    # the interrupted path: no second wave.
    cmds = w.on_event(ComputeDone("interrupted"))
    assert not _sends(cmds, Tag.INTERRUPT)
    assert [m.dst for m in _sends(cmds, Tag.PROFILE)] == [0]


def test_a_member_that_became_the_clock_syncs_without_a_wave(table):
    w, _ = _idle(table, 1, centralized=False)
    w.on_event(PeerDead(0))  # told by some detector: 1 is the clock now
    cmds = w.on_event(TimerFired())
    assert cmds == (StartCompute(),)
    cmds = w.on_event(ComputeDone("interrupted"))
    assert not _sends(cmds, Tag.INTERRUPT)
    assert [m.dst for m in _sends(cmds, Tag.PROFILE)] == [2]


@pytest.mark.parametrize("ft", [None, FT])
def test_an_idle_timer_under_neighbour_scope_starts_its_own_wave(table, ft):
    w = line_worker(1, table, ft=ft)
    w.on_event(Start())
    w.on_event(ComputeDone("idle"))
    assert w.phase == "idle"
    assert w.on_event(TimerFired()) == (StartCompute(),)
    cmds = w.on_event(ComputeDone("interrupted"))
    assert [m.dst for m in _sends(cmds, Tag.INTERRUPT)] == [0, 2]
    assert [m.dst for m in _sends(cmds, Tag.PROFILE)] == [0, 2]


def test_retire_path(table):
    """A retiring node ships everything and exits with Done('retired')."""
    w = make_worker(1, (0, 1), centralized=True, table=table,
                    ranges=[(60, 64)])
    w.on_event(Start())
    w.on_event(ComputeDone("interrupted"))
    instr = InstructionMsg(
        src=0, dst=1, epoch=0,
        outgoing=(TransferOrder(src=1, dst=0, work=4 * COST),),
        retire=True, active=(0,))
    cmds = w.on_event(MessageReceived(instr))
    work = only(cmds, Send).msg
    assert work.ranges == ((60, 64),)      # ship-all on retirement
    assert cmds[-1] == Done("retired")
    assert w.more_work is False and w.assignment.empty


# ---------------------------------------------------------------------------
# Crash recovery (hardened protocol as pure transitions)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("members,group", [((0, 1, 2), 0),   # GCDLB shape
                                           ((2, 3), 1)])     # LCDLB shape
def test_centralized_lost_instruction_recovery(table, members, group):
    """Timeouts re-send the profile with backoff; exhaustion raises —
    ``max_retries`` re-sends past the master's time-to-declare."""
    me = members[-1]
    w = make_worker(me, members, centralized=True, table=table,
                    ranges=[(0, 8)], ft=FT, group=group)
    w.on_event(Start())
    cmds = w.on_event(ComputeDone("finished"))
    wait = only(cmds, AwaitMessage)
    assert wait.timeout == pytest.approx(FT.timeout_for(0))

    waited = [wait.timeout]
    for attempt in range(1, FT.instruction_retries + 1):
        cmds = w.on_event(TimerFired())
        resent = only(cmds, Send).msg
        assert resent.tag is Tag.PROFILE and resent.dst == 0
        wait = only(cmds, AwaitMessage)
        assert wait.timeout == pytest.approx(
            FT.timeout_for(min(attempt, FT.max_retries)))
        waited.append(wait.timeout)

    with pytest.raises(ProtocolRetryExhausted):
        w.on_event(TimerFired())  # the master is assumed reliable
    # The last max_retries + 1 timers all fired past the master's
    # time-to-declare (the timer before them did not).
    past = [sum(waited[:k + 1]) > FT.liveness_timeout * (FT.max_retries + 1)
            for k in range(len(waited))]
    assert past == [False] * (len(waited) - FT.max_retries - 1) \
        + [True] * (FT.max_retries + 1)


@pytest.mark.parametrize("members,group", [((0, 1, 2), 0),   # GDDLB shape
                                           ((2, 3, 4), 1)])  # LDDLB shape
def test_distributed_silent_peer_declared_dead(table, members, group):
    """Gather probes a silent peer, then plans over the survivors."""
    me, alive_peer, silent = members
    w = make_worker(me, members, centralized=False, table=table,
                    ranges=[(0, 16)], ft=FT, group=group)
    w.on_event(Start())
    cmds = w.on_event(ComputeDone("finished"))
    assert only(cmds, AwaitMessage).srcs == tuple(sorted((alive_peer,
                                                          silent)))

    alive = ProfileMsg(src=alive_peer, dst=me, epoch=0, group=group,
                       remaining_work=16 * COST, remaining_count=16,
                       rate=1.0)
    w.on_event(MessageReceived(alive))

    # Two probe rounds against the silent peer...
    for _ in range(FT.max_retries):
        cmds = w.on_event(TimerFired())
        probe = only(cmds, Send).msg
        assert isinstance(probe, ControlMsg) and probe.dst == silent
        assert probe.kind == "resend-profile"
    # ...then the declaration, and a plan over the survivors.
    cmds = w.on_event(TimerFired())
    assert only(cmds, DeclareDead).peer == silent
    assert silent not in w.active
    assert isinstance(cmds[-1], Charge)
    cmds = w.on_event(Charged())
    plan = only(cmds, RecordSync).plan
    assert silent not in plan.active
    assert cmds[-1] in (StartCompute(),) or isinstance(cmds[-1],
                                                       AwaitMessage)


def test_distributed_stale_profile_is_liveness_evidence(table):
    """A stale profile resets the sender's probe budget (it is alive,
    just stuck in an older epoch) without contributing plan data."""
    w = make_worker(0, (0, 1), centralized=False, table=table,
                    ranges=[(0, 16)], ft=FT)
    w.on_event(Start())
    # Reach epoch 1 via a first no-op sync round.
    w.on_event(ComputeDone("finished"))
    fresh = ProfileMsg(src=1, dst=0, epoch=0, remaining_work=16 * COST,
                       remaining_count=16, rate=1.0)
    w.on_event(MessageReceived(fresh))
    w.on_event(Charged())
    assert w.epoch == 1

    w.on_event(ComputeDone("finished"))
    w.on_event(TimerFired())               # probe round 1
    stale = ProfileMsg(src=1, dst=0, epoch=0, remaining_work=0,
                       remaining_count=0, rate=1.0)
    w.on_event(MessageReceived(stale))     # resets rounds to 0
    for _ in range(FT.max_retries):        # full budget again
        cmds = w.on_event(TimerFired())
        assert not all_of(cmds, DeclareDead)
    cmds = w.on_event(TimerFired())
    assert only(cmds, DeclareDead).peer == 1


def test_recv_work_timeout_and_no_work_reply(table):
    """A missing parcel is re-requested; a 'no-work' control releases
    the waiter (plan divergence under partial failure)."""
    w = make_worker(1, (0, 1), centralized=True, table=table,
                    ranges=[(8, 16)], ft=FT)
    w.on_event(Start())
    w.on_event(ComputeDone("interrupted"))
    instr = InstructionMsg(src=0, dst=1, epoch=0, incoming=1,
                           incoming_srcs=(0,), active=(0, 1))
    cmds = w.on_event(MessageReceived(instr))
    wait = only(cmds, AwaitMessage)
    assert wait.tags == (Tag.WORK, Tag.CONTROL) and wait.srcs == (0,)

    cmds = w.on_event(TimerFired())
    nudge = only(cmds, Send).msg
    assert isinstance(nudge, ControlMsg) and nudge.kind == "resend-work"

    release = ControlMsg(src=0, dst=1, epoch=0, kind="no-work")
    cmds = w.on_event(MessageReceived(release))
    assert cmds[-1] == StartCompute() and w.epoch == 1


def test_instruction_grant_absorbs_orphans(table):
    """Orphaned ranges granted by the balancer join the assignment
    before the plan applies."""
    w = make_worker(1, (0, 1), centralized=True, table=table,
                    ranges=[(8, 16)], ft=FT)
    w.on_event(Start())
    w.on_event(ComputeDone("interrupted"))
    instr = InstructionMsg(src=0, dst=1, epoch=0, grant=((48, 56),),
                           active=(0, 1))
    cmds = w.on_event(MessageReceived(instr))
    assert w.assignment.count == 16       # 8 own + 8 granted
    assert cmds[-1] == StartCompute()


def test_nothing_moves_before_the_planning_charge_has_elapsed(table):
    """The last profile of a gather ends the batch in ``Charge``; until
    ``Charged`` is fed the assignment, the work cache and the epoch are
    untouched — a ``resend-work`` served in between is ``no-work``."""
    w = make_worker(1, (0, 1), centralized=False, table=table,
                    ranges=[(32, 64)], ft=FT)
    w.on_event(Start())
    w.on_event(ComputeDone("interrupted"))
    idle = ProfileMsg(src=0, dst=1, epoch=0, remaining_work=0.0,
                      remaining_count=0, rate=1.0)
    cmds = w.on_event(MessageReceived(idle))
    assert cmds == (Charge(w.policy.delta_seconds),)
    assert w.phase == "planning"
    assert w.epoch == 0 and w.assignment.count == 32

    ask = ControlMsg(src=0, dst=1, epoch=0, kind="resend-work")
    reply = w.answer_resend(ask)
    assert isinstance(reply, ControlMsg) and reply.kind == "no-work"
    assert (reply.dst, reply.epoch) == (0, 0)

    cmds = w.on_event(Charged())
    work = only(cmds, Send).msg
    assert work.tag is Tag.WORK and work.ranges == ((48, 64),)
    assert cmds[-1] == StartCompute()
    assert w.epoch == 1 and w.assignment.count == 16
    # The same request is now answered with the parcel itself.
    assert w.answer_resend(ask) == work


def test_resend_profile_is_answered_exactly_or_with_the_latest(table):
    w = make_worker(0, (0, 1), centralized=False, table=table,
                    ranges=[(0, 16)], ft=FT)
    ask = ControlMsg(src=1, dst=0, epoch=0, kind="resend-profile")
    assert w.answer_resend(ask) is None          # nothing cached yet
    w.on_event(Start())
    w.on_event(ComputeDone("finished"))
    exact = w.answer_resend(ask)
    assert isinstance(exact, ProfileMsg)
    assert (exact.dst, exact.epoch, exact.remaining_count) == (1, 0, 16)
    # A prober ahead of us gets the latest profile: liveness evidence.
    ahead = ControlMsg(src=1, dst=0, epoch=3, kind="resend-profile")
    assert w.answer_resend(ahead) == exact
    assert w.answer_resend(
        ControlMsg(src=1, dst=0, epoch=0, kind="no-work")) is None


def test_consensus_done_then_reclaimed_work_continues_alone(table):
    """Orphans surfacing after the group agreed it was done are finished
    alone at the next epoch: nobody is left to rebalance with."""
    w = make_worker(0, (0, 1), centralized=False, table=table,
                    ranges=(), ft=FT)
    w.on_event(Start())
    w.on_event(ComputeDone("interrupted"))
    idle = ProfileMsg(src=1, dst=0, epoch=0, remaining_work=0.0,
                      remaining_count=0, rate=1.0)
    w.on_event(MessageReceived(idle))
    assert w.on_event(Charged())[-1] == Done("done")
    assert w.more_work is False

    w.assignment.add([(40, 44)])            # the backend's registry
    assert w.on_event(WorkReclaimed()) == (StartCompute(),)
    assert w.more_work and w.epoch == 1 and w.active == {0}
    assert w.on_event(ComputeDone("finished")) == (Done("lone"),)


def test_hardened_retiree_ships_late_work_to_the_lowest_survivor(table):
    w = make_worker(2, (0, 1, 2), centralized=True, table=table,
                    ranges=(), ft=FT)
    w.on_event(Start())
    w.on_event(ComputeDone("finished"))
    instr = InstructionMsg(src=0, dst=2, epoch=0, grant=((8, 12),),
                           retire=True, active=(0, 1))
    cmds = w.on_event(MessageReceived(instr))
    leftover = only(cmds, Send).msg
    assert leftover.tag is Tag.WORK and leftover.dst == 0
    assert leftover.ranges == ((8, 12),) and leftover.count == 4
    assert cmds[-1] == Done("retired") and w.assignment.empty


# ---------------------------------------------------------------------------
# Neighbour scope (diffusion): the wave, leaving, the retire note.
# A 3-node line 0 - 1 - 2; alpha = 1 / (1 + max_degree) = 1/3.
# ---------------------------------------------------------------------------
LINE = Topology("line", 3, ((0, 1), (1, 2)))


def line_worker(me, table, ranges=(), ft=None):
    planner = DiffusionPlanner(LINE, DlbPolicy(), table)
    return make_worker(me, planner.scope(me), centralized=False,
                       table=table, ranges=ranges, ft=ft, planner=planner)


def _sends(cmds, tag):
    return [c.msg for c in all_of(cmds, Send) if c.msg.tag is tag]


def _profile(src, dst, epoch, count):
    """``src`` holding ``count`` iterations from ``16 * src`` on."""
    return ProfileMsg(src=src, dst=dst, epoch=epoch,
                      remaining_work=count * COST, remaining_count=count,
                      rate=1.0, ranges=((16 * src, 16 * src + count),)
                      if count else ())


def test_neighbour_scope_is_the_closed_neighbourhood(table):
    assert line_worker(0, table).members == (0, 1)
    assert line_worker(1, table).members == (0, 1, 2)
    assert line_worker(1, table).neighbour_scope
    assert not make_worker(1, (0, 1, 2), centralized=False,
                           table=table).neighbour_scope


def test_interrupted_node_forwards_the_interrupt(table):
    """The middle node, interrupted by 0, tells 2 — the one neighbour 0
    does not reach itself — and profiles to both; an initiator tells
    every neighbour; an unknown interrupter is passed on to all."""
    w = line_worker(1, table, ranges=[(16, 32)])
    w.on_event(Start())
    cmds = w.on_event(ComputeDone("interrupted", by=0))
    assert [m.dst for m in _sends(cmds, Tag.INTERRUPT)] == [2]
    assert [m.dst for m in _sends(cmds, Tag.PROFILE)] == [0, 2]
    wait = only(cmds, AwaitMessage)
    assert wait.tags == (Tag.PROFILE, Tag.CONTROL)
    assert (wait.srcs, wait.epoch, wait.control_kind) == \
        ((0, 2), 0, "retire")

    initiator = line_worker(1, table)
    initiator.on_event(Start())
    cmds = initiator.on_event(ComputeDone("finished"))
    assert [m.dst for m in _sends(cmds, Tag.INTERRUPT)] == [0, 2]

    unknown = line_worker(1, table, ranges=[(16, 32)])
    unknown.on_event(Start())
    cmds = unknown.on_event(ComputeDone("interrupted"))
    assert [m.dst for m in _sends(cmds, Tag.INTERRUPT)] == [0, 2]


def test_edge_flows_agree_without_a_global_plan(table):
    """Node 0 (idle) and node 1 (18 iterations) each plan from what they
    hold — 1 also sees node 2 — and agree on the parcel over their edge:
    floor(alpha * 0.18 / 0.01) = 6 iterations."""
    w0 = line_worker(0, table)
    w1 = line_worker(1, table, ranges=[(16, 34)])
    for w in (w0, w1):
        w.on_event(Start())
    w0.on_event(ComputeDone("finished"))
    w1.on_event(ComputeDone("interrupted", by=0))
    assert w0.on_event(MessageReceived(_profile(1, 0, 0, 18))) == \
        (Charge(w0.policy.delta_seconds),)
    w1.on_event(MessageReceived(_profile(0, 1, 0, 0)))
    w1.on_event(MessageReceived(_profile(2, 1, 0, 18)))

    cmds0 = w0.on_event(Charged())
    wait = only(cmds0, AwaitMessage)
    assert wait.tags == (Tag.WORK,) and w0.phase == "recv_work"
    cmds1 = w1.on_event(Charged())
    (parcel,) = _sends(cmds1, Tag.WORK)
    assert (parcel.dst, parcel.count) == (0, 6)
    # 1 stays: its share of the sweep is its own outgoing transfer.
    record = only(cmds1, RecordSync)
    assert record.part and record.plan.retire == ()
    assert [(t.src, t.dst) for t in record.plan.transfers] == [(1, 0)]
    assert cmds1[-1] == StartCompute() and w1.epoch == 1

    cmds0 = w0.on_event(MessageReceived(parcel))
    assert only(cmds0, RecordSync).plan.transfers == ()
    assert cmds0[-1] == StartCompute() and w0.assignment.count == 6


def test_leaving_notes_every_active_neighbour(table):
    """Nothing to compute and nothing inbound at the end of the sweep:
    a retire note stamped with the next epoch to each neighbour, this
    node under ``retire`` in its part of the sweep, Done."""
    w = line_worker(1, table)
    w.on_event(Start())
    w.on_event(ComputeDone("finished"))
    w.on_event(MessageReceived(_profile(0, 1, 0, 0)))
    w.on_event(MessageReceived(_profile(2, 1, 0, 0)))
    cmds = w.on_event(Charged())
    notes = _sends(cmds, Tag.CONTROL)
    assert [(n.dst, n.epoch, n.kind) for n in notes] == \
        [(0, 1, "retire"), (2, 1, "retire")]
    record = only(cmds, RecordSync)
    assert record.part and record.plan.retire == (1,)
    assert cmds[-1] == Done("done") and w.more_work is False


def test_retire_note_stands_in_for_a_profile(table):
    """The next gather takes a neighbour's note in place of its profile
    and drops the sender from the active set; a note stamped with a
    later epoch is not this gather's to consume."""
    w = line_worker(1, table, ranges=[(16, 32)])
    w.on_event(Start())
    cmds = w.on_event(ComputeDone("finished"))
    wait = only(cmds, AwaitMessage)
    early = ControlMsg(src=0, dst=1, epoch=1, kind="retire")
    assert not wait.matches(early)
    assert w.on_event(MessageReceived(early)) == (wait,)   # left alone
    assert w.active == {0, 1, 2}

    note = ControlMsg(src=0, dst=1, epoch=0, kind="retire")
    assert wait.matches(note)
    cmds = w.on_event(MessageReceived(note))
    assert w.active == {1, 2}
    assert only(cmds, AwaitMessage).srcs == (2,)
    # The plan then runs over the survivors: no flow on the dead edge.
    w.on_event(MessageReceived(_profile(2, 1, 0, 16)))
    cmds = w.on_event(Charged())
    assert not _sends(cmds, Tag.WORK)
    # ...and the next sweep addresses node 2 alone.
    cmds = w.on_event(ComputeDone("finished"))
    assert {c.msg.dst for c in all_of(cmds, Send)} == {2}


def test_retired_node_answers_resend_profile_with_the_note(table):
    w = line_worker(0, table, ft=FT)
    w.on_event(Start())
    w.on_event(ComputeDone("finished"))
    w.on_event(MessageReceived(_profile(1, 0, 0, 0)))
    assert w.on_event(Charged())[-1] == Done("done")
    # Its last sweep's profile is still served exactly...
    ask = ControlMsg(src=1, dst=0, epoch=0, kind="resend-profile")
    assert isinstance(w.answer_resend(ask), ProfileMsg)
    # ...but a neighbour gathering the next sweep gets the note again.
    ask = ControlMsg(src=1, dst=0, epoch=1, kind="resend-profile")
    reply = w.answer_resend(ask)
    assert isinstance(reply, ControlMsg)
    assert (reply.kind, reply.dst, reply.epoch) == ("retire", 1, 1)


def test_hardened_gather_takes_the_note_and_the_work_wait_a_keepalive(table):
    w = line_worker(0, table, ft=FT)
    w.on_event(Start())
    cmds = w.on_event(ComputeDone("finished"))
    wait = only(cmds, AwaitMessage)
    assert wait.max_epoch == 0 and wait.control_kind == "retire"
    assert wait.matches(ControlMsg(src=1, dst=0, epoch=0, kind="retire"))
    assert not wait.matches(
        ControlMsg(src=1, dst=0, epoch=0, kind="resend-profile"))
    w.on_event(MessageReceived(_profile(1, 0, 0, 18)))
    cmds = w.on_event(Charged())
    wait = only(cmds, AwaitMessage)
    assert wait.tags == (Tag.WORK, Tag.CONTROL, Tag.PROFILE)
    # The sender is still gathering: asked for the parcel, it says
    # "alive, keep waiting" with its profile, which renews the wait.
    sender = line_worker(1, table, ranges=[(16, 34)], ft=FT)
    sender.on_event(Start())
    sender.on_event(ComputeDone("interrupted", by=0))
    w.on_event(TimerFired())
    ask = ControlMsg(src=0, dst=1, epoch=0, kind="resend-work")
    alive = sender.answer_resend(ask)
    assert isinstance(alive, ProfileMsg) and alive.dst == 0
    cmds = w.on_event(MessageReceived(alive))
    assert only(cmds, AwaitMessage).timeout == FT.timeout_for(0)
    assert w.phase == "recv_work"


# ---------------------------------------------------------------------------
# The gather contract: a batch ends where its messages one at a time do.
# ---------------------------------------------------------------------------
def _gather_state(w):
    return (w.phase, w.epoch, sorted(w.active), dict(w._profiles),
            set(w._missing), dict(w._rounds), w._wait)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_gather_in_batches_ends_where_single_deliveries_do(data):
    """Node 0 gathers from ``k`` peers, some of which (under neighbour
    scope) send a ``retire`` note instead: fed in any arrival order and
    any split into batches, every batch returns the commands the last
    of its messages returned one at a time, and leaves the same state;
    then both plan alike."""
    table = WorkTable(COST, n_iterations=128)
    k = data.draw(st.integers(2, 6), label="peers")
    diffusion = data.draw(st.booleans(), label="neighbour scope")
    ft = FT if data.draw(st.booleans(), label="hardened") else None
    planner = DiffusionPlanner(Topology.bus(k + 1), DlbPolicy(), table) \
        if diffusion else None

    def worker():
        w = make_worker(0, range(k + 1), centralized=False, table=table,
                        ranges=[(0, 8)], ft=ft, planner=planner)
        w.on_event(Start())
        w.on_event(ComputeDone("finished"))
        return w

    counts = data.draw(st.lists(st.integers(0, 8), min_size=k, max_size=k),
                       label="remaining")
    msgs = [ControlMsg(src=src, dst=0, epoch=0, kind="retire")
            if diffusion and count == 0 else _profile(src, 0, 0, count)
            for src, count in enumerate(counts, start=1)]
    msgs = data.draw(st.permutations(msgs), label="arrival order")
    cuts = sorted(data.draw(st.sets(st.integers(1, k - 1)), label="cuts"))

    single, batched = worker(), worker()
    answers, states = [], []
    for msg in msgs:
        answers.append(single.on_event(MessageReceived(msg)))
        states.append(_gather_state(single))
    for start, end in zip([0, *cuts], [*cuts, k]):
        batch = msgs[start:end]
        assert batched.on_event(MessageReceived(
            batch[-1], tuple(batch[:-1]))) == answers[end - 1]
        assert _gather_state(batched) == states[end - 1]
    assert isinstance(answers[-1][-1], Charge)
    assert batched.on_event(Charged()) == single.on_event(Charged())
    assert batched.assignment.ranges == single.assignment.ranges


def test_a_gather_leaves_what_its_re_armed_wait_would(table):
    """A sender already heard, or a message the wait does not match,
    is left — as a single delivery leaves it — not counted twice."""
    w = make_worker(0, (0, 1, 2), centralized=False, table=table,
                    ranges=[(0, 8)])
    w.on_event(Start())
    w.on_event(ComputeDone("finished"))
    cmds = w.on_event(MessageReceived(_profile(1, 0, 0, 4), (
        _profile(1, 0, 0, 2), _profile(2, 0, 1, 4))))
    assert only(cmds, AwaitMessage).srcs == (2,)
    assert w._profiles[1].remaining_count == 2


def test_only_a_gather_takes_a_batch(table):
    w = make_worker(1, (0, 1), centralized=True, table=table,
                    ranges=[(0, 8)])
    w.on_event(Start())
    w.on_event(ComputeDone("finished"))
    instr = InstructionMsg(src=0, dst=1, epoch=0, active=(0, 1))
    with pytest.raises(ProtocolError, match="only a gather"):
        w.on_event(MessageReceived(instr, (instr,)))
