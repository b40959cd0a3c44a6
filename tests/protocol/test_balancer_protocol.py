"""Scripted event traces through :class:`BalancerProtocol`.

Covers the centralized strategies (GCDLB: one global group; LCDLB:
several local groups) plus the fault-tolerance paths — lost-INSTRUCTION
recovery from a stale duplicate profile, death pruning mid-gather, the
``TimerFired`` probe rounds — and the pump's two ports (orphan claim,
§4.3 selection).
"""

from __future__ import annotations

import pytest

from repro.apps.workload import WorkTable
from repro.core.policy import DlbPolicy
from repro.message.messages import ControlMsg, InstructionMsg, ProfileMsg, Tag
from repro.protocol import (
    AwaitMessage,
    BalancerProtocol,
    Charge,
    DeclareDead,
    Done,
    MessageReceived,
    PeerDead,
    RecordSync,
    Send,
    Start,
    TimerFired,
)
from repro.runtime.options import FaultToleranceConfig

from .conftest import COST, N_ITER, all_of, only

FT = FaultToleranceConfig(enabled=True, request_timeout=0.05, backoff=2.0,
                          max_retries=2)


def make_balancer(groups, *, ft=None):
    return BalancerProtocol(0, groups, policy=DlbPolicy(),
                            table=WorkTable(COST, N_ITER), ft=ft)


def profile(src, *, epoch=0, group=0, count=16, rate=1.0):
    """``src`` holding the first ``count`` iterations of the table (the
    planner cuts each sender's orders from its own copy)."""
    return ProfileMsg(src=src, dst=0, epoch=epoch, group=group,
                      remaining_work=count * COST, remaining_count=count,
                      rate=rate, ranges=((0, count),) if count else ())


def test_global_group_round(capsys=None):
    """GCDLB shape: one group; instructions fan out once the last
    profile lands, work moves from the slow node to the fast ones."""
    b = make_balancer([[0, 1, 2]])
    assert b.on_event(Start()) == (AwaitMessage(tags=(Tag.PROFILE,)),)

    cmds = b.on_event(MessageReceived(profile(0, count=0)))
    assert cmds == (AwaitMessage(tags=(Tag.PROFILE,)),)   # box incomplete
    cmds = b.on_event(MessageReceived(profile(1, count=0)))
    assert cmds == (AwaitMessage(tags=(Tag.PROFILE,)),)

    cmds = b.on_event(MessageReceived(profile(2, count=30)))
    charge = only(cmds, Charge)
    policy = DlbPolicy()
    assert charge.seconds == pytest.approx(
        policy.delta_seconds + 2 * policy.context_switch_seconds)
    sync = only(cmds, RecordSync)
    assert (sync.group, sync.epoch) == (0, 0)
    assert sync.plan.transfers           # imbalance forced movement
    instrs = [c.msg for c in all_of(cmds, Send)]
    assert sorted(i.dst for i in instrs) == [0, 1, 2]
    assert all(isinstance(i, InstructionMsg) and i.epoch == 0
               for i in instrs)
    assert cmds[-1] == AwaitMessage(tags=(Tag.PROFILE,))
    assert b.group_epoch[0] == 1         # next round is epoch 1


def test_local_groups_serve_independently():
    """LCDLB shape: two groups complete at different times; each is
    served as soon as its own box fills, and Done only when both
    groups report done plans."""
    b = make_balancer([[0, 1], [2, 3]])
    b.on_event(Start())

    b.on_event(MessageReceived(profile(2, group=1, count=0)))
    cmds = b.on_event(MessageReceived(profile(3, group=1, count=4)))
    sync = only(cmds, RecordSync)
    assert sync.group == 1
    assert {c.msg.dst for c in all_of(cmds, Send)} == {2, 3}
    assert b.group_epoch == {0: 0, 1: 1}  # group 0 still gathering

    # Group 1 finishes for good while group 0 holds its first sync.
    b.on_event(MessageReceived(profile(2, group=1, epoch=1, count=0)))
    cmds = b.on_event(MessageReceived(profile(3, group=1, epoch=1,
                                              count=0)))
    assert only(cmds, RecordSync).plan.done
    assert b.groups_done == {1}
    assert cmds[-1] == AwaitMessage(tags=(Tag.PROFILE,))

    b.on_event(MessageReceived(profile(0, count=0)))
    cmds = b.on_event(MessageReceived(profile(1, count=0)))
    assert only(cmds, RecordSync).plan.done
    assert cmds[-1] == Done("done")


def test_stale_profile_resends_cached_instruction():
    """Lost-INSTRUCTION recovery: a duplicate epoch-0 profile after the
    group advanced means the sender never saw its instruction — the
    cached copy is re-sent verbatim."""
    b = make_balancer([[0, 1]], ft=FT)
    b.on_event(Start())
    b.on_event(MessageReceived(profile(0, count=8)))
    cmds = b.on_event(MessageReceived(profile(1, count=8)))
    original = {c.msg.dst: c.msg for c in all_of(cmds, Send)}

    dup = profile(1, count=8)            # epoch 0 again: 1 is stuck
    cmds = b.on_event(MessageReceived(dup))
    resent = only(cmds, Send).msg
    assert resent == original[1]
    assert cmds[-1] == AwaitMessage(tags=(Tag.PROFILE,))


def test_non_profile_message_rearms():
    b = make_balancer([[0, 1]], ft=FT)
    b.on_event(Start())
    cmds = b.on_event(MessageReceived(
        ControlMsg(src=1, dst=0, epoch=0, kind="resend-work")))
    assert cmds == (AwaitMessage(tags=(Tag.PROFILE,)),)


def test_peer_death_completes_gather():
    """A death declaration mid-gather shrinks the active set; the
    survivors' box is then complete and the round is served without
    the dead node's (reclaimed) work."""
    b = make_balancer([[0, 1, 2]], ft=FT)
    b.on_event(Start())
    b.on_event(MessageReceived(profile(0, count=0)))
    b.on_event(MessageReceived(profile(1, count=12)))

    cmds = b.on_event(PeerDead(2))
    sync = only(cmds, RecordSync)
    assert 2 not in sync.plan.active
    assert {c.msg.dst for c in all_of(cmds, Send)} == {0, 1}
    assert b.group_active[0] == {0, 1}


def test_dead_profile_is_discarded():
    """A profile that raced a death declaration must not be planned
    with — its work was reclaimed into the orphan pool."""
    b = make_balancer([[0, 1]], ft=FT)
    b.on_event(Start())
    b.on_event(MessageReceived(profile(1, count=12)))
    cmds = b.on_event(PeerDead(1))
    assert not all_of(cmds, RecordSync)    # box emptied, 0 still missing
    cmds = b.on_event(MessageReceived(profile(0, count=8)))
    sync = only(cmds, RecordSync)
    assert sync.plan.active == (0,)


def test_whole_group_death_is_done():
    b = make_balancer([[0, 1], [2, 3]], ft=FT)
    b.on_event(Start())
    b.on_event(PeerDead(2))
    cmds = b.on_event(PeerDead(3))
    assert b.groups_done == {1}
    assert cmds[-1] == AwaitMessage(tags=(Tag.PROFILE,))


def probes(cmds):
    """``{dst: epoch}`` of a batch's ``resend-profile`` requests."""
    return {c.msg.dst: c.msg.epoch for c in all_of(cmds, Send)
            if isinstance(c.msg, ControlMsg)
            and c.msg.kind == "resend-profile"}


def test_probe_bookkeeping():
    """A ``TimerFired`` round probes exactly the members whose profile
    is missing and bumps only their clocks; any sign of life resets the
    sender's clock — and nobody else's."""
    b = make_balancer([[0, 1, 2]], ft=FT)
    b.on_event(Start())
    b.on_event(MessageReceived(profile(0, count=0)))

    cmds = b.on_event(TimerFired())
    assert probes(cmds) == {1: 0, 2: 0}          # 0 reported: not nudged
    assert not all_of(cmds, DeclareDead)
    assert cmds[-1] == AwaitMessage(tags=(Tag.PROFILE,))
    assert b.probe_rounds == {1: 1, 2: 1}

    # A chatty waiter (0 re-sends its profile) does not reset its
    # silent mates' clocks; a stale answer from 1 resets 1's only.
    b.on_event(MessageReceived(profile(0, count=0)))
    assert b.probe_rounds == {1: 1, 2: 1}
    b.on_event(TimerFired())
    assert b.probe_rounds == {1: 2, 2: 2}
    b.on_event(MessageReceived(profile(1, epoch=-1)))
    assert b.probe_rounds == {2: 2}
    assert 1 not in b.pending[0]                 # stale: alive, not filed


def test_overdue_member_is_declared_and_the_group_completes_on_survivors():
    """A member at ``max_retries`` unanswered rounds is declared dead
    instead of probed again; the registry's verdict comes back as
    ``PeerDead`` and the survivors' profiles make the round."""
    b = make_balancer([[0, 1, 2], [3, 4]], ft=FT)
    b.on_event(Start())
    b.on_event(MessageReceived(profile(0, count=0)))
    b.on_event(MessageReceived(profile(1, count=12)))
    b.on_event(MessageReceived(profile(3, group=1, count=4)))
    for _ in range(FT.max_retries):
        cmds = b.on_event(TimerFired())
        assert probes(cmds) == {2: 0, 4: 0}
    b.on_event(MessageReceived(profile(4, group=1, epoch=-1)))  # 4 lives

    cmds = b.on_event(TimerFired())
    assert [c.peer for c in all_of(cmds, DeclareDead)] == [2]
    assert probes(cmds) == {4: 0}                # its own clock restarted
    assert b.probe_rounds == {4: 1}
    assert not all_of(cmds, RecordSync)          # the verdict is not in yet
    assert cmds[-1] == AwaitMessage(tags=(Tag.PROFILE,))

    cmds = b.on_event(PeerDead(2))
    sync = only(cmds, RecordSync)
    assert (sync.group, sync.plan.active) == (0, (0, 1))
    assert {c.msg.dst for c in all_of(cmds, Send)} == {0, 1}


def test_a_finished_pump_probes_nobody():
    b = make_balancer([[0, 1]], ft=FT)
    b.on_event(Start())
    b.on_event(MessageReceived(profile(0, count=0)))
    assert b.on_event(MessageReceived(profile(1, count=0)))[-1] == \
        Done("done")
    assert b.on_event(TimerFired()) == (Done("done"),)


def test_orphan_claim_lands_on_the_lowest_member():
    """The reclaim pool is claimed at service start: granted to the
    group's lowest member in its instruction, and counted in its
    profile so the plan rebalances the reclaimed work at once."""
    b = make_balancer([[0, 1, 2]], ft=FT)
    claims = []

    def claim():
        claims.append(len(claims))
        return (((40, 48), (60, 64)), 12 * COST) if len(claims) == 1 \
            else ((), 0.0)
    b.claim_orphans = claim
    b.on_event(Start())
    b.on_event(MessageReceived(profile(1, count=0)))
    b.on_event(MessageReceived(profile(2, count=0)))
    assert not claims                            # not before the service
    cmds = b.on_event(MessageReceived(profile(0, count=0)))
    assert claims == [0]

    plan = only(cmds, RecordSync).plan
    assert not plan.done                         # 12 iterations came back
    assert plan.work_to_move == pytest.approx(8 * COST)
    assert {(t.src, t.dst) for t in plan.transfers} == {(0, 1), (0, 2)}
    grants = {c.msg.dst: c.msg.grant for c in all_of(cmds, Send)}
    assert grants == {0: ((40, 48), (60, 64)), 1: (), 2: ()}


def test_selection_is_stamped_on_the_first_service_only():
    """§4.3: the hook sees the first service's profiles, its choice
    rides on every instruction of that service behind its own
    ``Charge``, and ``regroup`` restarts the survivors in new groups."""
    b = make_balancer([[0, 1, 2, 3]])
    seen = []

    def select(profiles):
        seen.append([p.node for p in profiles])
        return "LC", 2, True
    b.select = select
    b.on_event(Start())
    for node in range(3):
        b.on_event(MessageReceived(profile(node, count=0)))
    cmds = b.on_event(MessageReceived(profile(3, count=32)))
    assert seen == [[0, 1, 2, 3]] and b.select is None
    policy = DlbPolicy()
    assert [c.seconds for c in all_of(cmds, Charge)] == [
        policy.selection_seconds,
        policy.delta_seconds + 2 * policy.context_switch_seconds]
    instrs = [c.msg for c in all_of(cmds, Send)]
    assert [(i.select_scheme, i.select_group_size) for i in instrs] == \
        [("LC", 2)] * 4
    assert cmds[-1] == AwaitMessage(tags=(Tag.PROFILE,))

    b.regroup([[0, 1], [2, 3]])
    assert b.group_epoch == {0: 1, 1: 1} and not b.groups_done
    b.on_event(MessageReceived(profile(2, group=1, epoch=1, count=4)))
    cmds = b.on_event(MessageReceived(profile(3, group=1, epoch=1, count=4)))
    assert only(cmds, RecordSync).group == 1
    assert all(c.msg.select_scheme == "" for c in all_of(cmds, Send))


def test_choosing_a_distributed_scheme_retires_the_balancer():
    b = make_balancer([[0, 1]])
    b.select = lambda profiles: ("GD", 0, False)
    b.on_event(Start())
    b.on_event(MessageReceived(profile(0, count=4)))
    cmds = b.on_event(MessageReceived(profile(1, count=12)))
    assert {c.msg.select_scheme for c in all_of(cmds, Send)} == {"GD"}
    assert cmds[-1] == Done("done")
    b.regroup([[0, 1]])
    assert b.all_done                            # retired stays retired
