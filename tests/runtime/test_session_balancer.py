"""Unit tests for session bookkeeping and central balancer internals."""

from types import SimpleNamespace

import pytest

from repro import run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.backend.driver import prepare_run
from repro.core.strategies import CUSTOMIZED, GCDLB, GDDLB, LCDLB, LDDLB
from repro.machine.cluster import ClusterSpec
from repro.message.messages import Tag
from repro.message.pvm import VirtualMachine
from repro.obs import TraceRecorder
from repro.protocol import (AwaitMessage, Charge, MessageReceived,
                            RecordSync, Send)
from repro.runtime.balancer import CentralBalancer
from repro.runtime.options import FaultToleranceConfig, RunOptions
from repro.runtime.session import LoopSession
from repro.runtime.stats import SyncRecord
from repro.simulation import Environment


def make_session(strategy, n=4, options=None, small_loop=None):
    from repro.apps.workload import LoopSpec
    loop = small_loop or LoopSpec(name="s", n_iterations=32,
                                  iteration_time=0.01, dc_bytes=100)
    env = Environment()
    cluster = ClusterSpec.homogeneous(n, max_load=0)
    options = options or RunOptions()
    vm = VirtualMachine(env, n, options.network)
    plan = prepare_run("sim", loop, cluster.speeds, strategy, options,
                       None, None, time_scale=1.0)
    return LoopSession(env, vm, cluster.build(), plan)


def test_global_strategy_single_group():
    session = make_session(GDDLB)
    assert session.groups == [[0, 1, 2, 3]]
    assert session.group_of[3] == 0


def test_local_strategy_k_blocks():
    session = make_session(LDDLB, n=8, options=RunOptions(group_size=4))
    assert session.groups == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert session.group_size == 4


def test_default_group_size_two_groups():
    session = make_session(LCDLB, n=6)
    assert len(session.groups) == 2


def test_custom_starts_centralized():
    session = make_session(CUSTOMIZED)
    assert session.centralized
    assert session.groups == [[0, 1, 2, 3]]


def test_apply_selection_switches_strategy():
    session = make_session(CUSTOMIZED)
    session.apply_selection("LD", 2)
    assert session.strategy.code == "LD"
    assert not session.centralized
    assert len(session.groups) == 2
    assert session.stats.selected_scheme == "LDDLB"


def test_apply_selection_idempotent():
    session = make_session(CUSTOMIZED)
    session.apply_selection("GC", 0)
    session.apply_selection("LD", 2)  # ignored
    assert session.strategy.code == "GC"


def _book(session, group, epoch, plan, part=False):
    """What ``SimPort`` does with a ``RecordSync``."""
    session.ledger.sync(SyncRecord.of_plan(session.env.now, group, epoch,
                                           plan), part)


def _decisions(recorder):
    return [(e["track"], e["args"]["epoch"], e["args"]["n_transfers"])
            for e in recorder.events() if e["name"] == "decision"]


def test_record_plan_once_per_epoch():
    from repro.core.redistribution import plan_redistribution, SyncProfile
    recorder = TraceRecorder()
    session = make_session(GDDLB, options=RunOptions(recorder=recorder))
    plan = plan_redistribution(
        [SyncProfile(0, 0.1, 10, 1.0, ((0, 10),)),
         SyncProfile(1, 0.0, 0, 1.0)],
        session.policy, session.table)
    _book(session, 0, 0, plan)
    _book(session, 0, 0, plan)   # replicated balancer, same epoch
    _book(session, 0, 1, plan)
    assert session.stats.n_syncs == 2
    # One instant per booked sync, written as it is booked.
    assert _decisions(recorder) == [("balancer", 0, 1), ("balancer", 1, 1)]


def test_record_plan_adds_up_the_parts_of_a_sweep():
    """Diffusion: every node reports its own part of a sweep — its
    outgoing transfers, itself if it leaves — and the ledger books the
    sweep as one synchronization, whose instant waits for ``close``."""
    from dataclasses import replace
    from repro.core.diffusion import plan_diffusion
    from repro.core.redistribution import SyncProfile
    from repro.core.strategies import DIFFUSION
    from repro.network.topology import Topology
    recorder = TraceRecorder()
    session = make_session(DIFFUSION, options=RunOptions(
        topology="ring", recorder=recorder))
    assert session.scope_of(0) == (0, 1, 3)
    whole = plan_diffusion(
        [SyncProfile(0, 0.3, 30, 1.0, ((0, 30),)),
         SyncProfile(1, 0.0, 0, 1.0), SyncProfile(2, 0.0, 0, 1.0),
         SyncProfile(3, 0.0, 0, 1.0)],
        Topology.ring(4), session.policy, session.table)
    for node in range(4):
        mine = whole.outgoing(node)
        _book(session, 0, 0, replace(
            whole, transfers=mine, move=bool(mine),
            work_to_move=sum(t.work for t in mine),
            retire=(2,) if node == 2 else ()), part=True)
    (sweep,) = session.stats.syncs
    assert sweep.n_transfers == len(whole.transfers) == 2
    assert sweep.moved_work == pytest.approx(whole.work_to_move)
    assert sweep.retired == (2,) and sweep.reason == "diffused"
    assert _decisions(recorder) == []
    # ``close`` audits coverage too: book the whole loop first.
    session.ledger.executed(0, [(0, session.loop.n_iterations)])
    session.ledger.close(session.env.now)
    assert _decisions(recorder) == [("balancer", 0, 2)]


def test_movement_cost_fn_built_when_policy_asks():
    from repro.core.policy import DlbPolicy
    plain = make_session(GDDLB)
    assert plain.plan.movement_cost_fn is None
    costed = make_session(
        GDDLB, options=RunOptions(policy=DlbPolicy(
            include_movement_cost=True)))
    assert costed.plan.movement_cost_fn is not None


def _profile(src, group=0, count=10):
    from repro.message.messages import ProfileMsg
    return MessageReceived(ProfileMsg(
        src=src, dst=0, epoch=0, group=group, remaining_work=1.0,
        remaining_count=count, rate=1.0))


def test_balancer_absorbs_and_queues():
    """The adapter's pump files profiles until the group is whole, then
    serves it in the same turn."""
    session = make_session(GCDLB)
    feed = CentralBalancer(session).protocol.on_event
    waiting = (AwaitMessage(tags=(Tag.PROFILE,)),)
    for node in range(3):
        assert feed(_profile(node)) == waiting   # one profile still missing
    batch = feed(_profile(3))
    assert [type(c) for c in batch[:2]] == [Charge, RecordSync]
    assert [c.msg.dst for c in batch if isinstance(c, Send)] == [0, 1, 2, 3]


def test_balancer_tracks_groups_independently():
    session = make_session(LCDLB, n=4, options=RunOptions(group_size=2))
    balancer = CentralBalancer(session)
    feed = balancer.protocol.on_event
    waiting = (AwaitMessage(tags=(Tag.PROFILE,)),)
    assert feed(_profile(0, group=0)) == waiting
    assert feed(_profile(2, group=1)) == waiting
    batch = feed(_profile(3, group=1))
    (sync,) = [c for c in batch if isinstance(c, RecordSync)]
    assert sync.group == 1
    assert [c.msg.dst for c in batch if isinstance(c, Send)] == [2, 3]
    assert balancer.protocol.group_epoch == {0: 0, 1: 1}


def test_service_wall_time_scaled_by_load():
    """A ``Charge`` on the balancer costs the master's wall time for
    that much work — and pauses the slave computing beside it."""
    session = make_session(GCDLB)
    balancer = CentralBalancer(session)
    stolen = []
    session.nodes[0] = SimpleNamespace(steal=stolen.append)
    session.env.run(session.env.process(balancer._charge(0.01)))
    # No load: wall time equals work time.
    assert session.env.now == pytest.approx(0.01)
    assert stolen == [pytest.approx(0.01)]


@pytest.mark.parametrize("max_load, persistence, chosen", [
    (3, 1.0, "LDDLB"), (5, 5.0, "GDDLB")])
def test_lame_duck_leaves_the_distributed_gather_alone(
        max_load, persistence, chosen):
    """After CUSTOM selects a distributed scheme, node 0's inbox is where
    the co-located peer gathers profiles.  The finished balancer's
    lame-duck wait used to take them, so with fault tolerance on every
    sync waited out a resend round (13.5 s for 0.77 s, no fault
    injected)."""
    def run(ft):
        return run_loop(
            mxm_loop(MxmConfig(200, 100, 100), op_seconds=4e-7),
            ClusterSpec.homogeneous(4, max_load=max_load,
                                    persistence=persistence, seed=7),
            "CUSTOM",
            RunOptions(fault_tolerance=FaultToleranceConfig(enabled=ft)))

    plain, hardened = run(False), run(True)
    assert plain.selected_scheme == hardened.selected_scheme == chosen
    assert hardened.duration <= 2 * plain.duration
    if chosen == "LDDLB":
        assert hardened.network_messages == plain.network_messages
    assert sum(hardened.executed_count(n)
               for n in hardened.executed_by_node) == 200
