"""Unit and property tests for the redistribution planner (§3.3–§3.4),
the quantizer both planners share, and the planner's memo."""

import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.workload import LoopSpec, WorkTable
from repro.core import redistribution
from repro.core.diffusion import plan_diffusion
from repro.core.policy import DlbPolicy
from repro.core.redistribution import (
    SyncProfile,
    make_movement_cost_estimator,
    plan_redistribution,
)
from repro.message.frames import (
    FrameType,
    decode_frame,
    encode_frame,
    message_from_wire,
    message_to_wire,
)
from repro.message.messages import ProfileMsg
from repro.network.topology import Topology
from repro.runtime.assignment import Assignment
from repro.runtime.options import RunOptions

POLICY = DlbPolicy()
MEAN_ITER = 0.01
#: Room for ten nodes' blocks of up to 10,000 iterations each.
BLOCK = 10_000
TABLE = WorkTable(MEAN_ITER, 10 * BLOCK)


def prof(node, work, rate):
    """Node ``node`` holding one block of ``work`` seconds of iterations
    (rounded to whole ones) of :data:`TABLE`."""
    count = int(round(work / MEAN_ITER))
    start = node * BLOCK
    return SyncProfile(node=node, remaining_work=TABLE.range_work(
        start, start + count), remaining_count=count, rate=rate,
        ranges=((start, start + count),))


def test_empty_profiles_rejected():
    with pytest.raises(ValueError):
        plan_redistribution([], POLICY, TABLE)


def test_duplicate_nodes_rejected():
    with pytest.raises(ValueError):
        plan_redistribution([prof(0, 1.0, 1.0), prof(0, 1.0, 1.0)],
                            POLICY, TABLE)


def test_all_done_terminates():
    plan = plan_redistribution([prof(0, 0.0, 1.0), prof(1, 0.0, 1.0)],
                               POLICY, TABLE)
    assert plan.done
    assert plan.retire == (0, 1)
    assert plan.active == ()


def test_balanced_system_does_not_move():
    plan = plan_redistribution([prof(0, 1.0, 1.0), prof(1, 1.0, 1.0)],
                               POLICY, TABLE)
    assert not plan.move
    assert plan.reason == "below-move-threshold"
    assert plan.active == (0, 1)


def test_imbalance_moves_from_slow_to_fast():
    plan = plan_redistribution(
        [prof(0, 2.0, 1.0), prof(1, 0.0, 1.0)], POLICY, TABLE)
    assert plan.move
    assert len(plan.transfers) == 1
    t = plan.transfers[0]
    assert t.src == 0 and t.dst == 1
    assert t.work == pytest.approx(1.0)


def test_shares_proportional_to_rates():
    plan = plan_redistribution(
        [prof(0, 3.0, 3.0), prof(1, 0.0, 1.0)], POLICY, TABLE)
    assert plan.move
    assert plan.shares[0] == pytest.approx(2.25)
    assert plan.shares[1] == pytest.approx(0.75)


def test_idle_finisher_stays_active_on_move():
    plan = plan_redistribution(
        [prof(0, 2.0, 1.0), prof(1, 0.0, 2.0)], POLICY, TABLE)
    assert plan.move
    assert 1 in plan.active


def test_idle_node_retires_on_no_move():
    # One iteration left: it cannot be split, so nothing moves.
    plan = plan_redistribution(
        [prof(0, 0.01, 1.0), prof(1, 0.0, 1.0)], POLICY, TABLE)
    assert not plan.move
    assert 1 in plan.retire
    assert plan.active == (0,)


def test_sub_iteration_moves_blocked():
    """An order worth less than the sender's tail iteration ships
    nothing, so it is never made — and the node it would have fed,
    holding nothing, retires instead of synchronizing again at once."""
    costs = [0.001] * 9 + [0.05]  # a dear tail, as in a triangular loop
    table = WorkTable(costs)
    profiles = [SyncProfile(0, table.total_work, 10, 1.0, ((0, 10),)),
                SyncProfile(1, 0.0, 0, 1.0)]
    plan = plan_redistribution(profiles, POLICY, table)
    assert not plan.move
    assert plan.reason == "below-move-threshold"
    assert plan.retire == (1,)


def test_unprofitable_move_blocked():
    """Within 10% of balance already: not worth the disruption."""
    plan = plan_redistribution(
        [prof(0, 1.04, 1.0), prof(1, 0.96, 1.0)],
        DlbPolicy(min_move_fraction=0.0), TABLE)
    assert not plan.move
    assert plan.reason == "unprofitable"


def test_profitability_uses_threshold():
    # 2:1 imbalance: balanced time 1.5 < 0.9 * 2.0 -> move.
    plan = plan_redistribution(
        [prof(0, 2.0, 1.0), prof(1, 1.0, 1.0)], POLICY, TABLE)
    assert plan.move
    assert plan.predicted_current == pytest.approx(2.0)
    assert plan.predicted_balanced == pytest.approx(1.5)


def test_movement_cost_inclusion_blocks_marginal_move():
    profiles = [prof(0, 2.0, 1.0), prof(1, 1.2, 1.0)]
    base = DlbPolicy(include_movement_cost=False)
    incl = DlbPolicy(include_movement_cost=True)
    costly = lambda transfers: 10.0  # noqa: E731 - huge movement cost
    assert plan_redistribution(profiles, base, TABLE, costly).move
    assert not plan_redistribution(profiles, incl, TABLE, costly).move


def test_movement_cost_estimator():
    est = make_movement_cost_estimator(latency=1e-3, bandwidth=1e6,
                                       dc_bytes=1000,
                                       mean_iteration_time=0.01)
    from repro.message.messages import TransferOrder
    cost = est([TransferOrder(0, 1, 0.1)])  # 10 iterations -> 10 kB
    assert cost == pytest.approx(1e-3 + 0.01)


def test_zero_rates_fall_back_to_equal():
    plan = plan_redistribution(
        [prof(0, 2.0, 0.0), prof(1, 0.0, 0.0)], POLICY, TABLE)
    assert plan.move
    assert plan.shares[0] == pytest.approx(1.0)


def test_rate_floor_prevents_starvation():
    """A stalled node still receives a share (floored rate)."""
    plan = plan_redistribution(
        [prof(0, 5.0, 10.0), prof(1, 5.0, 0.0)], POLICY, TABLE)
    assert plan.shares.get(1, 0.0) > 0.0 or 1 in plan.retire


def test_very_slow_node_retired_and_drained():
    """A node whose share rounds below one iteration ships everything."""
    policy = DlbPolicy(retire_fraction=0.5)
    plan = plan_redistribution(
        [prof(0, 0.02, 1000.0), prof(1, 0.02, 1e-4)],
        policy.but(min_move_fraction=0.0), TABLE)
    assert plan.move
    assert 1 in plan.retire
    # All of node 1's work is covered by its outgoing transfers.
    out = sum(t.work for t in plan.outgoing(1))
    assert out == pytest.approx(0.02, rel=1e-6)


def test_outgoing_incoming_views():
    plan = plan_redistribution(
        [prof(0, 3.0, 1.0), prof(1, 0.0, 1.0), prof(2, 0.0, 1.0)],
        POLICY, TABLE)
    assert plan.move
    assert {t.dst for t in plan.outgoing(0)} == {1, 2}
    assert len(plan.incoming(1)) == 1


def test_deterministic_for_replication():
    """Two calls with the same inputs yield identical plans (GDDLB
    replicas must agree without communication)."""
    profiles = [prof(0, 2.0, 1.3), prof(1, 0.7, 0.8), prof(2, 0.1, 2.0)]
    a = plan_redistribution(profiles, POLICY, TABLE)
    b = plan_redistribution(list(reversed(profiles)), POLICY, TABLE)
    assert a.transfers == b.transfers
    assert a.shares == b.shares
    assert a.active == b.active


@st.composite
def profile_sets(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    out = []
    for i in range(n):
        work = draw(st.floats(min_value=0.0, max_value=100.0))
        rate = draw(st.floats(min_value=0.0, max_value=10.0))
        out.append(prof(i, work, rate))
    return out


@given(profile_sets())
@settings(max_examples=150, deadline=None)
def test_plan_conserves_work(profiles):
    """Work is neither created nor destroyed by a plan."""
    plan = plan_redistribution(profiles, POLICY, TABLE)
    total = sum(p.remaining_work for p in profiles)
    if plan.done:
        assert total == pytest.approx(0.0, abs=1e-9)
        return
    if plan.move:
        final = {p.node: p.remaining_work for p in profiles}
        for t in plan.transfers:
            final[t.src] -= t.work
            final[t.dst] += t.work
        assert sum(final.values()) == pytest.approx(total, rel=1e-9)
        assert all(v >= -1e-9 for v in final.values())


@given(profile_sets())
@settings(max_examples=150, deadline=None)
def test_plan_transfers_have_positive_work(profiles):
    plan = plan_redistribution(profiles, POLICY, TABLE)
    for t in plan.transfers:
        assert t.work > 0
        assert t.src != t.dst


@given(profile_sets())
@settings(max_examples=150, deadline=None)
def test_plan_partitions_nodes(profiles):
    """Every node is either active or retired, never both."""
    plan = plan_redistribution(profiles, POLICY, TABLE)
    nodes = {p.node for p in profiles}
    assert set(plan.active) | set(plan.retire) == nodes
    assert set(plan.active) & set(plan.retire) == set()


@given(profile_sets())
@settings(max_examples=150, deadline=None)
def test_retired_senders_fully_drained(profiles):
    plan = plan_redistribution(profiles, POLICY, TABLE)
    if not plan.move:
        return
    work = {p.node: p.remaining_work for p in profiles}
    for node in plan.retire:
        outgoing = sum(t.work for t in plan.outgoing(node))
        incoming = sum(t.work for t in plan.incoming(node))
        assert incoming == 0.0
        assert outgoing == pytest.approx(work[node], rel=1e-6, abs=1e-9)


@given(profile_sets())
@settings(max_examples=150, deadline=None)
def test_profitable_moves_improve_prediction(profiles):
    plan = plan_redistribution(profiles, POLICY, TABLE)
    if plan.move:
        assert plan.predicted_balanced <= \
            (1 - POLICY.improvement_threshold) * plan.predicted_current + 1e-12


# -- the quantizer: every order is exactly what its sender ships ----------
N_ITER = 240


@st.composite
def cost_tables(draw):
    """Increasing (triangular, like TRFD L1), decreasing or random
    per-iteration costs."""
    shape = draw(st.sampled_from(("increasing", "decreasing", "random")))
    if shape == "random":
        seed = draw(st.integers(min_value=0, max_value=2**16))
        costs = np.random.default_rng(seed).uniform(1e-3, 5e-2, N_ITER)
    else:
        costs = np.linspace(1e-3, 5e-2, N_ITER)
        if shape == "decreasing":
            costs = costs[::-1]
    return WorkTable(costs)


@st.composite
def fragmented_holdings(draw, max_nodes=8):
    """A table, and nodes each holding a scattered set of its ranges."""
    table = draw(cost_tables())
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=N_ITER - 1),
                               max_size=3 * n)))
    pieces = list(zip([0] + cuts, cuts + [N_ITER]))
    owners = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                           min_size=len(pieces), max_size=len(pieces)))
    held = {node: Assignment([p for p, o in zip(pieces, owners) if o == node])
            for node in range(n)}
    rates = draw(st.lists(st.floats(min_value=0.05, max_value=4.0),
                          min_size=n, max_size=n))
    profiles = [SyncProfile(node, a.work(table), a.count, rates[node],
                            tuple(a.ranges)) for node, a in held.items()]
    return table, profiles


def _apply_as_senders(plan, profiles, table):
    """Every sender applies its orders in plan order, by the worker's own
    rule (``WorkerProtocol._apply_outcome``); returns the iterations each
    order shipped and the work each node then holds."""
    held = {p.node: Assignment(p.ranges) for p in profiles}
    shipped = []
    for node in held:
        mine = plan.outgoing(node)
        for i, order in enumerate(mine):
            if node in plan.retire and i == len(mine) - 1:
                ranges = held[node].take_all()
            else:
                ranges, _ = held[node].take_tail_work(
                    table, order.work, keep_one=node not in plan.retire)
            shipped.append((order, ranges))
    for order, ranges in shipped:
        held[order.dst].add(ranges)
    return shipped, {node: a.work(table) for node, a in held.items()}


def _check_quantized(plan, profiles, table):
    shipped, holding = _apply_as_senders(plan, profiles, table)
    for order, ranges in shipped:
        assert ranges, f"order {order} ships no iteration"
        assert order.work == pytest.approx(
            sum(table.range_work(s, e) for s, e in ranges), rel=1e-9)
    if plan.move:
        assert set(plan.shares) == set(plan.active)
        for node, share in plan.shares.items():
            assert share == pytest.approx(holding[node], rel=1e-9)
            assert share > 0
    for node in plan.retire:
        assert holding[node] == pytest.approx(0.0, abs=1e-12) \
            or not plan.move


@given(fragmented_holdings(),
       st.floats(min_value=0.0, max_value=0.05))
@settings(max_examples=200, deadline=None)
def test_every_eq3_order_ships_what_it_says(case, min_move_fraction):
    table, profiles = case
    plan = plan_redistribution(
        profiles, DlbPolicy(min_move_fraction=min_move_fraction), table)
    _check_quantized(plan, profiles, table)


@given(fragmented_holdings(max_nodes=9),
       st.sampled_from(("ring", "torus", "star", "complete", "random")))
@settings(max_examples=200, deadline=None)
def test_every_diffusion_order_ships_what_it_says(case, shape):
    table, profiles = case
    plan = plan_diffusion(profiles, _TOPOLOGIES[shape](len(profiles)),
                          POLICY, table)
    _check_quantized(plan, profiles, table)


_TOPOLOGIES = {
    "ring": Topology.ring, "torus": Topology.torus,
    "complete": Topology.complete,
    "star": lambda n: Topology("star", n, tuple((0, i) for i in range(1, n))),
    "random": lambda n: Topology.random_graph(n, extra_edges=n, seed=n),
}


# -- the memo: replicas in one process share one plan per sync ------------
@pytest.fixture
def computed():
    """How many plans :func:`plan_redistribution` has computed (memo
    misses), counted from an empty memo."""
    redistribution._plan.cache_clear()
    return lambda: redistribution._plan.cache_info().misses


@given(fragmented_holdings(), st.floats(min_value=0.0, max_value=0.05))
@settings(max_examples=100, deadline=None)
def test_memoized_plan_equals_a_fresh_one(case, min_move_fraction):
    table, profiles = case
    policy = DlbPolicy(min_move_fraction=min_move_fraction)
    memoized = plan_redistribution(profiles, policy, table)
    assert plan_redistribution(list(profiles), policy, table) is memoized
    redistribution._plan.cache_clear()
    fresh = plan_redistribution(profiles, policy, table)
    assert fresh is not memoized and fresh == memoized


def _mxm(rows=64):
    return mxm_loop(MxmConfig(rows, 32, 32), op_seconds=4e-7)


def _cluster(n):
    return ClusterSpec.homogeneous(n, max_load=3, persistence=1.0, seed=7)


def test_no_plan_outlives_its_run(computed):
    """Each run builds its own work table, so a second identical run
    computes every plan again."""
    counts = []
    for _ in range(2):
        before = computed()
        run_loop(_mxm(), _cluster(8), "GDDLB", RunOptions())
        counts.append(computed() - before)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("backend, n", [("sim", 16), ("thread", 4)])
def test_replicas_compute_one_plan_per_sync(computed, backend, n):
    loop = _mxm(128) if backend == "sim" else LoopSpec(
        "skew", 64, tuple(5e-4 + 3e-3 * j / 64 for j in range(64)), 64)
    stats = run_loop(loop, _cluster(n), "GDDLB", RunOptions(),
                     backend=backend)
    assert computed() == len(stats.syncs) > 1


@given(fragmented_holdings())
@settings(max_examples=20, deadline=None)
def test_concurrent_replicas_compute_one_plan(case):
    """Eight threads asking for one plan at once, switching every
    microsecond, get one object computed once (a thread switch mid-plan
    lets two replicas both miss the memo; the memo's lock must hold)."""
    table, profiles = case
    redistribution._plan.cache_clear()
    plans = []
    barrier = threading.Barrier(8, timeout=30)

    def replica():
        barrier.wait()
        plans.append(plan_redistribution(profiles, POLICY, table))

    threads = [threading.Thread(target=replica) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(plans) == 8 and all(plan is plans[0] for plan in plans)
    assert redistribution._plan.cache_info().misses == 1


def test_a_profile_decoded_from_a_frame_is_a_key(computed):
    sent = ProfileMsg(src=1, dst=0, epoch=2, remaining_work=0.05,
                      remaining_count=5, rate=2.0,
                      ranges=((BLOCK, BLOCK + 3), (BLOCK + 7, BLOCK + 9)))
    _, body, _ = decode_frame(encode_frame(FrameType.MSG,
                                           message_to_wire(sent)))
    decoded = SyncProfile.of(message_from_wire(body))
    assert decoded == SyncProfile.of(sent)
    plan = plan_redistribution([prof(0, 2.0, 1.0), decoded], POLICY, TABLE)
    assert plan_redistribution([prof(0, 2.0, 1.0), SyncProfile.of(sent)],
                               POLICY, TABLE) is plan
    assert computed() == 1


_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear",
             "__setitem__", "__delitem__"}


def test_no_caller_mutates_a_plan():
    """A plan is a shared value: nothing under ``src`` writes into a
    plan's ``shares``."""

    def on_shares(node):
        return isinstance(node, ast.Attribute) and node.attr == "shares"

    writes = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = (node.targets if isinstance(node, (ast.Assign,
                                                         ast.Delete))
                       else [node.target] if isinstance(
                           node, (ast.AugAssign, ast.AnnAssign)) else [])
            mutated = [t for t in targets if isinstance(t, ast.Subscript)
                       and on_shares(t.value)]
            if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS \
                    and on_shares(node.func.value):
                mutated.append(node)
            writes += [f"{path.name}:{n.lineno}" for n in mutated]
    assert writes == []
