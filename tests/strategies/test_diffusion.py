"""Unit and property tests for the diffusion planner.

Includes the Demirel-bound convergence property: on a seeded random
graph, repeated diffusion sweeps must stop moving work within the
sweep count :func:`repro.machine.analytics.diffusion_sweep_bound`
derives from the diffusion matrix spectrum.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.workload import WorkTable
from repro.core.diffusion import (
    DiffusionPlanner,
    diffusion_alpha,
    plan_diffusion,
)
from repro.core.policy import DlbPolicy
from repro.core.redistribution import SyncProfile
from repro.machine.analytics import (
    diffusion_convergence_rate,
    diffusion_sweep_bound,
)
from repro.network.topology import Topology
from repro.runtime.assignment import Assignment

MEAN_ITER = 0.01
POLICY = DlbPolicy()
#: Room for sixteen nodes' blocks of up to 1,000 iterations each.
BLOCK = 1000
TABLE = WorkTable(MEAN_ITER, 16 * BLOCK)


def _profiles(work, table=TABLE):
    """Node ``n`` holds one block of ``work[n]`` seconds (whole
    mean-cost iterations) of ``table``."""
    out = []
    for n, w in enumerate(work):
        a = Assignment([(n * BLOCK, n * BLOCK + int(round(w / MEAN_ITER)))])
        out.append(SyncProfile(node=n, remaining_work=a.work(table),
                               remaining_count=a.count, rate=1.0,
                               ranges=tuple(a.ranges)))
    return out


def _plan(work, topology, policy=POLICY):
    return plan_diffusion(_profiles(work), topology, policy, TABLE)


# -- basic planning ------------------------------------------------------

def test_alpha_is_degree_bound():
    assert diffusion_alpha(Topology.ring(6)) == pytest.approx(1 / 3)
    assert diffusion_alpha(Topology.bus(5)) == pytest.approx(1 / 5)


def test_flows_only_along_edges():
    ring = Topology.ring(4)
    plan = _plan([4.0, 0.0, 0.0, 0.0], ring)
    assert plan.move
    for t in plan.transfers:
        assert t.dst in ring.neighbors(t.src)


def test_flow_magnitude_is_alpha_share_floored():
    # Ring of 4, alpha = 1/3: edge (0,1) carries alpha * 3.005 = 1.00167,
    # which ships the 100 whole iterations it covers.
    plan = _plan([3.005, 0.0, 0.0, 0.0], Topology.ring(4))
    flows = {(t.src, t.dst): t.work for t in plan.transfers}
    assert flows[(0, 1)] == pytest.approx(1.0)
    assert flows[(0, 3)] == pytest.approx(1.0)


def test_work_is_conserved():
    plan = _plan([5.0, 1.0, 0.25, 2.5], Topology.mesh(4))
    assert sum(plan.shares.values()) == pytest.approx(8.75)
    outgoing = sum(t.work for t in plan.transfers)
    assert plan.work_to_move == pytest.approx(outgoing)


def test_deterministic_in_profile_order():
    work = [5.0, 1.0, 0.25, 2.5]
    a = plan_diffusion(_profiles(work), Topology.torus(4), POLICY, TABLE)
    b = plan_diffusion(list(reversed(_profiles(work))), Topology.torus(4),
                       POLICY, TABLE)
    assert a.transfers == b.transfers
    assert a.shares == b.shares


def test_quantum_floors_small_flows():
    # No edge flow covers an iteration: nothing ships.
    plan = _plan([0.21, 0.20, 0.20, 0.19], Topology.ring(4))
    assert not plan.move
    assert plan.reason == "diffusion-converged"


def test_an_edge_ships_only_what_covers_the_dearest_iteration():
    """An edge's parcel must not hinge on the sender's other edges (the
    receiver does not see them): it ships when its flow covers the
    dearest iteration the sender holds, whatever the tail costs."""
    table = WorkTable([0.1] + [0.001] * 99)  # a dear head, cheap tail
    line = Topology("line", 2, ((0, 1),))
    full = [SyncProfile(0, table.total_work, 100, 1.0, ((0, 100),)),
            SyncProfile(1, 0.0, 0, 1.0)]
    # alpha * w_0 = 0.0995 covers 99 tail iterations, not the head's one.
    assert not plan_diffusion(full, line, POLICY, table).move
    tail = [SyncProfile(0, table.range_work(1, 100), 99, 1.0, ((1, 100),)),
            SyncProfile(1, 0.0, 0, 1.0)]
    plan = plan_diffusion(tail, line, POLICY, table)
    assert [(t.src, t.dst) for t in plan.transfers] == [(0, 1)]
    assert plan.transfers[0].work == pytest.approx(0.049)


def test_converged_plan_retires_idle_nodes():
    plan = _plan([0.01, 0.0, 0.01, 0.0], Topology.ring(4))
    assert not plan.move
    assert set(plan.retire) == {1, 3}
    assert set(plan.active) == {0, 2}


def test_all_done_reports_done():
    plan = _plan([0.0, 0.0, 0.0, 0.0], Topology.ring(4))
    assert plan.done
    assert set(plan.retire) == {0, 1, 2, 3}


def test_absent_nodes_drop_out_of_sweep():
    """Dead/retired nodes (missing profiles) carry no flow; survivors
    diffuse on the induced subgraph."""
    ring = Topology.ring(4)
    profiles = [p for p in _profiles([4.0, 0.0, 0.0, 0.0]) if p.node != 1]
    plan = plan_diffusion(profiles, ring, POLICY, TABLE)
    assert all(t.src != 1 and t.dst != 1 for t in plan.transfers)
    assert {(t.src, t.dst) for t in plan.transfers} == {(0, 3)}


def test_sender_cannot_overdraw():
    """A hub never ships more than it holds, with no cap on any edge:
    its outflow is at most alpha * degree * w < w before quantizing."""
    star = Topology("star", 4, ((0, 1), (0, 2), (0, 3)))
    plan = _plan([0.05, 0.0, 0.0, 0.0], star)
    shipped = sum(t.work for t in plan.transfers)
    assert shipped <= 0.05 + 1e-12
    assert plan.shares[0] >= 0.0


def test_idle_nodes_without_inflow_retire_from_a_moving_sweep():
    """0 feeds its neighbours 1 and 3; node 2 gets nothing, holds
    nothing, and leaves — the others stay."""
    plan = _plan([3.0, 0.0, 0.0, 0.0], Topology.ring(4))
    assert plan.move
    assert plan.retire == (2,) and plan.active == (0, 1, 3)


def _graph(kind: str, n: int, seed: int) -> Topology:
    if kind == "random":
        return Topology.random_graph(n, extra_edges=n // 2, seed=seed)
    return getattr(Topology, kind)(n)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["ring", "mesh", "torus", "random"]),
       n=st.integers(3, 16), seed=st.integers(0, 5),
       loads=st.lists(st.integers(0, 400), min_size=16, max_size=16),
       absent=st.sets(st.integers(0, 15), max_size=3),
       shape=st.sampled_from(["uniform", "increasing", "decreasing",
                              "random"]))
def test_incident_transfers_need_only_the_neighbourhood(kind, n, seed,
                                                        loads, absent,
                                                        shape):
    """The transfers incident on ``v`` planned from ``N[v]``'s profiles
    alone are those of the whole-graph sweep — with nodes missing (left
    or dead) too — and so is whether ``v`` ends the sweep empty.  On a
    non-uniform loop an incoming parcel's *amount* is its sender's to
    cut (it depends on the sender's other edges); that it comes is not.
    """
    topology = _graph(kind, n, seed)
    policy = POLICY
    ramp = np.linspace(0.002, 0.018, BLOCK)  # within every node's block
    table = {"uniform": TABLE, "increasing": WorkTable(np.tile(ramp, 16)),
             "decreasing": WorkTable(np.tile(ramp[::-1], 16)),
             "random": WorkTable(np.random.default_rng(seed).uniform(
                 0.001, 0.03, 16 * BLOCK))}[shape]
    profiles = [p for p in _profiles([w * MEAN_ITER for w in loads[:n]],
                                     table)
                if p.node not in absent]
    if not profiles:
        return
    whole = plan_diffusion(profiles, topology, policy, table)
    held = {p.node: p.remaining_work for p in profiles}
    for me in held:
        scope = DiffusionPlanner(topology, policy, table).scope(me)
        local = plan_diffusion([p for p in profiles if p.node in scope],
                               topology, policy, table)
        assert sorted(local.outgoing(me), key=lambda t: t.dst) == \
            sorted(whole.outgoing(me), key=lambda t: t.dst)
        incoming = [sorted(plan.incoming(me), key=lambda t: t.src)
                    for plan in (local, whole)]
        if shape != "uniform":
            incoming = [[t.src for t in side] for side in incoming]
        assert incoming[0] == incoming[1]
        assert (me in local.retire) == (me in whole.retire)
        assert sum(t.work for t in whole.outgoing(me)) <= held[me] + 1e-12


def test_movement_cost_fn_is_consulted():
    calls = []

    def cost(transfers):
        calls.append(tuple(transfers))
        return 42.0

    planner = DiffusionPlanner(Topology.ring(4), POLICY, TABLE,
                               movement_cost_fn=cost)
    plan = planner(_profiles([4.0, 0.0, 0.0, 0.0]))
    assert plan.movement_cost == 42.0
    assert calls


def test_input_validation():
    with pytest.raises(ValueError, match="at least one profile"):
        plan_diffusion([], Topology.ring(4), POLICY, TABLE)
    with pytest.raises(ValueError, match="positive"):
        # An iteration's cost is the table's to check.
        plan_diffusion(_profiles([1.0]), Topology.ring(1), POLICY,
                       WorkTable(0.0, 1))
    dup = _profiles([1.0, 1.0])
    dup[1] = SyncProfile(node=0, remaining_work=1.0, remaining_count=1,
                         rate=1.0)
    with pytest.raises(ValueError, match="duplicate"):
        plan_diffusion(dup, Topology.ring(2), POLICY, TABLE)


# -- convergence property (Demirel bound) --------------------------------

def _sweep_until_converged(work, topology, policy, max_sweeps):
    """Apply diffusion plans repeatedly, every sender cutting its parcels
    by its own rule; return the sweep count at which the planner stops
    moving work."""
    held = [Assignment(p.ranges) for p in _profiles(work)]
    total = sum(a.count for a in held)
    for sweep in range(max_sweeps + 1):
        profiles = [SyncProfile(node=n, remaining_work=a.work(TABLE),
                                remaining_count=a.count, rate=1.0,
                                ranges=tuple(a.ranges))
                    for n, a in enumerate(held)]
        plan = plan_diffusion(profiles, topology, policy, TABLE)
        if not plan.move:
            return sweep
        for t in plan.transfers:
            ranges, _ = held[t.src].take_tail_work(TABLE, t.work)
            held[t.dst].add(ranges)
        assert sum(a.count for a in held) == total
    pytest.fail(f"no convergence within {max_sweeps} sweeps")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_diffusion_converges_within_demirel_bound(seed):
    """Property (c): on a seeded random graph, quantized FOS stops
    moving within the spectral sweep bound."""
    topology = Topology.random_graph(8, extra_edges=4, seed=seed)
    import random
    rng = random.Random(seed)
    work = [rng.randint(0, 400) * MEAN_ITER for _ in range(8)]
    mean = sum(work) / len(work)
    imbalance = max(abs(w - mean) for w in work)
    # Indivisible loads: an edge moves no less than one iteration.
    bound = diffusion_sweep_bound(topology, imbalance, MEAN_ITER)
    sweeps = _sweep_until_converged(work, topology, POLICY,
                                    max_sweeps=bound)
    assert sweeps <= bound


def test_convergence_rate_in_unit_interval():
    for topo in (Topology.ring(6), Topology.mesh(6), Topology.torus(8),
                 Topology.random_graph(7, 3, seed=9)):
        gamma = diffusion_convergence_rate(topo)
        assert 0.0 < gamma < 1.0


def test_sweep_bound_zero_when_already_balanced():
    assert diffusion_sweep_bound(Topology.ring(4), 0.0, 0.01) == 0
    with pytest.raises(ValueError):
        diffusion_sweep_bound(Topology.ring(4), 1.0, 0.0)
