"""Tests for the model's per-sync cost terms."""

import pytest

from repro.core.model.costs import default_comm_model, strategy_sync_costs
from repro.core.policy import DlbPolicy
from repro.core.strategies import DIFFUSION, GCDLB, GDDLB, LCDLB, LDDLB


@pytest.fixture(scope="module")
def comm():
    return default_comm_model()


def test_default_model_cached(comm):
    assert default_comm_model() is comm


def test_distributed_sync_more_expensive_than_centralized(comm):
    policy = DlbPolicy()
    gc = strategy_sync_costs(GCDLB, comm, policy)
    gd = strategy_sync_costs(GDDLB, comm, policy)
    for k in (4, 8, 16):
        assert gd.synchronization(k) > gc.synchronization(k)


def test_sync_cost_grows_with_group(comm):
    gd = strategy_sync_costs(GDDLB, comm, DlbPolicy())
    assert gd.synchronization(16) > gd.synchronization(4) > 0


def test_diffusion_sync_is_priced_by_neighbour_exchange():
    """DIFF sends interrupts and profiles over topology edges only: on a
    graph its sigma is two neighbour exchanges, flat in P where the
    all-to-all of GDDLB grows; on the bus (no NX fit) the same formula
    falls back to exactly what GDDLB pays."""
    torus = default_comm_model(topology="torus")
    diff = strategy_sync_costs(DIFFUSION, torus, DlbPolicy())
    gd = strategy_sync_costs(GDDLB, torus, DlbPolicy())
    assert diff.neighbour_scope and not gd.neighbour_scope
    assert diff.synchronization(16) == pytest.approx(
        2 * torus.neighbor_exchange(16))
    assert diff.synchronization(16) < 0.5 * gd.synchronization(16)
    bus = default_comm_model()
    assert strategy_sync_costs(DIFFUSION, bus, DlbPolicy()) \
        .synchronization(8) == pytest.approx(
            strategy_sync_costs(GDDLB, bus, DlbPolicy()).synchronization(8))


def test_single_member_group_syncs_free(comm):
    gc = strategy_sync_costs(GCDLB, comm, DlbPolicy())
    assert gc.synchronization(1) == 0.0


def test_centralized_pays_context_switches(comm):
    policy = DlbPolicy()
    gc = strategy_sync_costs(GCDLB, comm, policy)
    gd = strategy_sync_costs(GDDLB, comm, policy)
    assert gc.calculation() == pytest.approx(
        policy.delta_seconds + 2 * policy.context_switch_seconds)
    assert gd.calculation() == pytest.approx(policy.delta_seconds)


def test_instruction_cost_centralized_only(comm):
    policy = DlbPolicy()
    assert strategy_sync_costs(LCDLB, comm, policy).instructions(4) > 0
    assert strategy_sync_costs(LDDLB, comm, policy).instructions(4) == 0.0


def test_data_movement_eq5_serial(comm):
    costs = strategy_sync_costs(GCDLB, comm, DlbPolicy(),
                                movement_model="serial")
    # 2 transfers of 0.05 s work, mean iter 0.01 s, DC = 1000 bytes:
    # gamma*L + 10 iterations * 1000 B / B.
    t = costs.data_movement((0.05, 0.05), 1000, 0.01)
    expected = 2 * comm.latency + 10 * 1000 / comm.bandwidth
    assert t == pytest.approx(expected)


def test_data_movement_overlap_charges_largest(comm):
    costs = strategy_sync_costs(GCDLB, comm, DlbPolicy(),
                                movement_model="overlap")
    t = costs.data_movement((0.05, 0.01), 1000, 0.01)
    expected = 2 * comm.latency + 5 * 1000 / comm.bandwidth
    assert t == pytest.approx(expected)


def test_data_movement_empty_is_free(comm):
    costs = strategy_sync_costs(GCDLB, comm, DlbPolicy())
    assert costs.data_movement((), 1000, 0.01) == 0.0


def test_bad_movement_model_rejected(comm):
    with pytest.raises(ValueError):
        strategy_sync_costs(GCDLB, comm, DlbPolicy(),
                            movement_model="wrong")
