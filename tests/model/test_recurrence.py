"""Tests that the literal §4.2 equations hold and that the production
planner/solver agree with them."""

import numpy as np
import pytest

from repro.core.model.recurrence import (
    average_effective_speed,
    effective_load_discrete,
    iterations_left_nonuniform,
    iterations_left_uniform,
    new_distribution,
    total_remaining,
    work_moved,
)


def test_effective_load_constant_levels():
    assert effective_load_discrete([3, 3, 3]) == pytest.approx(4.0)


def test_effective_load_is_harmonic_not_arithmetic():
    # levels 0 and 4: arithmetic mean of (l+1) is 3; harmonic is
    # 2 / (1 + 1/5) = 5/3.
    assert effective_load_discrete([0, 4]) == pytest.approx(5 / 3)


def test_effective_load_validation():
    with pytest.raises(ValueError):
        effective_load_discrete([])
    with pytest.raises(ValueError):
        effective_load_discrete([-1])


def test_average_effective_speed():
    assert average_effective_speed(2.0, [1, 1]) == pytest.approx(1.0)


def test_eq1_finisher_has_zero_left():
    left = iterations_left_uniform([10, 10, 10], [1, 1, 1], [1, 2, 4],
                                   finisher=0)
    assert left[0] == 0.0
    # Processor 1 runs at half the finisher's speed: did 5, keeps 5.
    assert left[1] == pytest.approx(5.0)
    assert left[2] == pytest.approx(7.5)


def test_eq1_speed_and_load_interchangeable():
    """Half speed at no load == full speed at load level 1."""
    a = iterations_left_uniform([8, 8], [1.0, 0.5], [1.0, 1.0], 0)
    b = iterations_left_uniform([8, 8], [1.0, 1.0], [1.0, 2.0], 0)
    assert np.allclose(a, b)


def test_eq2_reduces_to_eq1_for_uniform_costs():
    costs = [[1.0] * 10, [1.0] * 10]
    left_nu = iterations_left_nonuniform(costs, [1, 1], [1, 2], 0)
    left_u = iterations_left_uniform([10, 10], [1, 1], [1, 2], 0)
    assert left_nu == [int(x) for x in np.round(left_u)]


def test_eq2_triangular_costs():
    # Finisher 0 takes 6 cost-units; processor 1 (same speed/load) gets
    # through the prefix of [3, 2, 1] summing <= 6: all of it.
    costs = [[1, 2, 3], [3, 2, 1]]
    left = iterations_left_nonuniform(costs, [1, 1], [1, 1], 0)
    assert left == [0, 0]
    # At double load it only finishes [3] (budget 3): 2 left.
    left = iterations_left_nonuniform(costs, [1, 1], [1, 2], 0)
    assert left == [0, 2]


def test_eq3_proportional_shares():
    alpha = new_distribution([6, 0], [1, 1], [1, 2])
    assert alpha.sum() == pytest.approx(6.0)
    assert alpha[0] == pytest.approx(4.0)
    assert alpha[1] == pytest.approx(2.0)


def test_phi_symmetric_halves():
    assert work_moved([4, 2], [2, 4]) == pytest.approx(2.0)
    assert work_moved([3, 3], [3, 3]) == 0.0


def test_gamma_termination():
    assert total_remaining([0, 0, 0]) == 0.0


def test_planner_matches_eq3():
    """The production planner's shares follow eq. 3 exactly when no
    thresholding interferes."""
    from repro.apps.workload import WorkTable
    from repro.core.policy import DlbPolicy
    from repro.core.redistribution import SyncProfile, plan_redistribution
    beta = [6.0, 0.0]
    rates = [1.0, 0.5]   # S_i / mu_i
    plan = plan_redistribution(
        [SyncProfile(0, beta[0], 600, rates[0], ((0, 600),)),
         SyncProfile(1, beta[1], 0, rates[1])],
        DlbPolicy(min_move_fraction=0.0, improvement_threshold=0.0),
        WorkTable(0.01, 600))
    expected = new_distribution(beta, [1.0, 1.0], [1.0, 2.0])
    assert plan.move
    assert plan.shares[0] == pytest.approx(expected[0])
    assert plan.shares[1] == pytest.approx(expected[1])


def test_workstation_matches_discrete_effective_load():
    """The exact integral form equals the discrete form on whole
    windows (paper §4.2's averaging)."""
    from repro.machine.load import TraceLoad
    levels = [2, 0, 5, 1]
    load = TraceLoad(levels, persistence=1.0)
    assert load.effective_load(0.0, 4.0) == pytest.approx(
        effective_load_discrete(levels))
    assert load.effective_load_windows(0, 3) == pytest.approx(
        effective_load_discrete(levels))
