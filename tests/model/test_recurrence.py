"""§4.2's recurrences, written out as the paper states them, held
against the code that runs them: the load model and the workstation
(effective load and speed, eq. 1's window), the run-time system's
iteration boundaries (eq. 2) and the planner the predictor shares with
it (eq. 3, Φ and Γ).  The planner's eq.-3 cross-check itself lives in
``tests/model/test_predictor.py``."""

import pytest

from repro.apps.workload import WorkTable
from repro.core.policy import DlbPolicy
from repro.core.redistribution import SyncProfile, plan_redistribution
from repro.machine.load import ConstantLoad, TraceLoad
from repro.machine.workstation import Workstation
from repro.runtime.assignment import Assignment

#: Thresholds off: the planner moves work whenever eq. 3 says so.
EAGER = DlbPolicy(min_move_fraction=0.0, improvement_threshold=0.0)


def _station(speed, mu):
    """``S_i`` at a constant effective load ``mu_i`` (level ``mu - 1``)."""
    return Workstation(0, speed=speed, load=ConstantLoad(mu - 1))


def _left(beta, speeds, mus, finisher):
    """Work left on each processor when ``finisher`` has done its
    ``beta_f``: everyone computed for the finisher's time."""
    stations = [_station(s, mu) for s, mu in zip(speeds, mus)]
    t = stations[finisher].time_to_complete(0.0, beta[finisher])
    return [max(b - ws.capacity(0.0, t), 0.0) if i != finisher else 0.0
            for i, (b, ws) in enumerate(zip(beta, stations))]


def test_effective_load_constant_levels():
    assert TraceLoad([3, 3, 3]).effective_load(0.0, 3.0) == \
        pytest.approx(4.0)


def test_effective_load_is_harmonic_not_arithmetic():
    # levels 0 and 4: arithmetic mean of (l+1) is 3; harmonic is
    # 2 / (1 + 1/5) = 5/3.
    assert TraceLoad([0, 4]).effective_load(0.0, 2.0) == \
        pytest.approx(5 / 3)


def test_effective_load_validation():
    with pytest.raises(ValueError):
        TraceLoad([])
    with pytest.raises(ValueError):
        TraceLoad([-1])


def test_average_effective_speed():
    ws = Workstation(0, speed=2.0, load=TraceLoad([1, 1]))
    assert ws.average_effective_speed(0.0, 2.0) == pytest.approx(1.0)


def test_eq1_finisher_has_zero_left():
    """``beta_i(j) = beta_i(j-1) - beta_f(j-1) (S_i/mu_i) (mu_f/S_f)``."""
    left = _left([10, 10, 10], [1, 1, 1], [1, 2, 4], finisher=0)
    assert left[0] == 0.0
    # Processor 1 runs at half the finisher's speed: did 5, keeps 5.
    assert left[1] == pytest.approx(5.0)
    assert left[2] == pytest.approx(7.5)


def test_eq1_speed_and_load_interchangeable():
    """Half speed at no load == full speed at load level 1."""
    a = _left([8, 8], [1.0, 0.5], [1.0, 1.0], 0)
    b = _left([8, 8], [1.0, 1.0], [1.0, 2.0], 0)
    assert a == pytest.approx(b)


def _iterations_left(costs, speeds, mus, finisher):
    """Eq. 2: processor ``i`` completes the longest prefix of its
    iterations whose costs fit in the finisher's window — the run-time
    system's iteration boundary, counted from the work it could do."""
    stations = [_station(s, mu) for s, mu in zip(speeds, mus)]
    tables = [WorkTable(c) for c in costs]
    t = stations[finisher].time_to_complete(
        0.0, tables[finisher].total_work)
    return [table.n - Assignment([(0, table.n)]).head_count_for_work(
                table, ws.capacity(0.0, t), round_up=False)
            for table, ws in zip(tables, stations)]


def test_eq2_reduces_to_eq1_for_uniform_costs():
    costs = [[1.0] * 10, [1.0] * 10]
    assert _iterations_left(costs, [1, 1], [1, 2], 0) == [
        round(x) for x in _left([10, 10], [1, 1], [1, 2], 0)]


def test_eq2_triangular_costs():
    # Finisher 0 takes 6 cost-units; processor 1 (same speed/load) gets
    # through the prefix of [3, 2, 1] summing <= 6: all of it.
    costs = [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]
    assert _iterations_left(costs, [1, 1], [1, 1], 0) == [0, 0]
    # At double load it only finishes [3] (budget 3): 2 left.
    assert _iterations_left(costs, [1, 1], [1, 2], 0) == [0, 2]


def _plan(beta, rates):
    count = 100
    return plan_redistribution(
        [SyncProfile(i, b, count if b else 0, r,
                     ((i * count, (i + 1) * count),) if b else ())
         for i, (b, r) in enumerate(zip(beta, rates))],
        EAGER, WorkTable(0.03, 3 * count))


def test_eq3_proportional_shares():
    """``alpha_i = (S_i/mu_i) / sum_k (S_k/mu_k) * Gamma``."""
    beta, rates = [3.0, 3.0, 0.0], [2.0, 1.0, 1.0]
    plan = _plan(beta, rates)
    assert plan.move
    for node, rate in enumerate(rates):
        assert plan.shares[node] == pytest.approx(
            rate / sum(rates) * sum(beta))


def test_phi_symmetric_halves():
    """``Phi = 1/2 sum_i |alpha_i - beta_i|``: what leaves one node
    arrives at another."""
    beta = [3.0, 3.0, 0.0]
    plan = _plan(beta, [2.0, 1.0, 1.0])
    assert plan.work_to_move == pytest.approx(
        0.5 * sum(abs(plan.shares[i] - b) for i, b in enumerate(beta)))
    assert _plan([3.0, 3.0], [1.0, 1.0]).work_to_move == 0.0


def test_gamma_termination():
    """``Gamma(j) = sum_i beta_i(j) = 0`` ends the loop."""
    plan = _plan([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert plan.done and not plan.move


def test_workstation_matches_discrete_effective_load():
    """The exact integral form equals the discrete form
    ``mu = (b - a + 1) / sum 1/(l_k + 1)`` on whole windows (paper
    §4.2's averaging)."""
    levels = [2, 0, 5, 1]
    load = TraceLoad(levels, persistence=1.0)
    mu = len(levels) / sum(1 / (level + 1) for level in levels)
    assert load.effective_load(0.0, 4.0) == pytest.approx(mu)
    assert load.effective_load_windows(0, 3) == pytest.approx(mu)
