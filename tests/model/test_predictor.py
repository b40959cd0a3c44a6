"""Tests for the §4.2 recurrence solver."""

import pytest

from repro.apps.workload import LoopSpec, WorkTable
from repro.core.policy import DlbPolicy
from repro.core.model.predictor import (
    predict_no_dlb,
    predict_strategy,
    rank_strategies,
)
from repro.core.strategies import ALL_DLB_STRATEGIES, GCDLB, GDDLB, LDDLB, \
    NO_DLB
from repro.core.redistribution import SyncProfile, plan_redistribution
from repro.machine.cluster import ClusterSpec


LOOP = LoopSpec(name="model-loop", n_iterations=200, iteration_time=0.02,
                dc_bytes=1600)


def test_no_dlb_prediction_is_slowest_processor():
    cluster = ClusterSpec(speeds=(1.0, 1.0), persistence=1000.0,
                          load_traces=((0,), (4,)))
    pred = predict_no_dlb(LOOP, cluster)
    # 100 iterations x 0.02 s, slow node at 1/5 speed.
    assert pred.total_time == pytest.approx(10.0)
    assert pred.n_syncs == 0


def test_prediction_no_load_near_ideal():
    cluster = ClusterSpec.homogeneous(4, max_load=0)
    pred = predict_strategy(LOOP, cluster, GDDLB)
    ideal = LOOP.total_work / 4
    assert pred.total_time <= ideal * 1.2


def test_dlb_predicted_better_than_static_under_skewed_load():
    cluster = ClusterSpec(speeds=(1.0,) * 4, persistence=1000.0,
                          load_traces=((5,), (0,), (0,), (0,)))
    static = predict_no_dlb(LOOP, cluster)
    dlb = predict_strategy(LOOP, cluster, GDDLB)
    assert dlb.total_time < 0.6 * static.total_time
    assert dlb.n_moves >= 1


def test_prediction_counts_syncs_and_moves():
    cluster = ClusterSpec.homogeneous(4, max_load=4, persistence=0.5,
                                      seed=3)
    pred = predict_strategy(LOOP, cluster, GCDLB)
    assert pred.n_syncs >= pred.n_moves >= 1
    assert pred.work_moved > 0


def test_local_strategy_tracks_groups():
    cluster = ClusterSpec.homogeneous(8, max_load=4, persistence=0.5,
                                      seed=5)
    pred = predict_strategy(LOOP, cluster, LDDLB, group_size=4)
    assert len(pred.group_finish_times) == 2
    assert pred.total_time == max(pred.group_finish_times)


def test_global_strategy_single_group():
    cluster = ClusterSpec.homogeneous(4, max_load=3, persistence=0.5, seed=1)
    pred = predict_strategy(LOOP, cluster, GDDLB)
    assert len(pred.group_finish_times) == 1


def test_rank_strategies_sorted():
    cluster = ClusterSpec.homogeneous(4, max_load=4, persistence=0.8, seed=2)
    ranked = rank_strategies(LOOP, cluster)
    assert len(ranked) == len(ALL_DLB_STRATEGIES)
    times = [p.total_time for p in ranked]
    assert times == sorted(times)


def test_none_code_dispatches_to_static():
    cluster = ClusterSpec.homogeneous(4, max_load=0)
    pred = predict_strategy(LOOP, cluster, NO_DLB)
    assert pred.code == "NONE"
    assert pred.n_syncs == 0


def test_prediction_deterministic():
    cluster = ClusterSpec.homogeneous(4, max_load=5, persistence=0.7, seed=9)
    a = predict_strategy(LOOP, cluster, GDDLB)
    b = predict_strategy(LOOP, cluster, GDDLB)
    assert a.total_time == b.total_time


def test_non_uniform_loop_prediction(nonuniform_loop):
    cluster = ClusterSpec.homogeneous(4, max_load=3, persistence=0.5, seed=4)
    pred = predict_strategy(nonuniform_loop, cluster, GDDLB)
    assert pred.total_time > 0


def test_prediction_close_to_simulation(small_loop, cluster4, options):
    """Model and event simulation should agree within a modest factor."""
    from repro.runtime.executor import run_loop
    sim = run_loop(small_loop, cluster4, "GDDLB", options=options)
    pred = predict_strategy(small_loop, cluster4, GDDLB)
    assert pred.total_time == pytest.approx(sim.duration, rel=0.5)


def test_diffusion_prediction_close_to_simulation_on_torus(small_loop,
                                                           cluster8,
                                                           options):
    """The DIFF row of the model-vs-simulation check, at the tolerance
    the eq.-3 schemes meet: sigma priced from the neighbour exchange,
    idle nodes leaving sweep by sweep as in the protocol."""
    from repro.core.strategies import DIFFUSION
    from repro.network.topology import Topology
    from repro.runtime.executor import run_loop
    sim = run_loop(small_loop, cluster8, "DIFF",
                   options=options.but(topology="torus"))
    pred = predict_strategy(small_loop, cluster8, DIFFUSION,
                            topology=Topology.torus(8))
    assert pred.total_time == pytest.approx(sim.duration, rel=0.5)


def test_movement_model_serial_costs_more():
    cluster = ClusterSpec(speeds=(1.0,) * 4, persistence=1000.0,
                          load_traces=((5,), (0,), (0,), (0,)))
    heavy = LoopSpec(name="dc-heavy", n_iterations=200,
                     iteration_time=0.02, dc_bytes=100_000)
    overlap = predict_strategy(heavy, cluster, GDDLB,
                               movement_model="overlap")
    serial = predict_strategy(heavy, cluster, GDDLB,
                              movement_model="serial")
    assert serial.total_time >= overlap.total_time


def test_planner_matches_eq3():
    """The planner the predictor and the run-time system share follows
    §4.2's eq. 3 exactly when no thresholding interferes:
    ``alpha_i = (S_i / mu_i) / sum_k (S_k / mu_k) * Gamma``."""
    beta = [6.0, 0.0]
    rates = [1.0, 0.5]   # S_i / mu_i
    plan = plan_redistribution(
        [SyncProfile(0, beta[0], 600, rates[0], ((0, 600),)),
         SyncProfile(1, beta[1], 0, rates[1])],
        DlbPolicy(min_move_fraction=0.0, improvement_threshold=0.0),
        WorkTable(0.01, 600))
    assert plan.move
    for node, rate in enumerate(rates):
        assert plan.shares[node] == pytest.approx(
            rate / sum(rates) * sum(beta))
