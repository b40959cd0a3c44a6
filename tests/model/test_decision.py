"""Tests for the §4.3 hybrid decision process and customized runs."""

import pytest

from repro.apps.workload import LoopSpec
from repro.core.decision import forecast_stations
from repro.core.redistribution import SyncProfile
from repro.machine.cluster import ClusterSpec
from repro.runtime.executor import run_loop


def test_forecast_stations_carry_measured_load():
    profiles = [SyncProfile(node=0, remaining_work=1.0, remaining_count=10,
                            rate=0.5),
                SyncProfile(node=1, remaining_work=1.0, remaining_count=10,
                            rate=1.0)]
    stations = forecast_stations(profiles, {0: 1.0, 1: 1.0},
                                 persistence=1.0)
    # rate 0.5 at speed 1 -> mu = 2 -> constant load level 1.
    assert stations[0].effective_speed(0.0) == pytest.approx(0.5)
    assert stations[1].effective_speed(0.0) == pytest.approx(1.0)


def test_forecast_handles_zero_rate():
    profiles = [SyncProfile(node=0, remaining_work=1.0, remaining_count=10,
                            rate=0.0)]
    stations = forecast_stations(profiles, {0: 2.0}, persistence=1.0)
    assert stations[0].effective_speed(0.0) == pytest.approx(2.0)


def test_forecast_clamps_superunity_rates():
    """Measured rate above the nominal speed must not give mu < 1."""
    profiles = [SyncProfile(node=0, remaining_work=1.0, remaining_count=10,
                            rate=5.0)]
    stations = forecast_stations(profiles, {0: 1.0}, persistence=1.0)
    assert stations[0].effective_speed(0.0) == pytest.approx(1.0)


def test_customized_run_selects_and_completes(small_loop, cluster4,
                                              options):
    stats = run_loop(small_loop, cluster4, "CUSTOM", options=options)
    assert stats.selected_scheme in ("GCDLB", "GDDLB", "LCDLB", "LDDLB")
    assert sum(stats.executed_count(i) for i in range(4)) == \
        small_loop.n_iterations
    report = stats.selection_report
    assert report is not None
    assert report.chosen == stats.selected_scheme
    assert len(report.predictions) == 4
    assert "selected" in report.summary()


def test_customized_all_cluster_sizes(options, small_loop):
    for p in (2, 4, 8):
        cluster = ClusterSpec.homogeneous(p, max_load=3, persistence=0.5,
                                          seed=p)
        stats = run_loop(small_loop, cluster, "CUSTOM", options=options)
        total = sum(stats.executed_count(i) for i in range(p))
        assert total == small_loop.n_iterations


def test_customized_close_to_best_fixed(cluster4, options):
    """The customized run should be near the best fixed scheme (it pays
    one selection overhead but avoids the worst choices).  The loop is
    long enough that the one-off model-evaluation cost is marginal."""
    loop = LoopSpec(name="longer", n_iterations=400, iteration_time=0.010,
                    dc_bytes=800)
    fixed = {s: run_loop(loop, cluster4, s, options=options).duration
             for s in ("GCDLB", "GDDLB", "LCDLB", "LDDLB")}
    custom = run_loop(loop, cluster4, "CUSTOM", options=options).duration
    assert custom <= max(fixed.values()) * 1.15
    assert custom >= min(fixed.values()) * 0.8


def test_customized_measures_effective_loads(small_loop, cluster4, options):
    stats = run_loop(small_loop, cluster4, "CUSTOM", options=options)
    mus = stats.selection_report.measured_effective_loads
    assert set(mus) == {0, 1, 2, 3}
    assert all(mu >= 1.0 for mu in mus.values())


def test_customized_selection_picks_diffusion_on_a_large_torus():
    """Priced by what it sends — neighbour exchanges, not an all-to-all
    — DIFF is the model's choice at P = 64 on a switched graph, and the
    run that switches to it mid-loop still covers every iteration
    (``run_loop`` checks); on the bus it is never offered."""
    from repro.apps.mxm import MxmConfig, mxm_loop
    from repro.runtime.options import RunOptions
    loop = mxm_loop(MxmConfig(240, 100, 100))
    cluster = ClusterSpec.homogeneous(64, max_load=5, seed=1)
    on_torus = run_loop(loop, cluster, "CUSTOM",
                        RunOptions(topology="torus"))
    assert on_torus.selected_scheme == "Diffusion"
    on_bus = run_loop(loop, cluster, "CUSTOM", RunOptions())
    assert on_bus.selected_scheme != "Diffusion"
