"""Tests for affinity scheduling."""

import pytest

from repro.apps.workload import LoopSpec
from repro.machine.cluster import ClusterSpec
from repro.schedulers import run_affinity


LOOP = LoopSpec(name="aff", n_iterations=96, iteration_time=0.01,
                dc_bytes=0)
QUIET = ClusterSpec.homogeneous(4, max_load=0)
NOISY = ClusterSpec(speeds=(1.0,) * 4, persistence=1000.0,
                    load_traces=((0,), (0,), (0,), (5,)))


def test_all_iterations_scheduled():
    result = run_affinity(LOOP, QUIET)
    assert sum(result.iterations_by_processor.values()) == 96


def test_idle_processor_steals_from_loaded():
    result = run_affinity(LOOP, NOISY)
    counts = result.iterations_by_processor
    assert counts[3] < 24  # its initial block was partially stolen
    assert sum(counts.values()) == 96


def test_stealing_beats_static_under_load():
    whole = run_affinity(LOOP, NOISY, local_fraction=1.0)  # ~static
    steal = run_affinity(LOOP, NOISY, local_fraction=0.25)
    assert steal.finish_time < whole.finish_time


def test_local_fraction_bounds():
    with pytest.raises(ValueError):
        run_affinity(LOOP, QUIET, local_fraction=0.0)


def test_steal_cost_slows_completion():
    cheap = run_affinity(LOOP, NOISY, steal_cost=0.0)
    pricey = run_affinity(LOOP, NOISY, steal_cost=5e-3)
    assert pricey.finish_time >= cheap.finish_time


def test_no_load_close_to_ideal():
    result = run_affinity(LOOP, QUIET)
    ideal = LOOP.total_work / 4
    assert result.finish_time == pytest.approx(ideal, rel=0.15)


def test_deterministic():
    a = run_affinity(LOOP, NOISY)
    b = run_affinity(LOOP, NOISY)
    assert a.finish_time == b.finish_time
