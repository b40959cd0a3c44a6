"""Tests for the experiment runner and order helpers."""

import math
import random

import numpy as np
import pytest

from repro.apps.workload import LoopSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    Measurement,
    measure_loop,
    measured_order,
    order_agreement,
    predict_loop,
    predicted_order,
)


CFG = ExperimentConfig(n_seeds=2, persistence=0.5, base_seed=5)
LOOP = LoopSpec(name="exp", n_iterations=48, iteration_time=0.01,
                dc_bytes=400)


def test_measure_loop_samples_per_seed():
    m = measure_loop(LOOP, 4, "GD", CFG)
    assert len(m.times) == 2
    assert m.mean > 0
    assert m.mean_syncs >= 1


def test_measure_respects_explicit_seeds():
    a = measure_loop(LOOP, 4, "GD", CFG, seeds=[1, 2])
    b = measure_loop(LOOP, 4, "GD", CFG, seeds=[1, 2])
    assert a.times == b.times


def test_predict_loop_runs_model():
    p = predict_loop(LOOP, 4, "LD", CFG)
    assert len(p.times) == 2
    assert p.mean > 0


def test_measured_order_ranks_all():
    order, cells = measured_order(LOOP, 4, CFG)
    assert set(order) == {"GC", "GD", "LC", "LD"}
    means = [cells[s].mean for s in order]
    assert means == sorted(means)


def test_predicted_order_ranks_all():
    order, _ = predicted_order(LOOP, 4, CFG)
    assert set(order) == {"GC", "GD", "LC", "LD"}


def test_order_agreement_extremes():
    assert order_agreement(("A", "B", "C"), ("A", "B", "C")) == 1.0
    assert order_agreement(("A", "B", "C"), ("C", "B", "A")) == 0.0
    assert order_agreement(("A", "B", "C", "D"),
                           ("B", "A", "C", "D")) == pytest.approx(5 / 6)


def test_order_agreement_set_mismatch():
    with pytest.raises(ValueError):
        order_agreement(("A", "B"), ("A", "C"))


def test_group_size_two_groups():
    assert CFG.group_size(4) == 2
    assert CFG.group_size(16) == 8
    assert CFG.group_size(5) == 3


def test_seed_env_override(monkeypatch):
    from repro.experiments.config import default_seed_count
    monkeypatch.setenv("REPRO_SEEDS", "3")
    assert default_seed_count() == 3
    monkeypatch.setenv("REPRO_SEEDS", "junk")
    assert default_seed_count(7) == 7


def test_measurement_statistics_are_numpys_bit_for_bit():
    """Python floats, pairwise-summed as numpy sums: ``mean`` and the
    population ``std`` of the times, ``mean_syncs`` of the counts."""
    rng = random.Random(3)
    for n in [*range(1, 40), 127, 128, 129, 300, 1000]:
        times = [rng.uniform(0.5, 2.0) * 10.0 ** rng.randint(-4, 3)
                 for _ in range(n)]
        syncs = [rng.randrange(10 ** rng.randint(1, 7)) for _ in range(n)]
        m = Measurement("X", times, syncs)
        assert m.mean == float(np.mean(times))
        assert m.std == float(np.std(times))
        assert m.mean_syncs == float(np.mean(syncs))
        assert type(m.mean) is type(m.std) is type(m.mean_syncs) is float
    assert Measurement("X", [1.0]).mean_syncs == 0.0
    assert math.isnan(Measurement("X").mean)


def test_a_cells_statistics_are_numpys():
    m = measure_loop(LOOP, 4, "GD", CFG)
    assert m.mean == float(np.mean(m.times))
    assert m.std == float(np.std(m.times))
    assert m.mean_syncs == float(np.mean(m.syncs))
