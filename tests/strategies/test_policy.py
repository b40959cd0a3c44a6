"""Tests for DLB policy validation."""

import pytest

from repro.core.policy import DlbPolicy


def test_defaults_match_paper():
    p = DlbPolicy()
    assert p.improvement_threshold == pytest.approx(0.10)
    assert p.include_movement_cost is False


def test_improvement_threshold_bounds():
    with pytest.raises(ValueError):
        DlbPolicy(improvement_threshold=1.0)
    with pytest.raises(ValueError):
        DlbPolicy(improvement_threshold=-0.1)


def test_min_move_fraction_bounds():
    with pytest.raises(ValueError):
        DlbPolicy(min_move_fraction=1.0)


def test_negative_costs_rejected():
    with pytest.raises(ValueError):
        DlbPolicy(delta_seconds=-1.0)
    with pytest.raises(ValueError):
        DlbPolicy(retire_fraction=-1.0)


def test_rate_floor_bounds():
    with pytest.raises(ValueError):
        DlbPolicy(rate_floor_fraction=0.0)
    with pytest.raises(ValueError):
        DlbPolicy(rate_floor_fraction=2.0)


def test_but_returns_modified_copy():
    p = DlbPolicy()
    q = p.but(improvement_threshold=0.2, include_movement_cost=True)
    assert q.improvement_threshold == 0.2
    assert q.include_movement_cost is True
    assert p.improvement_threshold == 0.10


def test_policy_hashable():
    assert hash(DlbPolicy()) == hash(DlbPolicy())
