"""Tests for the TRFD workload spec (§6.3)."""

from statistics import mean, pstdev

import numpy as np
import pytest

from repro.apps.trfd import (
    TrfdConfig,
    bitonic_pair_costs,
    loop2_iteration_ops,
    transpose_stage,
    trfd_application,
    trfd_loop1,
    trfd_loop2,
)


def test_array_size_formula():
    assert TrfdConfig(30).m == 465
    assert TrfdConfig(40).m == 820
    assert TrfdConfig(50).m == 1275


def test_loop1_uniform_work():
    cfg = TrfdConfig(30)
    loop = trfd_loop1(cfg, op_seconds=1e-7)
    assert loop.uniform
    assert loop.n_iterations == 465
    assert loop.iteration_time == pytest.approx(
        (30 ** 3 + 3 * 30 ** 2 + 30) * 1e-7)


def test_loop2_raw_costs_decreasing():
    cfg = TrfdConfig(30)
    ops = loop2_iteration_ops(cfg)
    assert len(ops) == 465
    assert ops[0] > ops[-1]
    assert all(b - a <= 1e-9 for a, b in zip(ops, ops[1:]))
    assert all(c > 0 for c in ops)


def _numpy_loop2_ops(n: int) -> np.ndarray:
    """The §6.3 formula over an array, as the costs were once computed."""
    m = n * (n + 1) // 2
    j = np.arange(1, m + 1, dtype=np.float64)
    i = (1.0 + np.sqrt(8.0 * j - 7.0)) / 2.0
    ops = (n ** 3 + 3.0 * n ** 2
           + n * (1.0 + i / 2.0 - i ** 2 / 2.0)
           + (i - i ** 2))
    return np.maximum(ops, 1.0)


@pytest.mark.parametrize("n", range(2, 61))
def test_costs_are_the_vectorized_formulas_bit_for_bit(n):
    raw = _numpy_loop2_ops(n)
    ops = loop2_iteration_ops(TrfdConfig(n))
    assert all(type(c) is float for c in ops)
    assert ops == tuple(raw.tolist())
    m = raw.size
    paired = raw[:m // 2] + raw[::-1][:m // 2]
    if m % 2:
        paired = np.concatenate([paired, raw[m // 2:m // 2 + 1]])
    # The array form is still accepted, and gives the same floats.
    assert bitonic_pair_costs(ops) == bitonic_pair_costs(raw) \
        == tuple(paired.tolist())
    loop = trfd_loop2(TrfdConfig(n), op_seconds=3e-7)
    assert loop.iteration_time == tuple((paired * 3e-7).tolist())


def test_loop2_first_iteration_matches_loop1():
    """At j=1 (i=1) the §6.3 formula reduces to n^3+3n^2+n."""
    cfg = TrfdConfig(40)
    assert loop2_iteration_ops(cfg)[0] == pytest.approx(
        cfg.loop1_iteration_ops)


def test_bitonic_pairing_evens_out():
    cfg = TrfdConfig(30)
    raw = loop2_iteration_ops(cfg)
    paired = bitonic_pair_costs(raw)
    assert len(paired) == 233  # ceil(465 / 2)
    assert sum(paired) == pytest.approx(sum(raw))
    # Paired costs vary far less than raw costs.
    assert pstdev(paired[:-1]) / mean(paired[:-1]) < \
        0.25 * pstdev(raw) / mean(raw)


def test_bitonic_even_count():
    assert bitonic_pair_costs([4.0, 3.0, 2.0, 1.0]) == (5.0, 5.0)
    assert bitonic_pair_costs(np.array([4.0, 3.0, 2.0, 1.0])) == (5.0, 5.0)


def test_loop2_spec_bitonic_default():
    cfg = TrfdConfig(30)
    loop = trfd_loop2(cfg)
    assert loop.n_iterations == 233
    assert loop.dc_bytes == 2 * cfg.dc_bytes  # two columns per pair
    assert not loop.uniform


def test_loop2_spec_raw_variant():
    cfg = TrfdConfig(30)
    loop = trfd_loop2(cfg, bitonic=False)
    assert loop.n_iterations == 465
    assert loop.dc_bytes == cfg.dc_bytes


def test_transpose_stage_scales_with_m():
    small = transpose_stage(TrfdConfig(30))
    big = transpose_stage(TrfdConfig(50))
    assert big.compute_seconds > small.compute_seconds
    assert big.gather_bytes == 1275 * 1275 * 8


def test_application_structure():
    app = trfd_application(TrfdConfig(30))
    assert [s.name for s in app.stages] == ["trfd-L1", "trfd-transpose",
                                            "trfd-L2"]


def test_small_n_rejected():
    with pytest.raises(ValueError):
        TrfdConfig(1)
