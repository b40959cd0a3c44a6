"""Tests for the task-queue scheduling simulation (§2.2 baselines)."""

from functools import partial

import pytest

from repro.apps.workload import LoopSpec
from repro.machine.cluster import ClusterSpec
from repro.schedulers import (
    ALL_POLICIES,
    Policy,
    chunking,
    factoring,
    gss,
    run_task_queue,
    safe_ss,
    self_scheduling,
    static,
    tss,
)


LOOP = LoopSpec(name="tq", n_iterations=100, iteration_time=0.01,
                dc_bytes=0)
QUIET = ClusterSpec.homogeneous(4, max_load=0)
NOISY = ClusterSpec(speeds=(1.0,) * 4, persistence=1000.0,
                    load_traces=((0,), (0,), (0,), (4,)))
SS = Policy("self-scheduling", self_scheduling)
STATIC = Policy("static", static)
GSS = Policy("gss", gss)


def test_every_policy_schedules_all_iterations():
    for policy in ALL_POLICIES():
        result = run_task_queue(LOOP, QUIET, policy)
        assert sum(result.iterations_by_processor.values()) == 100, \
            policy.name
        assert result.scheduler == policy.name


def test_self_scheduling_one_chunk_per_iteration():
    result = run_task_queue(LOOP, QUIET, SS)
    assert result.n_chunks == 100


def test_static_one_chunk_per_processor():
    result = run_task_queue(LOOP, QUIET, STATIC)
    assert result.n_chunks == 4


def test_gss_chunks_decrease():
    chunk = gss(100, 4)
    # First chunk is remaining/P, later ones shrink.
    assert chunk(100, 0) == 25
    assert chunk(75, 1) == 19
    assert chunk(3, 9) == 1


def test_factoring_batches_halve():
    chunk = factoring(100, 4)
    first_batch = [chunk(100 - 13 * i, i) for i in range(4)]
    assert first_batch == [13, 13, 13, 13]
    second = chunk(48, 4)
    assert second == 6


def test_tss_linear_decrease():
    chunk = tss(100, 4)
    sizes = [chunk(100, i) for i in range(5)]
    assert sizes[0] > sizes[-1] >= 1
    assert sizes == sorted(sizes, reverse=True)


def test_safe_ss_static_then_dynamic():
    chunk = safe_ss(100, 4, alpha=0.5)
    static_phase = [chunk(100, i) for i in range(4)]
    assert static_phase == [12, 12, 12, 12]
    assert chunk(52, 4) == 7  # ceil(52 / 8)


def test_safe_ss_alpha_bounds():
    with pytest.raises(ValueError, match="alpha"):
        safe_ss(100, 4, alpha=1.5)
    with pytest.raises(ValueError, match="alpha"):
        run_task_queue(LOOP, QUIET,
                       Policy("safe-ss", partial(safe_ss, alpha=0.0)))


def test_chunking_auto_size():
    assert chunking(100, 4)(100, 0) == 13  # ceil(100 / (4 * 2))
    assert chunking(100, 4, k=3)(100, 0) == 3


def test_bound_parameters_reach_the_schedule():
    """A rule's parameter, bound with ``partial``, is what the run uses;
    the policy's name is what its result carries."""
    result = run_task_queue(
        LOOP, QUIET, Policy("chunking(K=3)", partial(chunking, k=3)))
    assert result.scheduler == "chunking(K=3)"
    assert result.n_chunks == 34  # 33 chunks of 3, then the last 1


def test_access_cost_penalizes_fine_grain():
    cheap = run_task_queue(LOOP, QUIET, SS, access_cost=0.0)
    pricey = run_task_queue(LOOP, QUIET, SS, access_cost=2.4e-3)
    assert pricey.finish_time > cheap.finish_time
    # Static barely notices the access cost.
    s_cheap = run_task_queue(LOOP, QUIET, STATIC, access_cost=0.0)
    s_pricey = run_task_queue(LOOP, QUIET, STATIC, access_cost=2.4e-3)
    assert (s_pricey.finish_time - s_cheap.finish_time) < \
        (pricey.finish_time - cheap.finish_time)


def test_dynamic_beats_static_under_load():
    static_run = run_task_queue(LOOP, NOISY, STATIC)
    dynamic = run_task_queue(LOOP, NOISY, SS)
    assert dynamic.finish_time < static_run.finish_time


def test_loaded_processor_gets_fewer_iterations():
    result = run_task_queue(LOOP, NOISY, SS)
    counts = result.iterations_by_processor
    assert counts[3] < min(counts[i] for i in (0, 1, 2))


def test_negative_access_cost_rejected():
    with pytest.raises(ValueError):
        run_task_queue(LOOP, QUIET, SS, access_cost=-1.0)


def test_deterministic():
    a = run_task_queue(LOOP, NOISY, GSS)
    b = run_task_queue(LOOP, NOISY, GSS)
    assert a.finish_time == b.finish_time
