"""The vectorized compute kernel and its backend wiring.

Covers :mod:`repro.backend.kernels`'s numpy additions — in-place
vectorized burns, zero-copy shared-memory views, size-keyed
calibration — and the ``kernel="numpy"`` path through the process
backend, including the validation surface (threads refuse it).
"""

from __future__ import annotations

from multiprocessing import shared_memory

import pytest

from repro import ClusterSpec
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.backend import BackendError, ProcessBackend, ThreadBackend
from repro.backend.kernels import (
    HAVE_NUMPY,
    MIN_VEC_ELEMS,
    VEC_CHUNK,
    _cached_vec_rates,
    burn_vec,
    calibrate_vec_rate,
    shm_row_view,
)
from repro.runtime.options import RunOptions

np = pytest.importorskip("numpy")

#: Small enough to keep calibration tests fast, large enough to measure.
SAMPLE_OPS = 1_000_000


def _cluster(n=4):
    return ClusterSpec.homogeneous(n, max_load=3, persistence=1.0, seed=7)


# -- burn_vec ------------------------------------------------------------

def test_burn_vec_mutates_supplied_array_in_place():
    x = np.full(64, 0.5)
    before = x.copy()
    sink = burn_vec(10_000, out=x)
    assert not np.array_equal(x, before)
    assert sink == x[0]


def test_burn_vec_values_stay_bounded_over_many_passes():
    # The contraction multiplier (< 1) must keep repeated in-place
    # burns over the same row from diverging, whatever the row held.
    x = np.full(MIN_VEC_ELEMS, 1e300)
    for _ in range(5):
        burn_vec(50_000, out=x)
    assert np.all(np.isfinite(x))
    assert np.all(np.abs(x) <= 1e300)


def test_burn_vec_falls_back_to_scratch_for_tiny_views():
    tiny = np.full(MIN_VEC_ELEMS - 1, 0.5)
    before = tiny.copy()
    burn_vec(10_000, out=tiny)
    # Too small to vectorize over: left untouched, scratch burned.
    assert np.array_equal(tiny, before)


def test_burn_vec_respects_abort():
    x = np.full(VEC_CHUNK, 0.5)
    before = x.copy()
    burn_vec(10**12, out=x, should_abort=lambda: True)
    # Aborted before the first pass: nothing computed, no hang.
    assert np.array_equal(x, before)


def test_burn_vec_abort_after_first_pass():
    calls = []

    def abort_after_one():
        calls.append(None)
        return len(calls) > 1

    x = np.full(VEC_CHUNK, 0.5)
    burn_vec(10**12, out=x, should_abort=abort_after_one)
    assert len(calls) == 2  # one pass ran, the second probe aborted


# -- shm_row_view --------------------------------------------------------

def test_shm_row_view_aliases_shared_memory():
    shm = shared_memory.SharedMemory(create=True, size=256)
    try:
        view = shm_row_view(shm.buf, 8, 128)
        assert view is not None and view.size == 16
        view[:] = 0.25
        roundtrip = np.frombuffer(bytes(shm.buf[8:136]), dtype=np.float64)
        assert np.all(roundtrip == 0.25)
        # Burning through the view writes the shared block directly.
        burn_vec(10_000, out=view)
        after = np.frombuffer(bytes(shm.buf[8:136]), dtype=np.float64)
        assert not np.all(after == 0.25)
        del view, roundtrip, after  # release buf references before close
    finally:
        shm.close()
        shm.unlink()


def test_shm_row_view_rejects_windows_too_small_to_vectorize():
    buf = bytearray(1024)
    assert shm_row_view(buf, 0, (MIN_VEC_ELEMS - 1) * 8) is None
    assert shm_row_view(buf, 0, MIN_VEC_ELEMS * 8) is not None


# -- calibration ---------------------------------------------------------

def test_calibrate_vec_rate_caches_per_element_count():
    _cached_vec_rates.pop(256, None)
    first = calibrate_vec_rate(256, sample_ops=SAMPLE_OPS, repeats=1)
    assert first > 0
    # Cached: an absurd sample size is never run.
    again = calibrate_vec_rate(256, sample_ops=10**15, repeats=1)
    assert again == first
    # fresh=True recomputes (value may legitimately differ).
    refreshed = calibrate_vec_rate(256, sample_ops=SAMPLE_OPS, repeats=1,
                                   fresh=True)
    assert refreshed > 0


def test_calibrate_vec_rate_small_elems_use_scratch_size():
    _cached_vec_rates.pop(VEC_CHUNK, None)
    rate = calibrate_vec_rate(2, sample_ops=SAMPLE_OPS, repeats=1)
    assert _cached_vec_rates.get(VEC_CHUNK) == rate


# -- backend wiring ------------------------------------------------------

def test_thread_backend_numpy_kernel_end_to_end():
    # Refused end to end: a GIL hand-off per ~2 us ufunc made threads run
    # it at 0.22x of the GIL-serialized ops kernel at 4 workers.
    with pytest.raises(BackendError, match="process-only"):
        ThreadBackend(time_scale=0.2, kernel="numpy")


def test_process_backend_numpy_kernel_end_to_end():
    # dc_bytes large enough that workers burn in place on their shm
    # rows; the run's own stamp audit doubles as the integrity check.
    loop = mxm_loop(MxmConfig(32, 8, 8), op_seconds=4e-7)
    assert loop.dc_bytes >= MIN_VEC_ELEMS * 8
    stats = ProcessBackend(time_scale=0.2, kernel="numpy").run_loop(
        loop, _cluster(), "LDDLB", RunOptions())
    executed = sum(stats.executed_count(n) for n in stats.executed_by_node)
    assert executed == 32
    assert stats.shm_data_bytes >= 0


def test_unknown_kernel_rejected():
    with pytest.raises(BackendError, match="kernel"):
        ThreadBackend(kernel="cuda")
    with pytest.raises(BackendError, match="kernel"):
        ProcessBackend(kernel="cuda")


def test_process_backend_rejects_wall_kernel():
    # Wall-spinning proves nothing about parallel CPU work.
    with pytest.raises(BackendError, match="thread-only"):
        ProcessBackend(kernel="wall")


def test_have_numpy_reflects_import():
    assert HAVE_NUMPY  # numpy imported fine above via importorskip
