"""Synthetic compute kernels shared by the real-time backends.

Three kernels realize a "compute this iteration" request:

* **wall** — hold until a wall-clock deadline with the GIL released
  (:func:`burn_wall`; :func:`hold_async` is the same hold for asyncio
  tasks).  Cheap and exact, but it measures *elapsed time*, not *CPU
  work*: N GIL-sharing threads each holding to their own deadline all
  finish on time while doing no arithmetic at all.  Fine for protocol
  exercise; useless for speedup claims.
* **ops** — execute a fixed number of floating-point operations,
  calibrated once against this host (:func:`calibrate_ops_rate`).  This
  is real work: N threads contending for the GIL serialize, N processes
  on N cores do not — which is exactly the thread-vs-process speedup
  story the paper's Figures 5–8 tell on physical workstations.
* **numpy** — the same fixed op count executed as vectorized
  multiply-adds (:func:`burn_vec`), calibrated separately
  (:func:`calibrate_vec_rate`).  It can compute **in place on a
  caller-supplied float64 view** — the process backend, the only one
  that accepts it, hands it a window of its run's shared-memory data
  block, an ``mmap`` of a POSIX segment (:func:`shm_row_view`), so
  the arithmetic touches the iteration's actual data rows with zero
  copies (not just zero-copy transport).

All kernels honor an optional ``should_abort`` probe between chunks so
a failing run can tear its workers down instead of computing until the
watchdog (see the shutdown contract in ``thread.py``/``process.py``).
"""

from __future__ import annotations

import importlib.util
import os
import time
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HAVE_NUMPY",
    "KERNELS",
    "burn",
    "burn_ops",
    "burn_vec",
    "burn_wall",
    "calibrate",
    "calibrate_ops_rate",
    "calibrate_vec_rate",
    "hold_async",
    "shm_row_view",
]

#: Whether the vectorized kernel can run at all on this host.  Only the
#: kernel's own functions import numpy: a ``wall`` or ``ops`` run never
#: loads it.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

#: Every kernel name a backend may accept.
KERNELS = ("wall", "ops", "numpy")

#: Operations between abort probes; small enough that aborts land within
#: tens of microseconds, large enough that the probe cost is noise.
CHUNK_OPS = 1024


def burn_ops(n_ops: float,
             should_abort: Optional[Callable[[], bool]] = None) -> float:
    """Execute ``n_ops`` floating-point multiply-adds; return the sink.

    Stops early (returning the partial sink) when ``should_abort``
    fires between chunks.
    """
    x = 1.0
    remaining = int(n_ops)
    while remaining > 0:
        if should_abort is not None and should_abort():
            break
        step = CHUNK_OPS if remaining > CHUNK_OPS else remaining
        for _ in range(step):
            x = x * 1.0000001 + 1e-9
        remaining -= step
    return x


# ---------------------------------------------------------------------------
# The deadline hold: how a real backend holds a ``wall`` iteration.
# Sleep (GIL released, event loop free) in slices to just short of the
# deadline, probing for an abort before each slice, then close the gap
# with a tail that yields to whoever else is due on every pass.  A hold
# never returns early, never keeps another thread or task from its own
# deadline, and overshoots by microseconds, not by a switch interval.
# ---------------------------------------------------------------------------
#: Longest sleep between two abort probes, seconds (blocking, asyncio).
HOLD_SLICE, HOLD_SLICE_ASYNC = 0.005, 0.02

#: Where sleeping stops short of the deadline: ``time.sleep`` overshoots
#: by the timer slack (~50-100 us); the epoll selector rounds an
#: ``asyncio.sleep`` *up* to the next millisecond.
HOLD_TAIL, HOLD_TAIL_ASYNC = 0.00025, 0.0012

#: One pass of the blocking tail: give up the GIL without sleeping
#: (``time.sleep(0)`` is a ~60 us ``clock_nanosleep`` on CPython >= 3.11).
_yield_gil = getattr(os, "sched_yield", None) or (lambda: time.sleep(0))


def burn_wall(seconds: float,
              should_abort: Optional[Callable[[], bool]] = None) -> None:
    """Hold until ``seconds`` of wall time elapsed (or abort fires)."""
    if seconds <= 0:
        return
    end = time.perf_counter() + seconds
    while True:
        if should_abort is not None and should_abort():
            return
        remaining = end - time.perf_counter()
        if remaining <= 0:
            return
        if remaining > HOLD_TAIL:
            time.sleep(min(remaining - HOLD_TAIL, HOLD_SLICE))
        else:
            _yield_gil()


async def hold_async(seconds: float, check_stop: Callable[[], None]) -> None:
    """:func:`burn_wall` for an asyncio task; ``check_stop`` raises to
    stop the hold (a fail-stop lands within one slice)."""
    # Imported here: every backend imports this module, and only a
    # socket run should load asyncio.
    from asyncio import sleep
    end = time.perf_counter() + seconds
    while True:
        remaining = end - time.perf_counter()
        if remaining <= 0:
            return
        check_stop()
        await sleep(max(0.0, min(remaining - HOLD_TAIL_ASYNC,
                                 HOLD_SLICE_ASYNC)))


#: Float64 elements of the fallback scratch vector used when the caller
#: supplies no data view (thread backend, tiny rows).  Big enough that
#: numpy's per-ufunc dispatch overhead amortizes; small enough to stay
#: resident in L1/L2.
VEC_CHUNK = 4096

#: Below this many float64 elements a view is not worth vectorizing
#: over — per-pass dispatch overhead would dominate and the calibrated
#: rate would misprice the iteration.  Callers fall back to scratch.
MIN_VEC_ELEMS = 8

#: Multiply-adds per element per pass of :func:`burn_vec` (one fused
#: ``x = x * a + b`` counts 2, matching :func:`burn_ops` accounting).
_VEC_OPS_PER_ELEM = 2


def burn_vec(n_ops: float, out: Optional[np.ndarray] = None,
             should_abort: Optional[Callable[[], bool]] = None) -> float:
    """Execute ``n_ops`` multiply-adds as vectorized numpy passes.

    Operates **in place** on ``out`` when given — typically a zero-copy
    float64 view of a shared-memory iteration row
    (:func:`shm_row_view`) — otherwise on a private scratch vector of
    :data:`VEC_CHUNK` elements.  The contraction multiplier (< 1) keeps
    values bounded however many passes run, so repeated in-place burns
    over the same row never overflow.

    Returns the first element as a sink.  Stops early when
    ``should_abort`` fires between passes.
    """
    if not HAVE_NUMPY:
        raise RuntimeError("numpy is not available; use the 'ops' kernel")
    import numpy as np
    x = out
    if x is None or x.size < MIN_VEC_ELEMS:
        x = np.full(VEC_CHUNK, 0.5)
    ops_per_pass = _VEC_OPS_PER_ELEM * x.size
    remaining = int(n_ops)
    while remaining > 0:
        if should_abort is not None and should_abort():
            break
        np.multiply(x, 0.999999, out=x)
        np.add(x, 1e-9, out=x)
        remaining -= ops_per_pass
    return float(x[0])


def shm_row_view(buf, offset: int, nbytes: int) -> Optional[np.ndarray]:
    """Zero-copy float64 view over ``nbytes`` bytes of ``buf`` at ``offset``.

    ``buf`` is any writable buffer (the process backend's block maps
    its segment with ``mmap``);
    the view aliases it, so :func:`burn_vec` writing through the view
    mutates the shared block directly.  Returns ``None`` when the
    window is too small to vectorize over (:data:`MIN_VEC_ELEMS`).
    """
    if not HAVE_NUMPY:
        return None
    elems = nbytes // 8
    if elems < MIN_VEC_ELEMS:
        return None
    import numpy as np
    return np.frombuffer(buf, dtype=np.float64, count=elems,
                          offset=offset)


_cached_rate: Optional[float] = None


def calibrate_ops_rate(sample_ops: int = 200_000, repeats: int = 3,
                       fresh: bool = False) -> float:
    """Measured multiply-adds per second of :func:`burn_ops` on this host.

    Takes the best of ``repeats`` short samples (minimizing scheduler
    noise) and caches the result for the life of the process; forked
    workers inherit the cache, so one calibration prices every backend
    in a comparison identically — which is what makes thread-vs-process
    wall-clock ratios meaningful even if the absolute rate drifts.
    """
    global _cached_rate
    if _cached_rate is not None and not fresh:
        return _cached_rate
    best = 0.0
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        burn_ops(sample_ops)
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            best = max(best, sample_ops / elapsed)
    if best <= 0:  # pragma: no cover - perf_counter would have to stall
        best = 1e7
    _cached_rate = best
    return best


_cached_vec_rates: dict[int, float] = {}


def calibrate_vec_rate(elems: Optional[int] = None,
                       sample_ops: int = 50_000_000, repeats: int = 3,
                       fresh: bool = False) -> float:
    """Measured multiply-adds per second of :func:`burn_vec` on this host.

    The rate depends on the working vector's size (per-pass dispatch
    overhead amortizes over more elements), so it is calibrated — and
    cached — **per element count**: pass the same ``elems`` the run
    will actually burn over (``None`` means the :data:`VEC_CHUNK`
    scratch fallback) and wall time per iteration stays faithful to
    ``cost * time_scale`` whatever the row width.

    The sample must run tens of milliseconds: vectorized rates are high
    enough that a short sample measures the CPU's burst behavior, not
    the sustained throughput the run will actually see.
    """
    if not HAVE_NUMPY:
        raise RuntimeError("numpy is not available; use the 'ops' kernel")
    import numpy as np
    if elems is None or elems < MIN_VEC_ELEMS:
        elems = VEC_CHUNK
    rate = _cached_vec_rates.get(elems)
    if rate is not None and not fresh:
        return rate
    x = np.full(elems, 0.5)
    best = 0.0
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        burn_vec(sample_ops, out=x)
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            best = max(best, sample_ops / elapsed)
    if best <= 0:  # pragma: no cover - perf_counter would have to stall
        best = 1e8
    _cached_vec_rates[elems] = best
    return best


def calibrate(kernel: str, elems: Optional[int] = None) -> float:
    """Ops per nominal second of ``kernel`` on this host (``"wall"``
    needs none: it holds to a deadline)."""
    if kernel == "ops":
        return calibrate_ops_rate()
    if kernel == "numpy":
        return calibrate_vec_rate(elems)
    return 1.0


def burn(kernel: str, seconds: float, ops_rate: float,
         out: Optional[np.ndarray] = None,
         should_abort: Optional[Callable[[], bool]] = None) -> None:
    """Burn ``seconds`` of nominal CPU with ``kernel`` (``ops_rate`` from
    :func:`calibrate`; ``out`` is the numpy kernel's in-place view)."""
    if kernel == "wall":
        burn_wall(seconds, should_abort)
    elif kernel == "numpy":
        burn_vec(seconds * ops_rate, out, should_abort)
    else:
        burn_ops(seconds * ops_rate, should_abort)
