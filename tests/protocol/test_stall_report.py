"""A run that never completes fails at its deadline and says why.

One supervisor watches a run on every real backend
(``repro.backend.driver.Supervisor``): at twice ``WATCHDOG_SECONDS`` it
fails the run with one stall report.  Here one participant never
finishes — its last iteration costs far more than the deadline — and
the report must name it, count what was executed and give the first
uncovered range, on thread, process and socket alike.
"""

from __future__ import annotations

import time

import pytest

from repro import ClusterSpec
from repro.apps.workload import LoopSpec
from repro.backend import (
    BackendError,
    ProcessBackend,
    SocketBackend,
    ThreadBackend,
)
from repro.backend import driver
from repro.runtime.options import RunOptions

N = 8
#: Equal blocks: node 0 runs 0-3 and finishes; node 1 runs 4-6, then
#: iteration 7 holds it for a minute.  Held-back ranges are reported in
#: bulk, so the ledger has exactly node 0's four.
STUCK = LoopSpec("stuck", N, (1e-3,) * (N - 1) + (60.0,), dc_bytes=64)
BACKENDS = {"thread": ThreadBackend, "process": ProcessBackend,
            "socket": SocketBackend}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_stuck_participant_is_named_at_the_deadline(backend, monkeypatch):
    monkeypatch.setattr(driver, "WATCHDOG_SECONDS", 0.25)
    t0 = time.perf_counter()
    with pytest.raises(BackendError) as failure:
        BACKENDS[backend]().run_loop(
            STUCK, ClusterSpec.homogeneous(2, max_load=0), "NONE",
            RunOptions())
    elapsed = time.perf_counter() - t0
    text = str(failure.value)
    assert "watchdog: run never completed in 0.5s (pending node1;" in text
    assert "executed 4/8, first uncovered [(4, 8)]" in text
    assert text.count("watchdog") == 1  # one error, not one per waiter
    # The deadline, then the teardown: not the minute the burn asks for.
    assert elapsed < 3.0
