"""The lifetime of a simulated run (``executor._simulated_run``).

Two halves of one design.  *The invariant*: a finished run leaves
nothing for the cyclic collector — with the collector off, a
``gc.collect()`` afterwards finds zero unreachable objects, for every
strategy, topology, sync mode and fault plan.  *The scope*: because of
that, the executor pauses the collector while a simulated run lives, and
hands it back exactly as the caller had it, whatever ends the run.
"""

from __future__ import annotations

import gc
import signal
import threading

import pytest

from repro import ClusterSpec, run_application, run_loop
from repro.apps.trfd import TrfdConfig, trfd_application
from repro.apps.workload import LoopSpec
from repro.backend import driver
from repro.faults import FaultPlan
from repro.runtime.assignment import CoverageError
from repro.runtime.options import RunOptions

STRATEGIES = ("GC", "GD", "LC", "LD", "WS", "DIFF", "CUSTOM", "NONE")
TOPOLOGIES = ("bus", "ring", "torus")
SYNC_MODES = ("interrupt", "periodic")
#: ``None`` is the plain protocol; a number seeds a random crash +
#: slowdown + drop plan, which also turns the hardened protocol on.
#: These two seeds are ones on which every combination below ends (a
#: drop plan may also exhaust a node's retries, which fails the run).
PLANS = (None, 2, 4)
SIZES = (4, 16)

LOOP = LoopSpec(name="lifetime", n_iterations=64, iteration_time=0.010,
                dc_bytes=800)


def _cluster(p: int) -> ClusterSpec:
    return ClusterSpec.homogeneous(p, max_load=3, persistence=0.5, seed=42)


def _plan(seed, p: int):
    if seed is None:
        return None
    return FaultPlan.random_plan(seed, p, 0.3, n_crashes=1, n_slowdowns=1,
                                 drop_probability=0.05)


def _unreachable_after(run) -> int:
    """What ``run()`` leaves for the collector.  Off around the whole
    call: re-enabled on return, it could collect before we count."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module", autouse=True)
def _warm():
    """One run per strategy first: lazy imports and first-use caches
    make garbage of their own, once per process."""
    for strategy in STRATEGIES:
        ws = strategy == "WS"  # it refuses periodic sync and fault plans
        run_loop(LOOP, _cluster(4), strategy,
                 RunOptions(topology="torus",
                            sync_mode="interrupt" if ws else "periodic"),
                 fault_plan=None if ws else _plan(2, 4))


# -- the invariant ------------------------------------------------------------

@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("plan_seed", PLANS)
@pytest.mark.parametrize("sync_mode", SYNC_MODES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_finished_run_leaves_nothing_for_the_collector(
        strategy, topology, sync_mode, plan_seed, p):
    options = RunOptions(topology=topology, sync_mode=sync_mode)
    plan = _plan(plan_seed, p)
    if strategy == "WS" and (plan is not None or sync_mode == "periodic"):
        with pytest.raises(ValueError, match="work-stealing"):
            run_loop(LOOP, _cluster(p), strategy, options, fault_plan=plan)
        return
    assert _unreachable_after(lambda: run_loop(
        LOOP, _cluster(p), strategy, options, fault_plan=plan)) == 0


@pytest.mark.parametrize("strategy", ("GC", "LD", "CUSTOM"))
def test_a_finished_application_leaves_nothing_for_the_collector(strategy):
    """Three stages (loop, transpose, loop) with scatter and gather on
    one environment: the staging ``all_of`` conditions and delivery
    events go with it."""
    app = trfd_application(TrfdConfig(10))
    options = RunOptions(include_staging=True)
    run_application(app, _cluster(4), strategy, options)
    assert _unreachable_after(lambda: run_application(
        app, _cluster(4), strategy, options)) == 0


# -- the scope of the pause ---------------------------------------------------

@pytest.fixture
def collector_on():
    assert gc.isenabled()
    yield
    gc.enable()  # a failing test must not switch it off for the rest


def test_collector_is_paused_during_a_run_and_back_on_after(collector_on):
    seen = []
    options = RunOptions(on_execute=lambda node, ranges:
                         seen.append(gc.isenabled()))
    run_loop(LOOP, _cluster(4), "GD", options)
    assert seen and not any(seen)
    assert gc.isenabled()
    run_application(trfd_application(TrfdConfig(10)), _cluster(4), "LD",
                    options)
    assert gc.isenabled()


def test_collector_is_back_on_after_a_run_that_raises(collector_on,
                                                      monkeypatch):
    with pytest.raises(ValueError, match="at least 2 processors"):
        run_loop(LOOP, _cluster(1), "GD")
    assert gc.isenabled()

    def refuse(executed, n_iterations):
        raise CoverageError("injected")

    monkeypatch.setattr(driver, "check_coverage", refuse)
    with pytest.raises(CoverageError, match="injected"):
        run_loop(LOOP, _cluster(4), "GD")
    assert gc.isenabled()
    with pytest.raises(CoverageError, match="injected"):
        run_application(trfd_application(TrfdConfig(10)), _cluster(4), "GD")
    assert gc.isenabled()


class _Abort(BaseException):
    """What ``bench/workloads.py::completes`` raises into a run."""


@pytest.fixture
def no_foreign_gc_callbacks():
    """Other libraries' ``gc.callbacks`` (hypothesis times the collector
    with one) set aside: an alarm that lands in one of them can only be
    reported as unraisable, which fails whichever test is running."""
    foreign = gc.callbacks[:]
    gc.callbacks.clear()
    yield
    gc.callbacks[:] = foreign


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="needs interval timers")
@pytest.mark.parametrize("after_cpu_s", (0.0002, 0.001, 0.004, 0.016, 0.05))
def test_collector_is_back_on_after_a_signal_handlers_exception(
        collector_on, no_foreign_gc_callbacks, after_cpu_s):
    """A ``BaseException`` from a CPU-time alarm, raised again every
    millisecond until the run is left: wherever it lands — building the
    cluster, mid-event, in the teardown — the collector comes back on.

    Leaving the run is the delicate part of the *test*: the alarm
    repeats, so the next one can land in this function's own ``finally``
    ahead of the disarm (or inside ``pytest.raises``'s exit) and escape.
    So ``SIGVTALRM`` is blocked first — ``pthread_sigmask`` itself
    delivers an alarm that has already tripped, hence the retry — and
    the timer is disarmed and the handler restored behind the mask."""
    def abort(signum, frame):
        raise _Abort

    loop = LoopSpec(name="long", n_iterations=4096, iteration_time=0.010,
                    dc_bytes=800)
    alarm = {signal.SIGVTALRM}
    aborts = 0
    before = signal.signal(signal.SIGVTALRM, abort)
    try:
        try:
            signal.setitimer(signal.ITIMER_VIRTUAL, after_cpu_s, 0.001)
            run_loop(loop, _cluster(64), "GD")
        finally:
            while True:
                try:
                    signal.pthread_sigmask(signal.SIG_BLOCK, alarm)
                    break
                except _Abort:
                    aborts += 1
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
            # Ignoring a signal discards a pending one: nothing is left
            # to land on the restored handler once the mask lifts.
            signal.signal(signal.SIGVTALRM, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, alarm)
            signal.signal(signal.SIGVTALRM, before)
    except _Abort:
        aborts += 1
    assert aborts >= 1
    assert gc.isenabled()


def test_a_collector_the_caller_disabled_stays_disabled(collector_on):
    gc.disable()
    try:
        run_loop(LOOP, _cluster(4), "GD")
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            run_loop(LOOP, _cluster(1), "GD")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_nested_run_does_not_end_the_outer_pause(collector_on):
    after_inner = []

    def nested(node, ranges):
        if not after_inner:
            run_loop(LOOP, _cluster(4), "LD")
            after_inner.append(gc.isenabled())

    run_loop(LOOP, _cluster(4), "GD", RunOptions(on_execute=nested))
    assert after_inner == [False]
    assert gc.isenabled()


def test_real_backends_never_pause_the_collector(collector_on, monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    loop = LoopSpec(name="real", n_iterations=16, iteration_time=0.001,
                    dc_bytes=80)
    run_loop(loop, _cluster(2), "GD", backend="thread")
    assert calls == []
    run_loop(LOOP, _cluster(4), "GD")
    assert calls == ["disable"]


def test_two_runs_in_two_threads_end_with_the_collector_on(collector_on):
    """The collector's switch is process-wide and two pauses may
    interleave in any order; whichever thread found it on puts it back
    on, and it is the last to matter."""
    loop = LoopSpec(name="mid", n_iterations=512, iteration_time=0.010,
                    dc_bytes=800)
    errors = []

    def work():
        try:
            for _ in range(3):
                run_loop(loop, _cluster(16), "GD")
        except BaseException as exc:  # reported below, on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert gc.isenabled()
