"""The eight workloads: inputs from a seed, one repetition, its checks.

Every workload is built through ``repro``'s public API only, from
nothing but the seed, and every run it makes is verified here (not
trusted to the program): the executed ranges of all nodes must tile
``[0, N)`` exactly once.  The *why* of each workload lives in
``BENCHMARK.json`` and ``bench/README.md``.

A case offers ``warm_up()``, ``prepare()`` (untimed, before each
repetition) and ``repeat(lap)``.  ``repeat`` returns the facts of one
repetition: ``virtual_s`` (``LoopRunStats.duration``), the stats
counters, and — where wall time plays no part in it — ``speedup``.  It
calls ``lap()`` wherever the repetition can be cut, so the caller can
time the pieces between reference spins (bench/reference.py).

``run_loop`` is always called as ``repro.run_loop``: the traced pass
replaces that binding, and a name copied into this module would keep
pointing at the unwrapped function.
"""

from __future__ import annotations

import dataclasses
import random
import signal
import statistics
import sys
import time

import repro
from repro import ClusterSpec, MxmConfig, TrfdConfig, mxm_loop, \
    trfd_application
from repro.apps.workload import LoopSpec
from repro.backend import ProcessBackend, SocketBackend, ThreadBackend
from repro.backend.kernels import burn_ops, calibrate_ops_rate
from repro.experiments.config import ExperimentConfig, TABLE_SCHEMES
from repro.experiments.runner import order_agreement, predicted_order
from repro.runtime.options import RunOptions

#: ``--quick`` caps (bench/test_bench.py): processors and iterations.
QUICK_P = 64
QUICK_ITERATIONS = 64

#: Workers of the real backends: no more than this box has cores.
REAL_P = 2

#: 5 ms samples per re-pricing of the ``ops`` kernel (default: 3).
CALIBRATION_REPEATS = 9

#: Seconds of serial work timed before and after each repetition of an
#: op-count kernel case; the loop's serial time is scaled up from it.
SERIAL_SLICE_S = 0.05


class VerificationError(AssertionError):
    """A run's output failed the harness's own checks."""


class _Livelock(BaseException):
    """Raised into a screened run that has used up its CPU seconds.

    A ``BaseException``, and raised again every 50 ms until the run is
    left: the simulator turns an exception inside a process into a
    failed event, which need not end the run.
    """


def _raise_livelock(signum, frame):
    raise _Livelock


def completes(cpu_limit_s: float, loop, cluster, strategy: str,
              options) -> bool:
    """Whether this simulated run ends within ``cpu_limit_s`` CPU seconds.

    The simulator livelocks on a few load realizations (the centralized
    balancer re-synchronizes a group for ever while simulated time runs
    on; seen under GC, LC and CUSTOM at P=16, about one run in two
    thousand — bench/README.md, "Observed, not gated").  A benchmark
    input must not fail, so set-up runs every input once and passes
    over the load seeds that do not come back.  The limit is far above
    what a run takes (:attr:`SimCase.LIVELOCK_CPU_S`), and it is CPU
    time, which a busy host does not stretch: the same seed gives the
    same inputs.
    """
    before = signal.signal(signal.SIGVTALRM, _raise_livelock)
    signal.setitimer(signal.ITIMER_VIRTUAL, cpu_limit_s, 0.05)
    try:
        try:
            stats = repro.run_loop(loop, cluster, strategy, options)
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
    except _Livelock:
        print(f"bench: set-up: {strategy} at P={cluster.n_processors} does "
              f"not end on load seed {cluster.seed}; seed passed over",
              file=sys.stderr)
        return False
    finally:
        signal.signal(signal.SIGVTALRM, before)
    verify_coverage(stats, loop.n_iterations)
    return True


def verify_coverage(stats, n_iterations: int) -> None:
    """Exactly-once: the executed ranges tile ``[0, n_iterations)``."""
    ranges = sorted(r for node in stats.executed_by_node.values()
                    for r in node)
    at = 0
    for start, end in ranges:
        if start != at or end <= start:
            raise VerificationError(
                f"iterations not executed exactly once near {at}: "
                f"next range is [{start}, {end})")
        at = end
    if at != n_iterations:
        raise VerificationError(
            f"executed [0, {at}) of [0, {n_iterations})")


def _counters(stats) -> dict:
    return {"messages": stats.network_messages,
            "bytes": stats.network_bytes,
            "syncs": stats.n_syncs,
            "redistributions": stats.n_redistributions,
            "transport_bytes": stats.transport_payload_bytes,
            "shm_bytes": stats.shm_data_bytes}


def _add(totals: dict, counters: dict) -> None:
    for key, value in counters.items():
        totals[key] = totals.get(key, 0) + value


def _no_lap() -> None:
    pass


class SimCase:
    """What the simulated cases share."""

    backend = "sim"
    #: Pure-Python computation: timed at reference speed.
    cpu_bound = True
    #: CPU seconds after which a run made by set-up counts as
    #: livelocked (:func:`completes`): over 10x what the case's longest
    #: run takes on the sizing box.
    LIVELOCK_CPU_S = 20.0

    def prepare(self) -> None:
        """Nothing to do before a repetition."""


class SimLoopCase(SimCase):
    """One simulated loop at large P (``sim_bus``, ``sim_torus``, ``sim_diff``).

    ``realizations`` load realizations per repetition, seeded ``seed``,
    ``seed + 1000``, ... (set-up passes over those on which the run
    does not end): ``virtual_s`` is their mean, the counters their sum.
    More than one where a single realization's simulated time swings
    too much from seed to seed to be held to a bound.
    """

    def __init__(self, seed: int, quick: bool, *, processors: int,
                 strategy: str, topology, group_size: int,
                 realizations: int = 1) -> None:
        self.loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
        self.seed = seed
        self.processors = min(processors, QUICK_P) if quick else processors
        self.realizations = 1 if quick else realizations
        self.clusters: list[ClusterSpec] = []
        self.strategy = strategy
        self.options = RunOptions(topology=topology, group_size=group_size)

    def warm_up(self) -> None:
        """Choose the load realizations: one run of each candidate."""
        load_seed = self.seed
        while len(self.clusters) < self.realizations:
            cluster = ClusterSpec.homogeneous(
                self.processors, max_load=3, persistence=1.0, seed=load_seed)
            if completes(self.LIVELOCK_CPU_S, self.loop, cluster,
                         self.strategy, self.options):
                self.clusters.append(cluster)
            load_seed += 1000

    def repeat(self, lap) -> dict:
        totals: dict = {}
        times = []
        for cluster in self.clusters:
            stats = repro.run_loop(self.loop, cluster, self.strategy,
                                   self.options)
            verify_coverage(stats, self.loop.n_iterations)
            times.append(float(stats.duration))
            _add(totals, _counters(stats))
            lap()
        virtual_s = statistics.fmean(times)
        return {"virtual_s": virtual_s,
                "speedup": self.loop.total_work / virtual_s, **totals}


class PaperGridCase(SimCase):
    """The paper's own scale: 6 cells x 6 schemes x 5 load realizations.

    The load seeds are five consecutive ones, from ``1000 * seed`` or
    from the first seed after it on which all 36 runs end (set-up finds
    out), so that ``ExperimentConfig`` can name them and the model's
    predictions are made for the realizations that are simulated.
    """

    SCHEMES = ("NONE",) + TABLE_SCHEMES + ("CUSTOM",)
    #: The grid's longest run takes about 0.1 CPU seconds.
    LIVELOCK_CPU_S = 3.0

    def __init__(self, seed: int, quick: bool) -> None:
        self.config = ExperimentConfig(n_seeds=1 if quick else 5,
                                       base_seed=1000 * seed)
        mxm_s = self.config.mxm_op_seconds
        trfd = trfd_application(TrfdConfig(30),
                                op_seconds=self.config.trfd_op_seconds)
        l1, l2 = trfd.loops()
        self.cells = [(mxm_loop(MxmConfig(400, 400, 400), mxm_s), 4),
                      (mxm_loop(MxmConfig(1600, 400, 400), mxm_s), 16),
                      (l1, 4), (l2, 4), (l1, 16), (l2, 16)]

    def _options(self, processors: int) -> RunOptions:
        config = self.config
        return RunOptions(policy=config.policy, network=config.network,
                          group_size=config.group_size(processors))

    def _cluster(self, processors: int, load_seed: int) -> ClusterSpec:
        return ClusterSpec.homogeneous(
            processors, max_load=self.config.max_load,
            persistence=self.config.persistence, seed=load_seed)

    def _cell(self, loop, processors: int, totals: dict, dlb_times: list,
              dlb_speedups: list, lap) -> dict:
        """Mean simulated time per scheme of one cell; a lap per scheme."""
        options = self._options(processors)
        means = {}
        for scheme in self.SCHEMES:
            times = []
            for load_seed in self.config.seeds:
                stats = repro.run_loop(loop, self._cluster(processors,
                                                           load_seed),
                                       scheme, options)
                verify_coverage(stats, loop.n_iterations)
                times.append(float(stats.duration))
                _add(totals, _counters(stats))
            means[scheme] = statistics.fmean(times)
            if scheme != "NONE":
                dlb_times += times
                dlb_speedups += [loop.total_work / t for t in times]
            lap()
        return means

    def warm_up(self) -> None:
        """Choose the load seeds: one whole grid, run by run."""
        base = load_seed = self.config.base_seed
        while load_seed < base + self.config.n_seeds:
            if not all(completes(self.LIVELOCK_CPU_S, loop,
                                 self._cluster(processors, load_seed),
                                 scheme, self._options(processors))
                       for loop, processors in self.cells
                       for scheme in self.SCHEMES):
                base = load_seed + 1
            load_seed += 1
        self.config = dataclasses.replace(self.config, base_seed=base)

    def repeat(self, lap) -> dict:
        totals: dict = {}
        dlb_times: list = []
        dlb_speedups: list = []
        agreement, regret = [], []
        for loop, processors in self.cells:
            means = self._cell(loop, processors, totals, dlb_times,
                               dlb_speedups, lap)
            measured = tuple(sorted(TABLE_SCHEMES, key=means.__getitem__))
            predicted, _ = predicted_order(loop, processors, self.config)
            agreement.append(order_agreement(measured, predicted))
            best = min(means[s] for s in TABLE_SCHEMES)
            regret.append((means["CUSTOM"] - best) / best)
        return {"virtual_s": statistics.fmean(dlb_times),
                "speedup": statistics.fmean(dlb_speedups),
                "order_agreement": statistics.fmean(agreement),
                "custom_regret": statistics.fmean(regret), **totals}


class RealLoopCase:
    """One loop on a real backend at P = 2 under GCDLB.

    ``deadline_kernel``: iterations spin or sleep until a wall-clock
    deadline (thread ``wall`` kernel, socket tasks), so the loop takes
    its nominal time serially by construction.  Otherwise (process
    ``ops`` kernel) iterations are op counts priced by a calibrated
    rate, and :meth:`prepare` re-measures both before every repetition.
    """

    STRATEGY = "GCDLB"
    #: Iterations last what their nominal cost says, whatever the
    #: host's speed of the moment: timed raw, not at reference speed.
    cpu_bound = False

    def __init__(self, loop: LoopSpec, backend: str, make_backend,
                 deadline_kernel: bool) -> None:
        self.loop = loop
        self.backend = backend
        self.make_backend = make_backend
        self.deadline_kernel = deadline_kernel
        self.cluster = ClusterSpec.homogeneous(REAL_P, max_load=0)
        #: total work / P: the wall time of a perfect parallel run
        self.ideal_s = loop.total_work / REAL_P
        table = loop.work_table()
        stride = max(1, int(loop.total_work / SERIAL_SLICE_S))
        self._slice = [table.cost(j)
                       for j in range(0, loop.n_iterations, stride)]
        self._slice_before = 0.0
        self.prepare()

    def _time_slice(self) -> float:
        """Burn a strided sample of the loop's iterations serially."""
        rate = calibrate_ops_rate()
        t0 = time.perf_counter()
        for cost in self._slice:
            burn_ops(cost * rate)
        return time.perf_counter() - t0

    def prepare(self) -> None:
        """Re-price the op-count kernel at the host's speed of the moment.

        ``calibrate_ops_rate`` caches its rate for the life of the
        process, and workers inherit it.  On a host whose speed changes
        every few seconds a stale rate makes every iteration 25% long
        or short; refreshing it (untimed) before each repetition keeps
        an iteration near its nominal cost, so ``wall_s`` measures the
        coordination around the compute, not the host.  The rate is the
        best of :data:`CALIBRATION_REPEATS` samples: with the default 3
        a slow moment under-prices the whole repetition, which then
        finishes *below* its ideal time and is what a fast quartile
        picks.
        """
        if not self.deadline_kernel:
            calibrate_ops_rate(repeats=CALIBRATION_REPEATS, fresh=True)
            self._slice_before = self._time_slice()

    def serial_s(self) -> float:
        """The same iterations, same kernel, one plain process: seconds.

        Call right after a repetition.  ``speedup`` needs the serial
        time at the *same* host speed as the parallel run, so for an
        op-count kernel it is scaled up from the serial slices burnt
        just before (:meth:`prepare`) and just after the repetition.
        """
        if self.deadline_kernel:
            return self.loop.total_work
        took = (self._slice_before + self._time_slice()) / 2
        return took * self.loop.total_work / sum(self._slice)

    def _run(self, loop: LoopSpec, strategy: str):
        stats = repro.run_loop(loop, self.cluster, strategy, RunOptions(),
                               backend=self.make_backend())
        verify_coverage(stats, loop.n_iterations)
        return stats

    def warm_up(self) -> None:
        self.repeat(_no_lap)

    def repeat(self, lap) -> dict:
        stats = self._run(self.loop, self.STRATEGY)
        return {"virtual_s": float(stats.duration), **_counters(stats)}

    def null_run_s(self) -> float:
        """Start-up + teardown floor: a P-iteration, 0.1 ms, NONE loop."""
        loop = LoopSpec("null", REAL_P, 1e-4, dc_bytes=self.loop.dc_bytes)
        t0 = time.perf_counter()
        self._run(loop, "NONE")
        return time.perf_counter() - t0


def _skew_loop(seed: int, quick: bool) -> LoopSpec:
    """Cost rises 15x across the loop, so equal blocks start unbalanced."""
    n = QUICK_ITERATIONS if quick else 256
    rng = random.Random(seed)
    costs = tuple((0.2e-3 + 2.8e-3 * j / n) * rng.uniform(0.8, 1.2)
                  for j in range(n))
    return LoopSpec("skew", n, costs, dc_bytes=4096)


def _uniform_loop(quick: bool) -> LoopSpec:
    return LoopSpec("uniform", QUICK_ITERATIONS if quick else 200, 0.01,
                    dc_bytes=1024)


def _thread():
    return ThreadBackend(kernel="wall")


def _process():
    return ProcessBackend(kernel="ops")


def _socket():
    return SocketBackend(workers="tasks")


#: name -> builder(seed, quick).  Order is the order of BENCHMARK.json.
WORKLOADS = {
    "sim_bus_p1024": lambda seed, quick: SimLoopCase(
        seed, quick, processors=1024, strategy="LCDLB", topology=None,
        group_size=32),
    "sim_torus_p256": lambda seed, quick: SimLoopCase(
        seed, quick, processors=256, strategy="LCDLB", topology="torus",
        group_size=32, realizations=4),
    "sim_diff_p64": lambda seed, quick: SimLoopCase(
        seed, quick, processors=64, strategy="DIFF", topology="torus",
        group_size=0),
    "sim_paper_grid": PaperGridCase,
    "thread_skew_p2": lambda seed, quick: RealLoopCase(
        _skew_loop(seed, quick), "thread", _thread, deadline_kernel=True),
    "process_skew_p2": lambda seed, quick: RealLoopCase(
        _skew_loop(seed, quick), "process", _process, deadline_kernel=False),
    "socket_skew_p2": lambda seed, quick: RealLoopCase(
        _skew_loop(seed, quick), "socket", _socket, deadline_kernel=True),
    "process_uniform_p2": lambda seed, quick: RealLoopCase(
        _uniform_loop(quick), "process", _process, deadline_kernel=False),
}
