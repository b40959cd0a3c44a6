"""One workload in one fresh process; run.py starts it and reads its lines.

Prints one JSON object per line on stdout: ``ready`` when set-up is done
(``import repro``, input generation, kernel calibration, one warm-up
run — the parent times it from process start), one ``rep`` per
repetition as it finishes (the parent's watchdog listens for these;
each carries the process's peak RSS so far), and ``done`` with the
layer metrics of a traced pass.  A repetition that raises or fails
verification is reported with an ``error`` and the pass goes on.

The load is closed-loop with one client: a repetition starts when the
previous one has returned.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import sys
import threading
import time

from reference import at_reference_speed, reference_s

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Null runs behind ``backend.null_run_s`` (2 with ``--quick``).
NULL_RUNS = 8

#: Seconds of work ``kernels.calibration_err`` times against the rate.
CALIBRATION_SECONDS = 0.05


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Stopwatch:
    """Times a repetition in laps, each between two reference spins.

    The host's speed drifts within a second, so a long CPU-bound
    repetition is scaled piece by piece: ``laps`` holds each lap's CPU
    seconds at the reference speed its two neighbouring spins saw,
    ``scaled_s`` their sum.  ``raw_s`` is what the wall clock said
    (spins excluded).  Off (``cpu_bound`` false), there is one lap and
    both are the plain elapsed time.
    """

    def __init__(self, cpu_bound: bool) -> None:
        self.cpu_bound = cpu_bound
        self.raw_s = 0.0
        self.laps: list[float] = []
        self.spin = reference_s() if cpu_bound else None
        self.cpu0 = time.process_time()
        self.t0 = time.perf_counter()

    def lap(self) -> None:
        lap_s = time.perf_counter() - self.t0
        self.raw_s += lap_s
        if self.cpu_bound:
            cpu_s = time.process_time() - self.cpu0
            spin = reference_s()
            self.laps.append(at_reference_speed(cpu_s, self.spin, spin))
            self.spin = spin
        else:
            self.laps.append(lap_s)
        self.cpu0 = time.process_time()
        self.t0 = time.perf_counter()

    @property
    def scaled_s(self) -> float:
        return sum(self.laps)


def repeat(case, traced: bool = False) -> dict:
    """One timed repetition, reported on stdout; returns its facts.

    ``wall_s`` of a CPU-bound (simulated) case is at reference speed
    (bench/reference.py); ``wall_raw_s`` is what the clock said.
    """
    case.prepare()
    watch = Stopwatch(case.cpu_bound)
    try:
        facts = case.repeat(watch.lap)
    except Exception as exc:  # reported, counted as failed by the parent
        facts = {"error": f"{type(exc).__name__}: {exc}"}
    watch.lap()
    if "error" not in facts and "speedup" not in facts:
        facts["serial_s"] = case.serial_s()
        facts["speedup"] = facts["serial_s"] / watch.raw_s
    facts.update(traced=traced, wall_s=watch.scaled_s, laps=watch.laps,
                 wall_raw_s=watch.raw_s, rss_mb=peak_rss_mb())
    emit("rep", **facts)
    return facts


def repeat_until(case, deadline: float, min_reps: int,
                 traced: bool = False) -> list[dict]:
    """Repeat until the next repetition would end past ``deadline``;
    the facts of the repetitions that succeeded."""
    done: list[dict] = []
    while True:
        done.append(repeat(case, traced))
        if len(done) >= min_reps and \
                time.perf_counter() + done[-1]["wall_raw_s"] > deadline:
            return [facts for facts in done if "error" not in facts]


def trace_pass(case, name: str, seconds: float, quick: bool) -> dict:
    """Untraced reference repetitions, then traced ones; layer metrics."""
    import tracing  # bench/tracing.py: first import is here, after set-up

    start = time.perf_counter()
    plain = repeat_until(case, start + seconds / 3, min_reps=1)
    layers: dict[str, float] = {}
    real = case.backend != "sim"
    if real and plain:
        layers.update(backend_rows(case, plain, quick))

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = repeat_until(case, start + seconds, min_reps=1, traced=True)
    finally:
        tracer.uninstall()
    if not plain or not traced:
        return layers
    reps = len(traced)
    agg = tracer.aggregate()
    layers.update(tracing.layer_metrics(agg, reps))
    for key, column in (("network.messages", "messages"),
                        ("network.bytes", "bytes"),
                        ("protocol.syncs", "syncs"),
                        ("protocol.redistributions", "redistributions")):
        layers[key] = statistics.fmean(f[column] for f in traced)
    nominal = sum(rec[3] for (span, _), rec in agg.items()
                  if span.startswith("kernels."))
    busy = layers["kernels.busy_s"] * reps
    layers["kernels.useful_frac"] = nominal / busy if busy else 0.0
    layers["trace.overhead_ratio"] = \
        statistics.median(f["wall_s"] for f in traced) / \
        statistics.median(f["wall_s"] for f in plain)
    main = threading.main_thread().name
    layers["trace.coverage"] = tracer.root_seconds(main) / \
        sum(f["wall_raw_s"] for f in traced)
    for key in ("order_agreement", "custom_regret"):
        layers[key] = traced[-1].get(key, 0.0)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{name}.json").write_text(
        json.dumps(tracing.trace_document(tracer, name, reps), indent=1))
    return layers


def backend_rows(case, plain: list[dict], quick: bool) -> dict:
    """The ``backend.*`` decomposition of an untraced real-backend run."""
    from repro.backend.kernels import burn_ops, calibrate_ops_rate

    wall_s = statistics.median(f["wall_s"] for f in plain)
    null_s = statistics.median(
        case.null_run_s() for _ in range(2 if quick else NULL_RUNS))
    overhead_s = wall_s - case.ideal_s - null_s
    syncs = statistics.fmean(f["syncs"] for f in plain)
    rows = {
        "backend.ideal_s": case.ideal_s,
        "backend.null_run_s": null_s,
        "backend.coord_overhead_s": overhead_s,
        "backend.ms_per_sync": overhead_s / syncs * 1e3 if syncs else 0.0,
        "backend.transport_bytes":
            statistics.fmean(f["transport_bytes"] for f in plain),
        "backend.shm_bytes":
            statistics.fmean(f["shm_bytes"] for f in plain),
    }
    if case.backend == "process":
        rate = calibrate_ops_rate()
        t0 = time.perf_counter()
        burn_ops(CALIBRATION_SECONDS * rate)
        took = time.perf_counter() - t0
        rows["kernels.ops_rate"] = rate
        rows["kernels.calibration_err"] = \
            abs(took - CALIBRATION_SECONDS) / CALIBRATION_SECONDS
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    spin = reference_s()
    import repro
    import workloads

    case = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    case.warm_up()
    # CPU seconds of this process so far (interpreter start included,
    # the spin excluded) at reference speed; the parent uses it for
    # CPU-bound cases and its own stopwatch for the others.
    setup_cpu_s = at_reference_speed(time.process_time() - spin, spin,
                                     reference_s())
    emit("ready", backend=case.backend, cpu_bound=case.cpu_bound,
         setup_cpu_s=setup_cpu_s)
    if args.setup_only:
        return 0
    layers = None
    if args.trace:
        layers = trace_pass(case, args.workload, args.seconds, args.quick)
    else:
        repeat_until(case, time.perf_counter() + args.seconds,
                     min_reps=1 if args.quick else 3)
    emit("done", layers=layers, repro_version=repro.__version__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
