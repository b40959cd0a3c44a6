"""The repo's benchmark: ``python3 bench/run.py [--workload NAME ...]``.

One invocation is one *pass* over the chosen workloads (default: all
eight of ``BENCHMARK.json``), each in a fresh subprocess
(``bench/child.py``):

* ``--trace 0`` (default) — the end-to-end pass, no wrappers installed:
  ``setup_s``, ``wall_s``, ``virtual_s``, ``speedup``, ``peak_rss_mb``
  over the repetitions that fit in ``--seconds``;
* ``--trace 1`` (or a bare ``--trace``) — the traced pass: the
  per-layer metrics, from span wrappers installed by ``bench/tracing.py``.

Every metric is printed by name with its unit, and the last line for
each workload is the JSON object the benchmark contract asks for.
``--out FILE`` also writes (or merges into) one JSON document that
``bench/compare.py`` reads.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A set-up or a repetition silent for this long is killed and counted
#: as failed (ROADMAP records a 4-minute process-backend hang).
WATCHDOG_SECONDS = 60.0

#: Fresh-process set-ups timed per end-to-end run.
SETUP_SAMPLES = 3

#: Facts of a simulated repetition that must not differ between two
#: repetitions of one seed, traced or not.
DETERMINISTIC = ("virtual_s", "messages", "syncs")

UNITS = {m["name"]: m["unit"]
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository


def environment(args) -> dict:
    import multiprocessing
    methods = multiprocessing.get_all_start_methods()
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc(),
        # what ProcessBackend(start_method=None) resolves to
        "start_method": "fork" if "fork" in methods else methods[0],
        "loadavg_1min": os.getloadavg()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
    }


class Child:
    """A ``bench/child.py`` process and the lines it prints."""

    def __init__(self, workload: str, args, *, setup_only: bool) -> None:
        command = [sys.executable, str(BENCH / "child.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        if setup_only:
            command.append("--setup-only")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
        self.started = time.perf_counter()
        # Its own session, so the watchdog can kill the backend's worker
        # processes along with it.
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True, env=env,
                                     start_new_session=True)
        self.lines: queue.Queue = queue.Queue()
        self.stalled = False
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def next_event(self):
        """The next JSON line, ``None`` at end of output or on a stall."""
        try:
            line = self.lines.get(timeout=WATCHDOG_SECONDS)
        except queue.Empty:
            print(f"watchdog: child silent for {WATCHDOG_SECONDS:.0f} s, "
                  "killing it", file=sys.stderr)
            self.stalled = True
            return None
        return json.loads(line) if line is not None else None

    def setup_s(self, ready: dict) -> float:
        """Process start to ``ready``: the child's CPU seconds at
        reference speed if it is CPU-bound, else this stopwatch."""
        if ready["cpu_bound"]:
            return ready["setup_cpu_s"]
        return time.perf_counter() - self.started

    def close(self) -> None:
        """Kill whatever is left of the child's process group; reap it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


def time_setup(workload: str, args) -> float | None:
    """Seconds from process start to ``ready`` in a set-up-only child."""
    child = Child(workload, args, setup_only=True)
    try:
        event = child.next_event()
        if event is None or event["event"] != "ready":
            return None
        return child.setup_s(event)
    finally:
        child.close()


def run_workload(workload: str, args) -> dict | None:
    """One pass of one workload; ``None`` when it produced no result."""
    child = Child(workload, args, setup_only=False)
    setups, reps, done, backend = [], [], None, None
    try:
        while (event := child.next_event()) is not None:
            if event["event"] == "ready":
                setups.append(child.setup_s(event))
                backend = event["backend"]
            elif event["event"] == "rep":
                reps.append(event)
            else:
                done = event
    finally:
        child.close()
    if child.stalled:
        reps.append({"error": "watchdog: no progress for "
                              f"{WATCHDOG_SECONDS:.0f} s"})
    elif done is None:
        reps.append({"error": f"child exited with {child.proc.returncode}"})

    good = [r for r in reps if "error" not in r]
    if backend == "sim" and good:
        for rep in good:
            drift = [k for k in DETERMINISTIC if rep[k] != good[0][k]]
            if drift:
                rep["error"] = f"not deterministic: {', '.join(drift)}"
        good = [r for r in good if "error" not in r]
    for rep in reps:
        if "error" in rep:
            print(f"  FAILED repetition: {rep['error']}", file=sys.stderr)
    if not good:
        return None

    record = {"backend": backend, "attempted": len(reps),
              "failed": len(reps) - len(good)}
    failed_frac = record["failed"] / record["attempted"]
    if args.trace:
        if done is None or not done["layers"]:
            return None
        record["layers"] = {**done["layers"], "failed_frac": failed_frac}
        return record

    if not args.quick and not child.stalled:
        for _ in range(SETUP_SAMPLES - 1):
            sample = time_setup(workload, args)
            if sample is not None:
                setups.append(sample)
    samples = {"setup_s": setups,
               "wall_s": [r["wall_s"] for r in good],
               "wall_raw_s": [r["wall_raw_s"] for r in good],
               "virtual_s": [r["virtual_s"] for r in good],
               "speedup": [r["speedup"] for r in good],
               "peak_rss_mb": [good[-1]["rss_mb"]],
               "failed_frac": [failed_frac]}
    # order_agreement and custom_regret: the grid only (BENCHMARK.json
    # declares them, and failed_frac, under per_layer: an end_to_end
    # metric must be non-zero on every workload).
    for key in ("order_agreement", "custom_regret"):
        if key in good[0]:
            samples[key] = [good[0][key]]
    e2e = record["e2e"] = {name: summary(values)
                           for name, values in samples.items()}
    # A repetition timed in laps (sim_*): each lap has its own fast
    # quartile over the repetitions, and the repetition is their sum.
    e2e["wall_s"]["value"] = sum(
        fast_quartile(lap) for lap in zip(*(r["laps"] for r in good)))
    if "serial_s" in good[0]:
        # A ratio's noise is two-sided, so its own fast quartile would
        # flatter it: divide the fast quartiles of the two times instead.
        e2e["speedup"]["value"] = \
            fast_quartile([r["serial_s"] for r in good]) / \
            e2e["wall_raw_s"]["value"]
    record["counts"] = {k: good[0][k] for k in ("messages", "syncs")}
    return record


def fast_quartile(samples) -> float:
    """q1 of ``samples`` (the sample itself when there is only one)."""
    return statistics.quantiles(samples, n=4)[0] if len(samples) > 1 \
        else samples[0]


def summary(samples: list[float]) -> dict:
    """What is reported for one metric: its *fast* quartile, q1.

    On a time-shared host interference only ever adds time, so the
    fast quartile of a run's repetitions repeats from run to run where
    their median does not (bench/README.md, "Steadiness").  The median,
    both quartiles and the samples themselves go into the output
    document too (compare.py's 'every run better than every run' rule
    needs the samples).  Simulated metrics repeat exactly, so for them
    every one of these is the same number.
    """
    q1 = fast_quartile(samples)
    q3 = statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else q1
    return {"value": q1, "median": statistics.median(samples), "q1": q1,
            "q3": q3, "n": len(samples), "samples": samples}


def report(workload: str, record: dict, trace: int) -> None:
    """Every metric by name and unit, then the contract's JSON line."""
    print(f"{workload} [{record['backend']}] "
          f"{'traced' if trace else 'end-to-end'} pass: "
          f"{record['attempted']} repetitions, {record['failed']} failed")
    if trace:
        metrics = {name: {"value": float(record["layers"].get(name, 0.0)),
                          "unit": UNITS[name]}
                   for name in (m["name"] for m in SPEC["per_layer"])}
        for name, metric in metrics.items():
            print(f"  {name:28s} {metric['value']:16.6f} {metric['unit']}")
    else:
        for name, s in record["e2e"].items():
            line = (f"  {name:28s} {s['value']:16.6f} "
                    f"{UNITS.get(name, 's'):8s}"
                    f" median {s['median']:.6f} q1 {s['q1']:.6f}"
                    f" q3 {s['q3']:.6f} n={s['n']}")
            # The highest percentile with ten samples beyond it; shown,
            # never gated (a stall is a watchdog failure instead).
            tail = 100 * (s["n"] - 10) // s["n"]
            if name == "wall_s" and tail > 50:
                cut = sorted(s["samples"])[s["n"] - 11]
                line += f" p{tail} {cut:.6f}"
            print(line)
        metrics = {m["name"]: {"value": record["e2e"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}),
          flush=True)


def write_out(path: pathlib.Path, env: dict, records: dict, trace: int) -> None:
    """Merge this pass into ``path``: one document holds both passes."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("env", {})["trace" if trace else "e2e"] = env
    for workload, record in records.items():
        doc.setdefault("workloads", {}).setdefault(workload, {}).update(
            {k: v for k, v in record.items()
             if k not in ("attempted", "failed")})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7,
                        help="all inputs derive from it (default 7)")
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="measuring window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced per-layer pass")
    parser.add_argument("--quick", action="store_true",
                        help="1 repetition, P <= 64, 64 iterations (tests)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write / merge the pass into this JSON file")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.quick:
        args.seconds = 0.0  # one repetition, whatever it takes

    env = environment(args)
    if env["nproc"] < 2:
        print(f"bench: {env['nproc']} usable core(s); the *_p2 workloads "
              "need 2 or they measure the scheduler, not the program",
              file=sys.stderr)
        return 2
    if env["loadavg_1min"] > env["nproc"] / 2:
        print(f"bench: warning: 1-min load average {env['loadavg_1min']:.2f}"
              f" > nproc/2; timings will be noisy", file=sys.stderr)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found next to bench/", file=sys.stderr)
        return 1

    records, missing = {}, []
    for workload in args.workload or names:
        record = run_workload(workload, args)
        if record is None:
            print(f"{workload}: no result", file=sys.stderr)
            missing.append(workload)
            continue
        records[workload] = record
        report(workload, record, args.trace)
    if args.out is not None:
        write_out(args.out, env, records, args.trace)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
