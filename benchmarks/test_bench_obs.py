"""Observability overhead: the zero-cost gate for structured tracing.

One seeded P=512 DES run, untraced and traced; three claims:

* **Zero perturbation** — the two runs record *identical* virtual
  durations.  Every simulation instrumentation site is a pure function
  call inside an existing callback (no new DES events, no clock reads of
  its own), so enabling the recorder cannot move the event schedule; the
  equality is asserted bit-for-bit here, and both durations and the
  event counts are what ``BENCH_obs.json`` commits.
* **Disabled means free** — every instrumentation point holds the
  :data:`~repro.obs.trace.NULL_RECORDER` singleton by default, so a run
  that never asked for tracing pays one no-op method call per
  *potential* event.  The micro-benchmark times that call directly and
  asserts it stays in nanoseconds.
* **Enabled stays cheap** — the on/off wall ratio is printed, neither
  committed nor asserted: a single pair of sub-second runs reads 1.07x
  and 1.22x minutes apart on the same box.
"""

import json
import pathlib
import time

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.obs import NULL_RECORDER, TraceRecorder
from repro.runtime.options import RunOptions

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_obs.json"

#: The DES case: large enough that per-event recording would show up in
#: the schedule if it perturbed anything, bounded group size so the
#: sweep stays CI-sized (same shape as BENCH_scale's bus cases).
DES_P = 512
DES_STRATEGY = "LCDLB"
DES_GROUP = 32

#: Disabled-path budget: one NULL_RECORDER.event(...) call, nanoseconds.
#: A no-op bound method runs in tens of ns on any modern interpreter;
#: 2000 ns absorbs the slowest shared runner while still catching an
#: accidental "just a little formatting" on the disabled path.
NULL_CALL_BUDGET_NS = 2000.0
NULL_CALL_ROUNDS = 200_000


def _des_case(recorder):
    loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(DES_P, max_load=3,
                                      persistence=1.0, seed=7)
    options = RunOptions(group_size=DES_GROUP, recorder=recorder)
    t0 = time.perf_counter()
    stats = run_loop(loop, cluster, DES_STRATEGY, options)
    wall = time.perf_counter() - t0
    return stats, wall


def _null_call_ns() -> float:
    """Mean cost of one disabled-recorder call, in nanoseconds."""
    event = NULL_RECORDER.event
    t0 = time.perf_counter()
    for _ in range(NULL_CALL_ROUNDS):
        event("compute")
    return (time.perf_counter() - t0) / NULL_CALL_ROUNDS * 1e9


def test_bench_obs(benchmark):
    def run():
        stats_off, wall_off = _des_case(None)
        recorder = TraceRecorder(capacity=1 << 20)
        stats_on, wall_on = _des_case(recorder)
        doc = {
            "workload": f"mxm 64x32x32 P={DES_P} {DES_STRATEGY} "
                        f"k={DES_GROUP}",
            "des": {
                "n_processors": DES_P,
                "strategy": DES_STRATEGY,
                "virtual_duration_off": stats_off.duration,
                "virtual_duration_on": stats_on.duration,
                "events_recorded": len(recorder.events()),
                "events_dropped": recorder.dropped,
            },
        }
        return doc, wall_on / wall_off, _null_call_ns()

    doc, overhead_ratio, null_call_ns = benchmark.pedantic(
        run, rounds=1, iterations=1)

    des = doc["des"]
    print()
    print(f"  des traced/untraced wall {overhead_ratio:.2f}x, "
          f"{des['events_recorded']} events")
    print(f"  null call {null_call_ns:.0f} ns")

    # Zero perturbation: the virtual schedule must not move at all.
    assert des["virtual_duration_on"] == des["virtual_duration_off"], (
        "recording perturbed the simulation: "
        f"{des['virtual_duration_off']} -> {des['virtual_duration_on']}")
    assert des["events_recorded"] > 0
    assert des["events_dropped"] == 0

    # Disabled means free: a no-op call, in nanoseconds.
    assert null_call_ns < NULL_CALL_BUDGET_NS, (
        f"disabled recorder costs {null_call_ns:.0f} ns per call "
        f"(budget {NULL_CALL_BUDGET_NS:.0f} ns) — something crept onto "
        "the NullRecorder path")

    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
