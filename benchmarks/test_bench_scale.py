"""Large-P DES sweeps and the multi-core speedup matrix.

Two halves, one document (``BENCH_scale.json``):

* **des** — seeded simulations at P=64..1024 on bus/ring/torus using the
  *local* schemes (LCDLB/LDDLB with bounded group size) plus
  neighbour-local diffusion.  Global schemes broadcast P×(P-1) termination
  interrupts, so they are inherently quadratic — exactly the paper's §6
  argument for local/customized strategies at scale; the sweep runs the
  strategies that are *supposed* to scale.  Each case records the
  deterministic simulated duration (gated strictly — it only moves when
  the model changes) and the wall-clock time the optimized engine took
  (advisory; shared runners are noisy).  The P=1024 bus case carries
  the acceptance budget: under 10 s of wall time.
* **matrix** — the same fixed real workload run at 2/4/8 workers on the
  thread and process backends under the wall, ops, and numpy kernels.
  All kernels burn the same *nominal seconds of work* per iteration
  (each is separately calibrated), so wall times compare across cells:
  ``thread/ops`` is the GIL-serialized baseline, ``process/ops`` shows
  multi-core speedup from real processes, ``thread/numpy`` shows the
  GIL released inside vectorized passes, and ``process/numpy`` computes
  in place on the shared-memory rows.  The >= 1.5x speedup assertion at
  4 workers arms only when ``os.cpu_count()`` provides the cores.
"""

import json
import os
import pathlib
import time

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.workload import LoopSpec
from repro.backend import ProcessBackend, ThreadBackend
from repro.runtime.options import RunOptions

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_scale.json"

#: name -> (P, strategy, topology, group_size).  Local schemes with a
#: bounded group keep sync traffic O(P*k); a DIFF sweep costs O(|E|)
#: one-hop messages, 4 P on a torus.
DES_CASES = {
    "bus-P64-LCDLB": (64, "LCDLB", None, 32),
    "bus-P256-LCDLB": (256, "LCDLB", None, 32),
    "bus-P1024-LCDLB": (1024, "LCDLB", None, 32),
    "ring-P256-LDDLB": (256, "LDDLB", "ring", 16),
    "torus-P256-LCDLB": (256, "LCDLB", "torus", 32),
    "torus-P256-DIFF": (256, "DIFF", "torus", 0),
    "torus-P1024-DIFF": (1024, "DIFF", "torus", 0),
}

#: Acceptance budget for the flagship case (ISSUE 8): a seeded P=1024
#: bus sweep must finish in seconds, not minutes.
P1024_CASE = "bus-P1024-LCDLB"
P1024_BUDGET_SECONDS = float(os.environ.get("REPRO_SCALE_BUDGET", "10"))

WORKER_COUNTS = (2, 4, 8)
MATRIX_STRATEGY = "GCDLB"

#: (backend, kernel) cells; the wall kernel is thread-only (process
#: workers always burn real CPU work).
MATRIX_CELLS = (
    ("thread", "wall"),
    ("thread", "ops"),
    ("thread", "numpy"),
    ("process", "ops"),
    ("process", "numpy"),
)

#: Per-worker slice of the matrix workload: enough iterations that the
#: balancer syncs, short enough that a full 3x5 matrix stays CI-sized.
ITERS_PER_WORKER = 16
ITERATION_SECONDS = 0.01
DC_BYTES = 1024  # 127 float64s of row payload for the numpy kernel


def _des_sweep():
    cases = {}
    for name, (p, strategy, topology, k) in DES_CASES.items():
        loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
        cluster = ClusterSpec.homogeneous(p, max_load=3,
                                          persistence=1.0, seed=7)
        options = RunOptions(topology=topology, group_size=k)
        t0 = time.perf_counter()
        stats = run_loop(loop, cluster, strategy, options)
        wall = time.perf_counter() - t0
        cases[name] = {
            "n_processors": p,
            "strategy": strategy,
            "virtual_duration": stats.duration,
            "wall_seconds": wall,
            "syncs": stats.n_syncs,
            "messages": stats.network_messages,
        }
    return cases


def _matrix_loop(workers: int) -> LoopSpec:
    return LoopSpec(name=f"scale-{workers}w",
                    n_iterations=ITERS_PER_WORKER * workers,
                    iteration_time=ITERATION_SECONDS, dc_bytes=DC_BYTES)


def _backend(backend: str, kernel: str):
    if backend == "thread":
        return ThreadBackend(kernel=kernel)
    return ProcessBackend(kernel=kernel)


def _speedup_matrix():
    matrix = {}
    for workers in WORKER_COUNTS:
        loop = _matrix_loop(workers)
        cluster = ClusterSpec.homogeneous(workers, max_load=3,
                                          persistence=1.0, seed=7)
        row = {}
        for backend, kernel in MATRIX_CELLS:
            t0 = time.perf_counter()
            stats = run_loop(loop, cluster, MATRIX_STRATEGY, RunOptions(),
                             backend=_backend(backend, kernel))
            wall = time.perf_counter() - t0
            executed = sum(stats.executed_count(n)
                           for n in stats.executed_by_node)
            assert executed == loop.n_iterations
            row[f"{backend}_{kernel}_wall_seconds"] = wall
        matrix[str(workers)] = row
    return matrix


def _speedups(matrix):
    """Wall-clock ratios against the GIL-serialized thread/ops cell."""
    out = {}
    for workers, row in matrix.items():
        serial = row["thread_ops_wall_seconds"]
        out[workers] = {
            # Real processes on real cores vs GIL-serialized threads.
            "process_ops": serial / row["process_ops_wall_seconds"],
            # Same, with the compute vectorized into the shm rows.
            "process_numpy": serial / row["process_numpy_wall_seconds"],
            # Threads overlapping because numpy releases the GIL.
            "thread_numpy": serial / row["thread_numpy_wall_seconds"],
        }
    return out


def test_bench_scale(benchmark):
    def run():
        doc = {
            "cpu_count": os.cpu_count(),
            "workload": f"mxm 64x32x32 (des) / "
                        f"{ITERS_PER_WORKER}x{ITERATION_SECONDS}s "
                        f"per worker (matrix)",
            "des": _des_sweep(),
            "matrix": _speedup_matrix(),
        }
        doc["speedup"] = _speedups(doc["matrix"])
        doc["best_speedup_at_4"] = max(doc["speedup"]["4"].values())
        return doc

    doc = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    for name, row in doc["des"].items():
        print(f"  des {name}: {row['wall_seconds']:6.2f} s wall, "
              f"{row['virtual_duration']:.4f} virtual s, "
              f"{row['messages']} msgs")
    for workers, ratios in doc["speedup"].items():
        cells = ", ".join(f"{k} {v:.2f}x" for k, v in sorted(ratios.items()))
        print(f"  matrix {workers}w: {cells}")

    p1024_wall = doc["des"][P1024_CASE]["wall_seconds"]
    assert p1024_wall < P1024_BUDGET_SECONDS, (
        f"P=1024 bus sweep took {p1024_wall:.1f}s "
        f"(budget {P1024_BUDGET_SECONDS}s)")

    cpus = doc["cpu_count"] or 1
    if cpus >= 4:
        # Acceptance: real multi-core speedup at 4 workers.  On fewer
        # cores the physics caps every ratio near 1x; the recorded
        # numbers still track trends (the bench gate skips the speedup
        # comparison on such runners — see tools/bench_gate.py).
        assert doc["best_speedup_at_4"] >= 1.5, doc["speedup"]
    else:
        print(f"  [speedup assertion skipped: {cpus} CPU(s) < 4]")

    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    benchmark.extra_info["best_speedup_at_4"] = doc["best_speedup_at_4"]
    benchmark.extra_info["p1024_wall_seconds"] = p1024_wall
