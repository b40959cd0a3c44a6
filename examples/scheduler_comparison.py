"""DLB vs. the task-queue schedulers of the related work (§2.2).

The classic loop schedulers assume a cheap central queue — fine on
shared memory, expensive on a network of workstations where every grab
is a message round trip.  This script runs the seven chunk rules of
``repro.schedulers`` (self-scheduling, chunking, GSS, factoring,
trapezoid, safe self-scheduling and static) and affinity scheduling
with NOW-realistic access costs against the paper's interrupt-based DLB
schemes under the same external load.

Run with::

    python examples/scheduler_comparison.py
"""

import numpy as np

from repro import ClusterSpec, run_loop
from repro.apps import MxmConfig, mxm_loop
from repro.network import PAPER_LATENCY_S
from repro.schedulers import ALL_POLICIES, run_affinity, run_task_queue


def main() -> None:
    loop = mxm_loop(MxmConfig(r=240, c=200, r2=200), op_seconds=4e-7)
    seeds = range(5)

    def clusters():
        for seed in seeds:
            yield ClusterSpec.homogeneous(4, max_load=5, persistence=5.0,
                                          seed=300 + seed)

    print(f"loop: {loop.n_iterations} iterations x "
          f"{loop.iteration_time * 1e3:.1f} ms; central-queue access cost "
          f"= one PVM round trip ({2 * PAPER_LATENCY_S * 1e3:.1f} ms)\n")

    rows = []
    for policy in ALL_POLICIES():
        times = [run_task_queue(loop, c, policy,
                                access_cost=2 * PAPER_LATENCY_S
                                ).finish_time
                 for c in clusters()]
        rows.append((float(np.mean(times)), f"queue/{policy.name}"))

    times = [run_affinity(loop, c, access_cost=50e-6,
                          steal_cost=2 * PAPER_LATENCY_S).finish_time
             for c in clusters()]
    rows.append((float(np.mean(times)), "queue/affinity"))

    for scheme in ("NONE", "GCDLB", "GDDLB", "LCDLB", "LDDLB"):
        times = [run_loop(loop, c, scheme).duration for c in clusters()]
        rows.append((float(np.mean(times)), f"dlb/{scheme}"))

    rows.sort()
    best = rows[0][0]
    print(f"{'scheduler':<28s} {'mean time':>10s} {'vs best':>8s}")
    for mean, name in rows:
        print(f"{name:<28s} {mean:>9.2f}s {mean / best:>7.2f}x")


if __name__ == "__main__":
    main()
