"""TRFD: a two-loop application with an intervening sequential stage.

TRFD (Perfect Benchmarks) has two computation loop nests separated by a
sequentialized transpose.  Each loop is load balanced independently —
and, as the paper's Table 2 shows, the *best* strategy can differ
between the two loops of the same program.  Loop 2 is triangular and is
made near-uniform with bitonic scheduling.

Run with::

    python examples/trfd_pipeline.py
"""

from statistics import mean, pstdev

from repro import ClusterSpec, TrfdConfig, run_application, trfd_application
from repro.apps.trfd import bitonic_pair_costs, loop2_iteration_ops


def main() -> None:
    config = TrfdConfig(n=30)
    app = trfd_application(config, op_seconds=3e-7)

    raw = loop2_iteration_ops(config)
    paired = bitonic_pair_costs(raw)
    print(f"TRFD N={config.n}: array {config.m} x {config.m}")
    print(f"loop 2 raw cost spread:     {min(raw):.0f}..{max(raw):.0f} ops "
          f"(cv {pstdev(raw) / mean(raw):.2f})")
    print(f"loop 2 bitonic cost spread: {min(paired):.0f}..{max(paired):.0f}"
          f" ops (cv {pstdev(paired) / mean(paired):.3f})\n")

    cluster = ClusterSpec.homogeneous(8, max_load=5, persistence=5.0,
                                      seed=11)
    per_loop: dict[str, dict[str, float]] = {}
    for scheme in ("NONE", "GCDLB", "GDDLB", "LCDLB", "LDDLB"):
        stats = run_application(app, cluster, scheme)
        print(stats.summary())
        for ls in stats.loop_stats:
            per_loop.setdefault(ls.loop_name, {})[scheme] = ls.duration
    print()
    for loop_name, times in per_loop.items():
        order = sorted((t, s) for s, t in times.items() if s != "NONE")
        ranked = " < ".join(s for _t, s in order)
        print(f"{loop_name}: best-to-worst {ranked} "
              f"(static: {times['NONE']:.2f} s)")


if __name__ == "__main__":
    main()
