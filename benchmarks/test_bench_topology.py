"""Topology benchmark: strategies across network graphs.

Runs the :func:`repro.experiments.sweeps.topology_sweep` matrix — the
eq.-3 global/local direct schemes plus diffusion on bus, ring, mesh and
torus — and lands the per-cell mean simulated durations in
``BENCH_topology.json`` for the regression gate.  The gated metrics are
*virtual* (simulated) seconds: deterministic given the seeds, so any
gate trip is a genuine model/protocol change, not runner noise.

The matrix runs at the paper's scale (P = 8, ``topologies``) and, on the
switched graphs, at P = 64 and P = 256 (``scale``), where neighbour-local
diffusion — a sweep costs O(|E|) one-hop messages — is measured against
schemes whose synchronization grows with the group.  The large-P rows
give the local scheme a bounded group (K = 16, as
``test_bench_scale.py`` does): with K = P/2, and for GD at all, one run
at P = 256 takes 10–140 s of host time, so GD stops at P = 64.
"""

import json
import pathlib

from repro.apps.mxm import MxmConfig, mxm_loop
from repro.experiments.sweeps import topology_sweep
from repro.runtime.options import RunOptions

CONFIG = MxmConfig(120, 100, 100)
N_PROCESSORS = 8
TOPOLOGIES = ("bus", "ring", "mesh", "torus")
SCHEMES = ("GD", "LD", "DIFF")
#: Large-P rows on the switched graphs: P -> schemes.
SCALE_TOPOLOGIES = ("ring", "mesh", "torus")
SCALE_SCHEMES = {64: ("GD", "LD", "DIFF"), 256: ("LD", "DIFF")}
SCALE_GROUP_SIZE = 16

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_topology.json"


def _run(bench_config):
    loop = mxm_loop(CONFIG, op_seconds=4e-7)
    result = topology_sweep(loop, N_PROCESSORS, topologies=TOPOLOGIES,
                            schemes=SCHEMES, config=bench_config)
    scale = {}
    bounded = RunOptions(policy=bench_config.policy,
                         network=bench_config.network,
                         group_size=SCALE_GROUP_SIZE)
    for p, schemes in SCALE_SCHEMES.items():
        sweep = topology_sweep(loop, p, topologies=SCALE_TOPOLOGIES,
                               schemes=schemes, config=bench_config,
                               options=bounded)
        for point in sweep.points:
            scale[f"{point.label}-P{p}"] = dict(point.means)
    doc = {
        "config": f"mxm {CONFIG.r}x{CONFIG.c}x{CONFIG.r2}",
        "n_processors": N_PROCESSORS,
        "seeds": bench_config.n_seeds,
        "topologies": {
            p.label: {s: p.means[s] for s in SCHEMES}
            for p in result.points
        },
        "scale_group_size": SCALE_GROUP_SIZE,
        "scale": scale,
    }
    return doc, result


def test_bench_topology(benchmark, bench_config):
    doc, result = benchmark.pedantic(
        lambda: _run(bench_config), rounds=1, iterations=1)

    print()
    print("  " + result.render().replace("\n", "\n  "))
    for name, row in sorted(doc["scale"].items()):
        print("  " + name + "  " + "  ".join(
            f"{scheme} {seconds:.4f}" for scheme, seconds in row.items()))
    for topology, row in {**doc["topologies"], **doc["scale"]}.items():
        # Simulated durations: positive and finite for every cell.
        assert all(v > 0 for v in row.values()), (topology, row)
    # Diffusion's transfers are single-hop by construction, so its cost
    # penalty relative to the winning direct scheme must stay bounded
    # on every graph (a factor regression here means the planner or the
    # transport charging broke).
    for topology, row in doc["topologies"].items():
        best_direct = min(row["GD"], row["LD"])
        assert row["DIFF"] < 10 * best_direct, (topology, row)
    # At scale its synchronization no longer grows with P: it beats the
    # global scheme outright, and from P = 256 the bounded-group local
    # scheme too (at P = 64 the two are within 10% of each other).
    for name, row in doc["scale"].items():
        assert row["DIFF"] < row.get("GD", float("inf")), (name, row)
        if name.endswith("-P256"):
            assert row["DIFF"] < row["LD"], (name, row)

    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {OUT_PATH.name}")
