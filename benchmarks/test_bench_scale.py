"""Large-P DES sweeps (``BENCH_scale.json``).

Seeded simulations at P=64..1024 on bus/ring/torus using the *local*
schemes (LCDLB/LDDLB with bounded group size) plus neighbour-local
diffusion.  Global schemes broadcast P×(P-1) termination interrupts, so
they are inherently quadratic — exactly the paper's §6 argument for
local/customized strategies at scale; the sweep runs the strategies that
are *supposed* to scale.  Each case records the simulated duration and
the sync and message counts, and what the run cost the engine in
counts: its events (``engine_events``), the times it handed control
to a simulated process (``resumes``) and the worker protocol's pump
turns (``protocol_turns``), counted by wrapping ``Environment.step``,
``Process._resume`` and ``WorkerProtocol.on_event`` here, not in the
engine.  One global case, GDDLB on a bus of 64, is there for its
gathers: each sync, every worker gathers 63 profiles.
All exact given the seed, so the document is byte-reproducible and the
gate holds every number in it.  What the engine costs in host seconds
is ``bench/run.py``'s ``sim_bus_p1024`` / ``sim_torus_p256`` ``wall_s``.
"""

import json
import pathlib

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.protocol import WorkerProtocol
from repro.runtime.options import RunOptions
from repro.simulation import Environment, Process

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_scale.json"

#: name -> (P, strategy, topology, group_size).  Local schemes with a
#: bounded group keep sync traffic O(P*k); a DIFF sweep costs O(|E|)
#: one-hop messages, 4 P on a torus.
DES_CASES = {
    "bus-P64-LCDLB": (64, "LCDLB", None, 32),
    "bus-P256-LCDLB": (256, "LCDLB", None, 32),
    "bus-P1024-LCDLB": (1024, "LCDLB", None, 32),
    "bus-P64-GDDLB": (64, "GDDLB", None, 0),
    "ring-P256-LDDLB": (256, "LDDLB", "ring", 16),
    "torus-P256-LCDLB": (256, "LCDLB", "torus", 32),
    "torus-P256-DIFF": (256, "DIFF", "torus", 0),
    "torus-P1024-DIFF": (1024, "DIFF", "torus", 0),
}


def _counted_run(loop, cluster, strategy, options):
    """``run_loop`` plus its engine events, process resumes and worker
    pump turns."""
    counts = {"engine_events": 0, "resumes": 0, "protocol_turns": 0}
    step, resume = Environment.step, Process._resume
    on_event = WorkerProtocol.on_event

    def counted_step(env):
        counts["engine_events"] += 1
        step(env)

    def counted_resume(proc, event):
        counts["resumes"] += 1
        resume(proc, event)

    def counted_on_event(proto, event):
        counts["protocol_turns"] += 1
        return on_event(proto, event)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Environment, "step", counted_step)
        patch.setattr(Process, "_resume", counted_resume)
        patch.setattr(WorkerProtocol, "on_event", counted_on_event)
        stats = run_loop(loop, cluster, strategy, options)
    return stats, counts


def _des_sweep():
    cases = {}
    for name, (p, strategy, topology, k) in DES_CASES.items():
        loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
        cluster = ClusterSpec.homogeneous(p, max_load=3,
                                          persistence=1.0, seed=7)
        options = RunOptions(topology=topology, group_size=k)
        stats, counts = _counted_run(loop, cluster, strategy, options)
        cases[name] = {
            "n_processors": p,
            "strategy": strategy,
            "virtual_duration": stats.duration,
            "syncs": stats.n_syncs,
            "messages": stats.network_messages,
            **counts,
        }
    return cases


def test_bench_scale(benchmark):
    doc = benchmark.pedantic(
        lambda: {"workload": "mxm 64x32x32", "des": _des_sweep()},
        rounds=1, iterations=1)

    print()
    for name, row in doc["des"].items():
        print(f"  des {name}: {row['virtual_duration']:.4f} virtual s, "
              f"{row['syncs']} syncs, {row['messages']} msgs, "
              f"{row['engine_events']} events, {row['resumes']} resumes, "
              f"{row['protocol_turns']} turns")
        assert row["virtual_duration"] > 0, (name, row)

    OUT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
