"""Large-P smoke: the optimized DES at P=512 inside tier-1.

The full P=64..4096 sweeps live in ``benchmarks/test_bench_scale.py``;
this is the tier-1 canary (marker ``scale``) that keeps "thousands of
workstations" a *supported* scenario rather than a bench-only one: a
seeded P=512 run under a local scheme must complete, balance, and
account for every iteration in a couple of seconds of wall time.
"""

import gc
import time

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.runtime.options import RunOptions

#: Generous wall budget: ~1 s on the dev box, headroom for slow CI.
WALL_BUDGET_SECONDS = 30.0


@pytest.mark.scale
def test_p512_bus_local_scheme_smoke():
    p = 512
    loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(p, max_load=3, persistence=1.0,
                                      seed=7)
    t0 = time.perf_counter()
    stats = run_loop(loop, cluster, "LCDLB", RunOptions(group_size=32))
    wall = time.perf_counter() - t0

    assert wall < WALL_BUDGET_SECONDS, f"P=512 took {wall:.1f}s"
    assert stats.n_processors == p
    assert stats.duration > 0
    # Exactly-once coverage at scale: every iteration executed by
    # exactly one of the 512 nodes.
    executed = sum(stats.executed_count(n) for n in stats.executed_by_node)
    assert executed == loop.n_iterations
    # The local scheme actually balanced (some group synced) and its
    # sync traffic stayed O(P*k), nowhere near the global O(P^2).
    assert stats.n_syncs >= 1
    assert stats.network_messages < p * p


@pytest.mark.scale
def test_p256_torus_diffusion_smoke():
    """Neighbour-local diffusion at P=256: a sweep costs O(|E|) one-hop
    messages, so the wave finishes — exactly once — in well under 5 s of
    host time (the all-to-all gather it replaced sent 2 P (P - 1) =
    130,560 routed messages per sync here)."""
    p = 256
    loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(p, max_load=3, persistence=1.0,
                                      seed=7)
    t0 = time.perf_counter()
    stats = run_loop(loop, cluster, "DIFF", RunOptions(topology="torus"))
    wall = time.perf_counter() - t0

    assert wall < 5.0, f"DIFF torus P=256 took {wall:.1f}s"
    executed = sum(stats.executed_count(n) for n in stats.executed_by_node)
    assert executed == loop.n_iterations
    assert stats.n_syncs >= 1
    edges = 2 * p
    assert stats.network_messages <= 6 * edges * stats.n_syncs


@pytest.mark.scale
def test_p256_torus_routed_message_event_budget(monkeypatch):
    """A routed message costs one engine event per serialization point
    (send NIC, each link of the route, receive NIC) and none for a
    delivery nobody waits on: on the 256-node torus (4.85 links per
    message) that is 6.98 events per message, against 15.83 when every
    grant was an event of its own, every carry began with a start event
    and every delivery took a turn in the schedule."""
    from repro.simulation import Environment

    steps = [0]
    real_step = Environment.step

    def counted_step(env):
        steps[0] += 1
        real_step(env)

    monkeypatch.setattr(Environment, "step", counted_step)
    loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(256, max_load=3, persistence=1.0,
                                      seed=7)
    t0 = time.perf_counter()
    stats = run_loop(loop, cluster, "LCDLB",
                     RunOptions(group_size=32, topology="torus"))
    wall = time.perf_counter() - t0

    assert stats.network_messages == 8448
    assert stats.duration == 0.6860067666666675
    assert steps[0] <= 8 * stats.network_messages, \
        f"{steps[0] / stats.network_messages:.2f} engine events per message"
    assert wall < 2.0, f"LCDLB torus P=256 took {wall:.1f}s"


@pytest.mark.scale
def test_p1024_bus_run_pays_for_no_collector_pass():
    """A simulated run makes no cyclic garbage, so the executor pauses
    the cyclic collector while one lives (444 passes, a quarter of the
    wall time, at this size when it did not).  The one pass allowed is
    the collector catching up the moment it is switched back on: the
    young generation is over its threshold by then.  Everything the run
    allocated is still young, so that pass and a full one afterwards
    between them see all of it: neither finds anything unreachable."""
    loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(1024, max_load=3, persistence=1.0,
                                      seed=7)
    passes = [0, 0, 0]
    found = [0]

    def count(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1
        else:
            found[0] += info["collected"] + info["uncollectable"]

    gc.collect()
    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        t0 = time.perf_counter()
        stats = run_loop(loop, cluster, "LCDLB", RunOptions(group_size=32))
        wall = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(count)
    assert passes[0] <= 1 and passes[1:] == [0, 0], passes
    assert found[0] + gc.collect() == 0
    assert gc.isenabled()
    assert stats.network_messages == 33792
    assert stats.duration == 8.880490666663615
    assert wall < 3.0, f"LCDLB bus P=1024 took {wall:.1f}s"
