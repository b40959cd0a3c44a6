"""Large-P smoke: the optimized DES at P=512 inside tier-1.

The full P=64..4096 sweeps live in ``benchmarks/test_bench_scale.py``;
this is the tier-1 canary (marker ``scale``) that keeps "thousands of
workstations" a *supported* scenario rather than a bench-only one: a
seeded P=512 run under a local scheme must complete, balance, and
account for every iteration.  No test here bounds wall time — ``bench/``
reports ``wall_s`` on these inputs with its spread; what is pinned is
counts: engine events per message, collector passes.
"""

import gc

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.runtime.options import RunOptions
from repro.simulation import Environment, Process


@pytest.fixture
def steps(monkeypatch):
    """``steps[0]`` counts the engine events of the runs in the test."""
    count = [0]
    real_step = Environment.step

    def counted_step(env):
        count[0] += 1
        real_step(env)

    monkeypatch.setattr(Environment, "step", counted_step)
    return count


@pytest.fixture
def resumes(monkeypatch):
    """``resumes[0]`` counts the process resumes of the runs in the test:
    the engine handing control to a simulated process's generator."""
    count = [0]
    real_resume = Process._resume

    def counted_resume(proc, event):
        count[0] += 1
        real_resume(proc, event)

    monkeypatch.setattr(Process, "_resume", counted_resume)
    return count


@pytest.mark.scale
def test_p512_bus_local_scheme_smoke():
    p = 512
    loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(p, max_load=3, persistence=1.0,
                                      seed=7)
    stats = run_loop(loop, cluster, "LCDLB", RunOptions(group_size=32))

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
    messages, so the wave finishes — exactly once — on a few thousand
    of them (the all-to-all gather it replaced sent 2 P (P - 1) =
    130,560 routed messages per sync here)."""
    p = 256
    loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(p, max_load=3, persistence=1.0,
                                      seed=7)
    stats = run_loop(loop, cluster, "DIFF", RunOptions(topology="torus"))

    executed = sum(stats.executed_count(n) for n in stats.executed_by_node)
    assert executed == loop.n_iterations
    assert stats.n_syncs >= 1
    edges = 2 * p
    assert stats.network_messages <= 6 * edges * stats.n_syncs


@pytest.mark.scale
def test_p256_torus_routed_message_event_budget(steps):
    """A routed message costs one engine event per serialization point
    (send NIC, each link of the route, receive NIC) and none for a
    delivery nobody waits on: on the 256-node torus (4.85 links per
    message) that is 6.98 events per message, against 15.83 when every
    grant was an event of its own, every carry began with a start event
    and every delivery took a turn in the schedule."""
    loop = mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(256, max_load=3, persistence=1.0,
                                      seed=7)
    stats = run_loop(loop, cluster, "LCDLB",
                     RunOptions(group_size=32, topology="torus"))

    assert stats.network_messages == 8448
    assert stats.duration == 0.6860067666666675
    assert steps[0] <= 8 * stats.network_messages, \
        f"{steps[0] / stats.network_messages:.2f} engine events per message"


@pytest.mark.scale
def test_p1024_bus_run_pays_for_no_collector_pass(steps, resumes):
    """A simulated run makes no cyclic garbage, so the executor pauses
    the cyclic collector while one lives (444 passes, a quarter of the
    wall time, at this size when it did not).  The one pass allowed is
    the collector catching up the moment it is switched back on: the
    young generation is over its threshold by then.  Everything the run
    allocated is still young, so that pass and a full one afterwards
    between them see all of it: neither finds anything unreachable.

    A bus message costs two engine events — the send NIC's hold and the
    arrival its booking schedules (``GraphNetwork._book``) — so the run
    takes 2.12 per message, against 3.12 when the wire and the receive
    NIC were resources with a hold event each.  A sync burst is 31
    interrupts back to back from each node, one chain of sends through
    its NIC that the sender sleeps through: 0.125 process resumes per
    message, against 1.094 when the sender resumed after every hold."""
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
        stats = run_loop(loop, cluster, "LCDLB", RunOptions(group_size=32))
    finally:
        gc.callbacks.remove(count)
    assert passes[0] <= 1 and passes[1:] == [0, 0], passes
    assert found[0] + gc.collect() == 0
    assert gc.isenabled()
    assert stats.network_messages == 33792
    assert stats.duration == 8.880490666663615
    assert steps[0] <= 2.2 * stats.network_messages, \
        f"{steps[0] / stats.network_messages:.2f} engine events per message"
    assert resumes[0] <= 0.2 * stats.network_messages, \
        f"{resumes[0] / stats.network_messages:.3f} resumes per message"
