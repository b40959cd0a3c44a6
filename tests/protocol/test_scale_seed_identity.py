"""Event-for-event seed identity of the optimized DES engine.

The engine/mailbox/network hot-path optimizations (slotted event queue,
O(1) mailbox delivery, callback-driven message carries, shared-medium
routing fast path) are pure *mechanical* speedups: they must not change
a single simulated timestamp, sync decision, executed range, or message
count on any seeded run.  These tests pin that claim with SHA-256
fingerprints over the complete observable trace of representative runs
— the four paper strategies, the customized selector, work stealing,
diffusion on graph topologies, periodic sync, and a faulted run with
crashes and message drops — captured from the pre-optimization kernel.

If one of these digests ever changes, the engine's event ordering
changed: that is a correctness regression, not a tuning choice.  Fix
the engine; do not re-pin the digest without understanding exactly why
every downstream oracle (tests/protocol/test_cross_backend.py,
tests/protocol/test_topology_seed_identity.py) still holds.
"""

import hashlib
import json

import pytest

from repro import ClusterSpec, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.faults.plan import (
    CrashFault,
    FaultPlan,
    MessageDelayFault,
    MessageDropFault,
)
from repro.runtime.options import RunOptions


def _fingerprint(stats) -> str:
    """Canonical SHA-256 over every deterministic field of a run."""
    doc = {
        "strategy": stats.strategy,
        "n": stats.n_processors,
        "k": stats.group_size,
        "duration": repr(stats.duration),
        "syncs": [
            [repr(s.time), s.group, s.epoch, s.reason, repr(s.moved_work),
             s.n_transfers, list(s.retired), repr(s.predicted_current),
             repr(s.predicted_balanced)]
            for s in stats.syncs
        ],
        "executed": {str(n): sorted(map(list, r))
                     for n, r in sorted(stats.executed_by_node.items())},
        "finish": {str(n): repr(t)
                   for n, t in sorted(stats.node_finish_times.items())},
        "msgs": dict(sorted(stats.messages_by_tag.items())),
        "net": [stats.network_messages, stats.network_bytes],
        "selected": stats.selected_scheme,
        "faults": [list(stats.crashed_nodes), list(stats.fenced_nodes),
                   list(stats.declared_dead), stats.dropped_messages,
                   stats.delayed_messages, stats.fault_retries,
                   stats.reclaimed_iterations, stats.salvaged_iterations],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cluster(n=8):
    return ClusterSpec.homogeneous(n, max_load=3, persistence=1.0, seed=7)


def _loop():
    return mxm_loop(MxmConfig(64, 32, 32), op_seconds=4e-7)


_FAULT_PLAN = FaultPlan(
    seed=11,
    crashes=(CrashFault(node=3, time=0.05),),
    drops=(MessageDropFault(src=1, dst=2, max_drops=2,
                            window=(0.0, 0.2)),),
    delays=(MessageDelayFault(extra_seconds=0.01, src=4, dst=5,
                              max_delays=3, window=(0.0, 0.3)),),
)

# SHA-256 fingerprints captured from the pre-optimization DES kernel
# (commit 697a927).  See module docstring before ever editing these.
EXPECTED = {
    # The CUSTOM, GCDLB, GDDLB and faulted digests were re-pinned when
    # both planners began cutting every order from its sender's tail
    # (one quantizer, core/redistribution.py): in each of these four
    # runs the epoch-0 plan ordered node 1 to send node 3 work its tail
    # could not cover, which shipped as an empty parcel; the order is
    # now never made, and nodes 3 and 4, left holding nothing, retire
    # at that sync instead of synchronizing again at once.  These are
    # exactly the digests whose runs shipped an empty parcel; every
    # other digest here and in test_topology_seed_identity.py /
    # test_cross_backend.py held untouched across it.
    "CUSTOM": "58821cabda2c0d27726626ceaec689e351b8540a9cc390b2fa588d3c8956273e",
    "GCDLB": "f19fe5c1f85783f6825d9b9504724763b7774050e5571a777cb3ba9368fe30e4",
    "GDDLB": "7f8fb82cef12ea50cac9be14bb908dbc2cf4169d4e7abe7b3d05a23750ca4fad",
    "LCDLB": "6df2948713594c86c20f9ed177c2f4afc037d39768f2b7e95a06126b1dcf8049",
    "LDDLB": "f1254afe023ce341c57c4d81c702223c9a8ac5b62a2f4058c866af527f8ae95c",
    "WS": "bc6cad189d3773f675e17d166921e25361a3c17f8da70fe7d22d1b92d51d60f3",
    # The two DIFF digests were re-pinned when diffusion's synchronization
    # became neighbour-local (interrupts, profiles and retirement over
    # N[v] instead of an all-to-all gather): a deliberate change of
    # DIFF's conversation, not of the engine.  Every other digest here
    # and in test_topology_seed_identity.py held untouched across it.
    "diff-ring": "97439fa2dd2f7ce7faa26180c7742a5ecb8146efcf9a4e5f7f638e270a236da5",
    "diff-torus": "40886a484064a0ba3ef7d5453e58fd98e85b9d5a70c26b4d40c3c7914772878d",
    "faulted": "34c468e7293be2f37e702d56de2460c3cb8f3c10146a45ceda89570f08f319c3",
    "periodic": "f5703bd3173479e1139b927b24b78e12015724b98a5c788bf8a79bf89a26d674",
}


def _run(case: str):
    if case in ("GCDLB", "GDDLB", "LCDLB", "LDDLB", "CUSTOM", "WS"):
        return run_loop(_loop(), _cluster(), case, RunOptions())
    if case == "periodic":
        return run_loop(_loop(), _cluster(), "GDDLB",
                        RunOptions(sync_mode="periodic", sync_period=0.05))
    if case == "diff-ring":
        return run_loop(_loop(), _cluster(16), "DIFF",
                        RunOptions(topology="ring"))
    if case == "diff-torus":
        return run_loop(_loop(), _cluster(16), "DIFF",
                        RunOptions(topology="torus"))
    if case == "faulted":
        return run_loop(_loop(), _cluster(), "GDDLB", RunOptions(),
                        fault_plan=_FAULT_PLAN)
    raise AssertionError(case)


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_seed_identity(case):
    assert _fingerprint(_run(case)) == EXPECTED[case], (
        f"seeded {case} trace diverged from the pre-optimization oracle")


def test_fingerprint_is_stable_across_runs():
    # The fingerprint itself must be deterministic, or the oracle above
    # could never fail meaningfully.
    assert _fingerprint(_run("GDDLB")) == _fingerprint(_run("GDDLB"))
