"""Schedule-for-schedule identity of the §2.2 task-queue baselines.

A SHA-256 fingerprint over every :class:`TaskQueueResult` field of a
grid of runs: each default chunk rule and affinity scheduling, on six
loops (uniform, skewed, a 7-iteration loop, MXM and TRFD's two loops),
five clusters (quiet, randomly loaded, heterogeneous, a long-held trace
load) and three queue access costs.  Affinity also crosses four local
fractions with two steal costs.

A refactor of the schedulers must leave every digest as it is: a moved
digest means a chunk size, a grab order or a float changed.  Times are
hashed as ``repr(float(x))``, so a change of number shows and a change
of type does not.
"""

import hashlib
import json

import pytest

from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.trfd import TrfdConfig, trfd_loop1, trfd_loop2
from repro.apps.workload import LoopSpec
from repro.machine.cluster import ClusterSpec
from repro.schedulers import ALL_POLICIES, run_affinity, run_task_queue

LOOPS = (
    LoopSpec(name="uniform", n_iterations=100, iteration_time=0.01,
             dc_bytes=0),
    LoopSpec(name="skew", n_iterations=96,
             iteration_time=tuple(5e-4 + 3e-3 * j / 96 for j in range(96)),
             dc_bytes=0),
    LoopSpec(name="seven", n_iterations=7, iteration_time=0.02, dc_bytes=0),
    mxm_loop(MxmConfig(60, 20, 20), op_seconds=4e-7),
    trfd_loop1(TrfdConfig(8)),
    trfd_loop2(TrfdConfig(8)),
)
CLUSTERS = (
    ClusterSpec.homogeneous(4, max_load=0),
    ClusterSpec.homogeneous(4, max_load=5, persistence=0.05, seed=3),
    ClusterSpec.homogeneous(7, max_load=3, persistence=0.02, seed=11),
    ClusterSpec.heterogeneous((1.0, 2.0, 0.5), max_load=2,
                              persistence=0.1, seed=5),
    ClusterSpec(speeds=(1.0,) * 4, persistence=1000.0,
                load_traces=((0,), (0,), (0,), (4,))),
)
ACCESS_COSTS = (0.0, 1e-4, 2.4e-3)
LOCAL_FRACTIONS = (0.1, 0.25, 0.5, 1.0)
STEAL_COSTS = (0.0, 2.4e-3)

EXPECTED = {
    "affinity": "ea7232d04c8d02bfbaa1c818bd5daaeeac7816a7e0b635d6798a18cf00c33440",
    "chunking(K=auto)": "1ceba1c865d9e2d731779e2de43615d7e93342a2ef14738effdf4cfab89af489",
    "factoring": "14cdf0391e75a9239be6fde6b148f5690874e34e6945d16bc8598adb50a63f5e",
    "gss": "c28213034fdb3a8ae07ae6da25b39e32c8abf9bb9f528e4d16bbcd491255ad10",
    "safe-ss": "47c76c6700b749b57ab57518b3d320ef44870ca4fd8d860ab64ef1a4fb269c36",
    "self-scheduling": "262869131467983fd63be121c7880cd4784e4c9f70e462856cda38021ef33fba",
    "static": "f66e0b3d7f8adf222e8d616332e4c5d2b37d221efffcf37db09aff0a16556ee8",
    "tss": "3d12f72aa9d96f9bf121082a4b65d213e9e3280ef0b228c21dd75225fff4e95e",
}


def _num(x) -> str:
    return repr(float(x))


def _doc(result) -> list:
    """Every field of one result, in a canonical form."""
    return [
        result.scheduler, _num(result.finish_time), result.n_chunks,
        result.queue_accesses,
        sorted(result.chunks_by_processor.items()),
        sorted(result.iterations_by_processor.items()),
        sorted((p, _num(t)) for p, t in result.finish_by_processor.items()),
    ]


def _grid(family: str) -> list:
    docs = []
    for loop in LOOPS:
        for cluster in CLUSTERS:
            for cost in ACCESS_COSTS:
                if family != "affinity":
                    (policy,) = [p for p in ALL_POLICIES()
                                 if p.name == family]
                    docs.append(_doc(run_task_queue(
                        loop, cluster, policy, access_cost=cost)))
                    continue
                for fraction in LOCAL_FRACTIONS:
                    for steal in STEAL_COSTS:
                        docs.append(_doc(run_affinity(
                            loop, cluster, local_fraction=fraction,
                            access_cost=cost, steal_cost=steal)))
    return docs


def _fingerprint(docs: list) -> str:
    blob = json.dumps(docs, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(EXPECTED))
def test_schedule_fingerprint(family):
    assert _fingerprint(_grid(family)) == EXPECTED[family]


def test_every_family_is_pinned():
    names = {policy.name for policy in ALL_POLICIES()}
    assert set(EXPECTED) == names | {"affinity"}
