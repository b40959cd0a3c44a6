"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.apps.workload import LoopSpec
from repro.core.policy import DlbPolicy
from repro.machine.cluster import ClusterSpec
from repro.network.parameters import NetworkParameters
from repro.runtime.options import RunOptions
from repro.simulation import Environment


@pytest.fixture(scope="session", autouse=True)
def resident_cast_released():
    """The process backend keeps its children resident between runs
    (``backend/process.py``, "Lifetime"): release them when the session
    ends, and fail it if any outlives the release."""
    yield
    from repro.backend.process import release_cast
    release_cast()
    left = [p.name for p in multiprocessing.active_children()
            if p.name.startswith(("dlb-node", "dlb-balancer"))]
    assert left == [], f"resident children outlived the session: {left}"


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def small_loop() -> LoopSpec:
    """A small uniform loop: 64 iterations of 10 ms."""
    return LoopSpec(name="small", n_iterations=64, iteration_time=0.010,
                    dc_bytes=800)


@pytest.fixture
def tiny_loop() -> LoopSpec:
    """An even smaller loop for protocol-heavy tests."""
    return LoopSpec(name="tiny", n_iterations=16, iteration_time=0.020,
                    dc_bytes=400)


@pytest.fixture
def nonuniform_loop() -> LoopSpec:
    """Decreasing triangular-ish costs."""
    costs = tuple(0.002 * (40 - i) for i in range(40))
    return LoopSpec(name="tri", n_iterations=40, iteration_time=costs,
                    dc_bytes=160)


@pytest.fixture
def cluster4() -> ClusterSpec:
    return ClusterSpec.homogeneous(4, max_load=3, persistence=0.5, seed=42)


@pytest.fixture
def cluster8() -> ClusterSpec:
    return ClusterSpec.homogeneous(8, max_load=4, persistence=0.4, seed=7)


@pytest.fixture
def quiet_cluster4() -> ClusterSpec:
    """Four dedicated (no external load) processors."""
    return ClusterSpec.homogeneous(4, max_load=0, seed=0)


@pytest.fixture
def fast_network() -> NetworkParameters:
    """A cheap network so protocol tests run many syncs quickly."""
    return NetworkParameters(send_overhead=100e-6, recv_overhead=120e-6,
                             wire_latency=30e-6, bandwidth=10e6,
                             local_overhead=10e-6)


@pytest.fixture
def options(fast_network) -> RunOptions:
    return RunOptions(network=fast_network, policy=DlbPolicy())
