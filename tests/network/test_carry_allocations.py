"""A routed carry allocates nothing per hop.

``_Carry`` is its own hold event: each stage's grant schedules the carry
itself rather than a fresh ``Timeout``, so a fault-free burst over a
routed graph creates no timeout at all, and a delayed message creates
exactly one — the delay's own.  These tests count allocations, not wall
time; the engine-event budget is pinned in
tests/protocol/test_scale_smoke.py.
"""

from __future__ import annotations

import pytest

from repro.network.graph import GraphNetwork
from repro.network.topology import Topology
from repro.simulation import Environment, Timeout

SIZE = 1000


def burst(monkeypatch, delayed=()):
    """Every host of a 4x4 torus sends to every other at t=0; message
    ``(src, dst)`` in ``delayed`` is held 2 ms by the fault hook.
    Returns ``(timeouts created, deliveries, messages)``."""
    created = []
    real_init = Timeout.__init__

    def counting(self, *args, **kwargs):
        created.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Timeout, "__init__", counting)
    env = Environment()
    net = GraphNetwork(env, Topology.torus(16))
    net.fault_hook = lambda src, dst, _nbytes, _item: (
        2e-3 if (src, dst) in delayed else None)
    delivered = []

    def sender(src, dst):
        done = yield from net.transmit(src, dst, SIZE, (src, dst))
        delivered.append((yield done))

    pairs = [(s, d) for s in range(16) for d in range(16) if s != d]
    for src, dst in pairs:
        env.process(sender(src, dst))
    env.run()
    return created, sorted(delivered), pairs


def test_a_fault_free_routed_burst_creates_no_timeout(monkeypatch):
    created, delivered, pairs = burst(monkeypatch)
    assert delivered == pairs
    assert created == []


def test_a_delayed_message_creates_only_its_delay(monkeypatch):
    created, delivered, pairs = burst(monkeypatch, delayed={(3, 12)})
    assert delivered == pairs
    assert len(created) == 1
    assert created[0][1] == pytest.approx(2e-3)
