"""Diffusion load balancing on graph topologies.

The first-order diffusion scheme (FOS) of Cybenko, in the
indivisible-load formulation of Demirel & Sbalzarini ("Balancing
indivisible real-valued loads in arbitrary networks"): at each
synchronization sweep, every edge ``(u, v)`` of the topology carries a
load flow

    ``f_uv = alpha * (w_u - w_v)``,    ``alpha = 1 / (1 + max_degree)``

from the heavier endpoint to the lighter one.  The choice of ``alpha``
makes the diffusion matrix ``M = I - alpha * L`` (``L`` the graph
Laplacian) stable: the load vector converges geometrically to uniform
at rate ``gamma = max(|eigenvalue of M| != 1)`` (see
:func:`repro.machine.analytics.diffusion_convergence` for the bound).

Indivisibility: iterations cannot be split, so the flows go through the
quantizer both planners share (``redistribution._quantize``): an edge
ships when its flow covers the dearest iteration its sender holds, and
then what the sender's own rule cuts from its tail.  This is what makes
the scheme terminate in finitely many sweeps — once no neighbour
difference covers an iteration, the plan reports convergence.

Locality: an edge's flow needs only its two endpoints' loads, and the
leaving rule below only a node's own row of the sweep, so
:func:`plan_diffusion` over the profiles of a closed neighbourhood
``N[v]`` yields exactly the transfers incident on ``v`` that the
whole-graph sweep would, save an incoming parcel's amount, which is its
sender's to cut (pinned by ``tests/strategies/test_diffusion.py``).  The protocol layer relies on
that: a ``DIFF`` worker synchronizes with ``N[v]`` only — interrupts,
profiles, this calculation, the work parcels and the retirement all
stay one hop from ``v`` (see :mod:`repro.protocol.worker` and
docs/TOPOLOGY.md) — and both endpoints of an edge, holding the same two
profiles, agree on its flow without a global plan.  The whole-graph call
is what the §4 cost model (:mod:`repro.core.model.predictor`) plays
forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..apps.workload import WorkTable
from ..message.messages import TransferOrder
from ..network.topology import Topology
from .policy import DlbPolicy
from .redistribution import (
    MovementCostFn,
    RedistributionPlan,
    SyncProfile,
    _quantize,
    _settle,
    _survey,
)

__all__ = ["diffusion_alpha", "plan_diffusion", "DiffusionPlanner"]


def diffusion_alpha(topology: Topology) -> float:
    """The FOS diffusion constant ``alpha = 1 / (1 + max_degree)``.

    The largest value guaranteed stable for every graph of this maximum
    degree (all eigenvalues of ``I - alpha * L`` stay in ``(-1, 1]``).
    """
    return 1.0 / (1.0 + topology.max_degree)


def plan_diffusion(profiles: Sequence[SyncProfile],
                   topology: Topology,
                   policy: DlbPolicy,
                   table: WorkTable,
                   movement_cost_fn: Optional[MovementCostFn] = None
                   ) -> RedistributionPlan:
    """One diffusion sweep over the topology edges.

    Deterministic pure function of the profiles, and *edge-local*: the
    flow on ``(u, v)`` is computed from ``w_u`` and ``w_v`` alone, and
    whether it ships from the sender's profile.
    There is deliberately no cap by what the sender "still holds" after
    its other edges — such a cap would depend on edges the two endpoints
    cannot both see — and none is needed: a node's total outflow is at
    most ``alpha * deg(u) * w_u < w_u`` for ``alpha = 1 / (1 +
    max_degree)``.

    Nodes absent from ``profiles`` (dead or retired) simply drop out of
    the sweep: their incident edges carry no flow, and the survivors
    keep diffusing over the induced subgraph.  A node that ends the
    sweep holding nothing — no work of its own and no inflow — is
    listed in ``retire``: nothing reaches it before a neighbour has an
    iteration to spare, so it leaves instead of re-opening a sweep it
    has nothing to compute in (``done`` when that is everyone).
    """
    survey = _survey(profiles, policy)
    if isinstance(survey, RedistributionPlan):
        return survey
    nodes, work, total, rates, predicted_current = survey

    # -- per-edge flows from the pre-sweep loads (simultaneous FOS) ------
    alpha = diffusion_alpha(topology)
    flows: list[TransferOrder] = []
    for u in nodes:
        for v in topology.neighbors(u):
            if v < u or v not in work:
                continue
            flow = alpha * (work[u] - work[v])
            src, dst = (u, v) if flow > 0 else (v, u)
            flows.append(TransferOrder(src=src, dst=dst, work=abs(flow)))
    transfers, holding = _quantize(flows, profiles, table, edge_local=True)

    # Converged (no neighbour difference covers an iteration) or not,
    # whoever ends the sweep empty-handed leaves.
    movement_cost = 0.0
    if transfers and movement_cost_fn is not None:
        movement_cost = movement_cost_fn(transfers)
    return _settle(
        nodes, nodes, holding, transfers,
        "diffused" if transfers else "diffusion-converged",
        predicted_current=predicted_current,
        predicted_balanced=total / sum(rates[n] for n in nodes),
        work_to_move=sum(t.work for t in transfers),
        movement_cost=movement_cost)


@dataclass(frozen=True)
class DiffusionPlanner:
    """:func:`plan_diffusion` bound to a topology.

    The redistribution calculation of a diffusion worker — profiles in,
    plan out, a deterministic pure function of the profiles, since both
    endpoints of an edge replicate the call — which also names the graph
    it diffuses over: installing one in a :class:`~repro.protocol.worker.WorkerProtocol`
    is what scopes that worker's synchronization to its closed
    neighbourhood in ``topology``.
    """

    topology: Topology
    policy: DlbPolicy
    table: WorkTable
    movement_cost_fn: Optional[MovementCostFn] = None

    def __call__(self, profiles: Sequence[SyncProfile]
                 ) -> RedistributionPlan:
        return plan_diffusion(profiles, self.topology, self.policy,
                              self.table, self.movement_cost_fn)

    def scope(self, node: int) -> tuple[int, ...]:
        """``N[node]``: the nodes ``node`` synchronizes with, itself
        included."""
        return tuple(sorted((node, *self.topology.neighbors(node))))
