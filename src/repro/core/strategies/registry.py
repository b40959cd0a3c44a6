"""The strategy repertoire the compiler customizes over (§3.5, §4.3)."""

from __future__ import annotations

from typing import Union

from .base import StrategySpec

__all__ = [
    "GCDLB",
    "GDDLB",
    "LCDLB",
    "LDDLB",
    "NO_DLB",
    "CUSTOMIZED",
    "WORK_STEALING",
    "DIFFUSION",
    "ALL_DLB_STRATEGIES",
    "STRATEGY_ORDER",
    "get_strategy",
    "strategies_for_topology",
]

#: Global Centralized: one balancer on the master; everyone synchronizes.
GCDLB = StrategySpec(code="GC", name="GCDLB", centralized=True,
                     global_scope=True)

#: Global Distributed: balancer replicated; profiles broadcast to all.
GDDLB = StrategySpec(code="GD", name="GDDLB", centralized=False,
                     global_scope=True)

#: Local Centralized: K-block groups; one asynchronous central balancer.
LCDLB = StrategySpec(code="LC", name="LCDLB", centralized=True,
                     global_scope=False)

#: Local Distributed: K-block groups; balancer replicated within groups.
LDDLB = StrategySpec(code="LD", name="LDDLB", centralized=False,
                     global_scope=False)

#: Static equal-block partition under external load (the "no DLB" bars).
NO_DLB = StrategySpec(code="NONE", name="NoDLB", centralized=False,
                      global_scope=True)

#: Hybrid compile/run-time customization (§4.3): selects one of the four.
CUSTOMIZED = StrategySpec(code="CUSTOM", name="Customized", centralized=True,
                          global_scope=True)

#: Random-victim work stealing (the Phish model of §2.2) — a contrast
#: baseline with no synchronization points at all.
WORK_STEALING = StrategySpec(code="WS", name="WorkStealing",
                             centralized=False, global_scope=True)

#: Diffusion balancing (Demirel & Sbalzarini): distributed, and local
#: in the strongest sense — every node synchronizes with its topology
#: neighbours only, and work flows along edges in iterative sweeps.
#: ``global_scope`` here says only that there are no K-block groups:
#: the whole machine is one diffusion domain.  Degenerate on the shared
#: bus (complete adjacency, one global wire), so it enters the
#: customization repertoire only on graph topologies — see
#: :func:`strategies_for_topology`.
DIFFUSION = StrategySpec(code="DIFF", name="Diffusion",
                         centralized=False, global_scope=True)

ALL_DLB_STRATEGIES = (GCDLB, GDDLB, LCDLB, LDDLB)

#: Canonical presentation order used by figures and tables.
STRATEGY_ORDER = ("GC", "GD", "LC", "LD")

_BY_KEY = {s.code: s for s in
           (GCDLB, GDDLB, LCDLB, LDDLB, NO_DLB, CUSTOMIZED, WORK_STEALING,
            DIFFUSION)}
_BY_KEY.update({s.name.upper(): s for s in
                (GCDLB, GDDLB, LCDLB, LDDLB, NO_DLB, CUSTOMIZED,
                 WORK_STEALING, DIFFUSION)})


def strategies_for_topology(topology=None) -> tuple[StrategySpec, ...]:
    """The repertoire the customization decision ranks on a topology.

    On the shared bus (``None`` or a ``shared_medium`` topology) this is
    exactly the paper's four schemes — the seed behavior.  On a graph
    topology, diffusion joins the comparison: its one-hop, degree-sized
    synchronization beats the eq.-3 schemes when P is large.
    """
    if topology is None or getattr(topology, "shared_medium", False):
        return ALL_DLB_STRATEGIES
    return ALL_DLB_STRATEGIES + (DIFFUSION,)


def get_strategy(key: Union[str, StrategySpec]) -> StrategySpec:
    """Look up a strategy by code ("GD") or name ("GDDLB"), any case; a
    :class:`StrategySpec` is its own answer."""
    if isinstance(key, StrategySpec):
        return key
    spec = _BY_KEY.get(key.upper())
    if spec is None:
        raise KeyError(f"unknown strategy {key!r}; known: "
                       f"{sorted(set(s.name for s in _BY_KEY.values()))}")
    return spec
