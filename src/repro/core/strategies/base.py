"""Strategy taxonomy (paper §3.5): the two axes and the four extremes.

A strategy is a point on two axes:

* **information scope** — *global* (all processors synchronize and the
  decision sees every profile) vs. *local* (processors are statically
  partitioned into K-block groups; decisions and work movement stay
  within a group);
* **decision placement** — *centralized* (one load balancer on the
  master processor, which also computes) vs. *distributed* (the balancer
  is replicated on every processor and profiles are broadcast).

The protocol engine in :mod:`repro.runtime` is parametric in these two
booleans, so each strategy class here is a thin, well-named
configuration — mirroring how the paper treats the four schemes as the
extreme points of one design space.

Because the taxonomy is configuration, cross-cutting machinery applies
to all four schemes uniformly: the fault-tolerance hardening (timed
receives, retries, fencing, orphan reclamation — see
``docs/FAULT_MODEL.md``) lives in the shared protocol engine, not in
any strategy, so every scheme survives the same fault plans without
per-strategy code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["StrategySpec"]


@dataclass(frozen=True)
class StrategySpec:
    """One dynamic load balancing strategy.

    Attributes
    ----------
    code:
        Short id used in the paper's tables: "GC", "GD", "LC", "LD" (and
        "NONE" for the static no-DLB baseline, "CUSTOM" for the hybrid
        model-driven selection).
    name:
        The paper's full acronym, e.g. ``"GCDLB"``.
    centralized:
        True when one load balancer lives on the master processor.
    global_scope:
        True when all processors form a single synchronization domain.
    group_size:
        ``K`` for local strategies; ``None`` means "use the run option"
        (the paper's experiments use two groups, i.e. ``K = P/2``).
    """

    code: str
    name: str
    centralized: bool
    global_scope: bool
    group_size: Optional[int] = None

    @property
    def is_dlb(self) -> bool:
        """Whether the strategy performs any dynamic balancing at all."""
        return self.code not in ("NONE",)

    @property
    def distributed(self) -> bool:
        return not self.centralized

    @property
    def local(self) -> bool:
        return not self.global_scope

    def describe(self) -> str:
        if self.code == "NONE":
            return "static equal-block partition, no dynamic balancing"
        if self.code == "CUSTOM":
            return ("hybrid compile/run-time selection: run to the first "
                    "synchronization point, evaluate the model, commit")
        if self.code == "WS":
            return ("random-victim work stealing (receiver-initiated, "
                    "no synchronization points)")
        if self.code == "DIFF":
            return ("first-order diffusion: every node synchronizes with "
                    "its topology neighbours only, work flows along edges")
        scope = "global" if self.global_scope else "local"
        place = "centralized" if self.centralized else "distributed"
        return f"{scope} {place} interrupt-based receiver-initiated DLB"

    def with_group_size(self, k: int) -> "StrategySpec":
        return StrategySpec(code=self.code, name=self.name,
                            centralized=self.centralized,
                            global_scope=self.global_scope, group_size=k)
