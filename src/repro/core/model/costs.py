"""Per-synchronization cost terms of the §4.2 model.

The cost of one synchronization point decomposes into:

* **synchronization** ``sigma`` — the interrupt broadcast plus the
  profile exchange, expressed through the characterized communication
  patterns: ``one-to-all(K) + all-to-one(K)`` for the centralized
  schemes and ``one-to-all(K) + all-to-all(K)`` for the distributed
  ones — except diffusion, whose interrupts and profiles cross each
  topology edge once and no further: ``interrupt-wave(K) +
  neighbor-exchange(K)``;
* **distribution calculation** ``delta`` — small, replicated in the
  distributed schemes (same wall time), plus two context switches when
  the balancer shares the master with a computation slave;
* **instruction send** ``iota = gamma * L`` — centralized only;
* **data movement** ``Delta = gamma * L + moved * DC / B`` (eq. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ...network.characterization import CommCostModel, characterize_network
from ...network.parameters import NetworkParameters
from ...network.topology import Topology, TopologySpec
from ..policy import DlbPolicy
from ..strategies.base import StrategySpec

__all__ = ["SyncCosts", "strategy_sync_costs", "default_comm_model"]


@lru_cache(maxsize=16)
def _characterize_cached(params: NetworkParameters,
                         topology: "str | Topology | None") -> CommCostModel:
    return characterize_network(params, topology=topology)


def default_comm_model(params: NetworkParameters | None = None,
                       topology: TopologySpec = None) -> CommCostModel:
    """The off-line characterization for ``params`` (cached).

    ``topology`` keys the cache too: pattern costs measured on a ring
    differ from the bus, which is how the customization decision can
    pick differently per topology.  ``None`` and ``"bus"`` share the
    seed behavior (the shared-bus fits, no neighbor-exchange fit).
    """
    if topology == "bus":
        topology = None
    return _characterize_cached(params or NetworkParameters(), topology)


@dataclass(frozen=True)
class SyncCosts:
    """Closed-form cost terms for one strategy's synchronization.

    ``movement_model`` selects how eq. 5 charges data movement to the
    group timeline: ``"serial"`` is the paper's literal form (all moved
    bytes serialize into the clock), ``"overlap"`` (default) charges the
    largest single transfer — transfers to distinct receivers overlap
    with each other and with resumed computation, which matches the
    event simulation far better on big reshuffles.
    """

    comm: CommCostModel
    policy: DlbPolicy
    centralized: bool
    movement_model: str = "overlap"
    #: Diffusion: a sync involves a node's topology neighbours only.
    neighbour_scope: bool = False

    def synchronization(self, k_active: int) -> float:
        """``sigma`` for a group with ``k_active`` members."""
        if k_active <= 1:
            return 0.0
        if self.centralized:
            return (self.comm.one_to_all(k_active)
                    + self.comm.all_to_one(k_active))
        if self.neighbour_scope:
            return (self.comm.interrupt_wave(k_active)
                    + self.comm.neighbor_exchange(k_active))
        return (self.comm.one_to_all(k_active)
                + self.comm.all_to_all(k_active))

    def calculation(self) -> float:
        """``delta`` (+ context switches for a co-located balancer)."""
        if self.centralized:
            return (self.policy.delta_seconds
                    + 2.0 * self.policy.context_switch_seconds)
        return self.policy.delta_seconds

    def instructions(self, n_messages: int) -> float:
        """``iota = gamma * L``; zero for the distributed schemes.

        The paper's implementation sends instructions only to the
        ``gamma`` movers; ours notifies every active member (they must
        learn the new active set), so callers pass the member count.
        """
        if not self.centralized or n_messages <= 0:
            return 0.0
        return self.comm.movement_time(0.0, n_messages)

    def data_movement(self, transfer_works: "tuple[float, ...]",
                      dc_bytes: int, mean_iteration_time: float) -> float:
        """Eq. 5: ``gamma * L +`` (moved data) ``/ B``.

        ``transfer_works`` holds the work of each transfer order; the
        byte volume charged depends on :attr:`movement_model`.
        """
        if not transfer_works:
            return 0.0
        gamma = len(transfer_works)
        if self.movement_model == "serial":
            volume = sum(transfer_works)
        else:
            volume = max(transfer_works)
        iterations = volume / mean_iteration_time
        return self.comm.movement_time(iterations * dc_bytes, gamma)


def strategy_sync_costs(strategy: StrategySpec, comm: CommCostModel,
                        policy: DlbPolicy,
                        movement_model: str = "overlap") -> SyncCosts:
    if movement_model not in ("overlap", "serial"):
        raise ValueError("movement_model must be 'overlap' or 'serial'")
    return SyncCosts(comm=comm, policy=policy,
                     centralized=strategy.centralized,
                     movement_model=movement_model,
                     neighbour_scope=strategy.code == "DIFF")
