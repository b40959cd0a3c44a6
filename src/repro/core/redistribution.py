"""Redistribution planning: new distribution + profitability (§3.3–§3.4).

This module is the *decision heart* of the DLB system.  Given the
profiles collected at a synchronization point — remaining work and
observed rate per processor — it computes the paper's new distribution
(eq. 3: share proportional to average effective speed), the amount of
work to move, the transfer orders, and runs the profitability analysis.

The same pure function is called by:

* the central load balancer (GCDLB / LCDLB),
* every replica in the distributed schemes (GDDLB / LDDLB) — it is
  deterministic, so replicated decisions agree without communication,
* the analytical cost model of §4.2, so predictions share decision logic
  with the measured system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TYPE_CHECKING

from ..message.messages import TransferOrder
from ..network.parameters import transfer_seconds
from .policy import DlbPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..network.parameters import NetworkParameters
    from ..network.topology import Topology

__all__ = ["SyncProfile", "RedistributionPlan",
           "plan_redistribution", "make_movement_cost_estimator",
           "make_topology_movement_cost_estimator"]

_TINY_WORK = 1e-12


@dataclass(frozen=True)
class SyncProfile:
    """One processor's contribution to a synchronization point.

    ``rate`` is work (base-processor seconds) completed per busy second
    since the last synchronization — the implementation's estimate of
    the paper's average effective speed ``S_i / mu_i``.
    """

    node: int
    remaining_work: float
    remaining_count: int
    rate: float

    def __post_init__(self) -> None:
        if self.remaining_work < 0 or self.remaining_count < 0:
            raise ValueError("remaining work/count must be non-negative")
        if self.rate < 0:
            raise ValueError("rate must be non-negative")


@dataclass(frozen=True)
class RedistributionPlan:
    """The outcome of one synchronization point.

    ``shares`` maps each *kept* node to its target work; ``transfers``
    are the sender → receiver orders realizing it; ``retire`` lists
    nodes that exit (their work, if any, is part of the transfers).
    ``predicted_current`` / ``predicted_balanced`` are the §3.4
    profitability quantities.
    """

    done: bool
    move: bool
    reason: str
    shares: dict[int, float]
    transfers: tuple[TransferOrder, ...]
    retire: tuple[int, ...]
    active: tuple[int, ...]
    predicted_current: float
    predicted_balanced: float
    work_to_move: float
    movement_cost: float = 0.0

    def outgoing(self, node: int) -> tuple[TransferOrder, ...]:
        return tuple(t for t in self.transfers if t.src == node)

    def incoming(self, node: int) -> tuple[TransferOrder, ...]:
        return tuple(t for t in self.transfers if t.dst == node)


MovementCostFn = Callable[[Sequence[TransferOrder]], float]



def make_movement_cost_estimator(latency: float, bandwidth: float,
                                 dc_bytes: int, mean_iteration_time: float
                                 ) -> MovementCostFn:
    """Estimate the wall time of a set of transfers (for the ablation
    that *includes* movement cost in profitability, §3.4).

    Transfers are assumed to serialize on the shared medium:
    ``sum_t (L + bytes_t / B)`` with ``bytes_t`` derived from the work
    moved via the mean iteration cost.
    """
    if mean_iteration_time <= 0:
        raise ValueError("mean_iteration_time must be positive")

    def estimate(transfers: Sequence[TransferOrder]) -> float:
        total = 0.0
        for t in transfers:
            iterations = t.work / mean_iteration_time
            total += transfer_seconds(latency, bandwidth,
                                      iterations * dc_bytes)
        return total

    return estimate


def make_topology_movement_cost_estimator(params: "NetworkParameters",
                                          topology: "Topology",
                                          dc_bytes: int,
                                          mean_iteration_time: float
                                          ) -> MovementCostFn:
    """Movement cost on a graph topology: store-and-forward routes.

    Each transfer pays the endpoint NIC overheads once plus the wire
    time of every link on its shortest route, honoring per-link
    parameter overrides.  Shared-medium runs keep using
    :func:`make_movement_cost_estimator` so the seed cost arithmetic
    stays bit-identical.
    """
    if mean_iteration_time <= 0:
        raise ValueError("mean_iteration_time must be positive")

    def estimate(transfers: Sequence[TransferOrder]) -> float:
        total = 0.0
        for t in transfers:
            iterations = t.work / mean_iteration_time
            nbytes = iterations * dc_bytes
            seconds = params.send_overhead + params.recv_overhead
            for u, v in topology.route(t.src, t.dst):
                link = topology.params_for(u, v) or params
                seconds += link.wire_time(nbytes)
            total += seconds
        return total

    return estimate


def _match_transfers(deltas: dict[int, float]) -> list[TransferOrder]:
    """Greedy largest-surplus → largest-deficit matching.

    Deterministic (ties broken by node id) so replicated balancers in
    the distributed schemes derive identical orders.
    """
    senders = sorted(((d, n) for n, d in deltas.items() if d > _TINY_WORK),
                     key=lambda x: (-x[0], x[1]))
    receivers = sorted(((-d, n) for n, d in deltas.items() if d < -_TINY_WORK),
                       key=lambda x: (-x[0], x[1]))
    senders = [[d, n] for d, n in senders]
    receivers = [[d, n] for d, n in receivers]
    orders: list[TransferOrder] = []
    si = ri = 0
    while si < len(senders) and ri < len(receivers):
        surplus, src = senders[si]
        deficit, dst = receivers[ri]
        amount = min(surplus, deficit)
        if amount > _TINY_WORK:
            orders.append(TransferOrder(src=src, dst=dst, work=amount))
        senders[si][0] -= amount
        receivers[ri][0] -= amount
        if senders[si][0] <= _TINY_WORK:
            si += 1
        if receivers[ri][0] <= _TINY_WORK:
            ri += 1
    return orders


def _survey(profiles: Sequence[SyncProfile], policy: DlbPolicy):
    """What every planner starts from.

    Checks the profiles (at least one, one per node), and returns the
    termination plan when no work is left anywhere (eq. 4); otherwise
    ``(nodes, work, total, rates, predicted_current)``: the nodes in id
    order, their remaining work and its total, the rates — floored so a
    stalled node still gets some share — and the §3.4 time to finish
    without moving anything.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    profiles = sorted(profiles, key=lambda p: p.node)
    nodes = [p.node for p in profiles]
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node in profiles")
    work = {p.node: p.remaining_work for p in profiles}
    total = sum(work.values())

    # -- termination: Gamma(tau) == 0 (eq. 4) ---------------------------
    if total <= _TINY_WORK:
        return RedistributionPlan(
            done=True, move=False, reason="done", shares={}, transfers=(),
            retire=tuple(nodes), active=(), predicted_current=0.0,
            predicted_balanced=0.0, work_to_move=0.0)

    max_rate = max(p.rate for p in profiles)
    if max_rate <= _TINY_WORK:
        rates = {p.node: 1.0 for p in profiles}
    else:
        floor = max_rate * policy.rate_floor_fraction
        rates = {p.node: max(p.rate, floor) for p in profiles}
    predicted_current = max(work[n] / rates[n] for n in nodes)
    return nodes, work, total, rates, predicted_current


def plan_redistribution(profiles: Sequence[SyncProfile],
                        policy: DlbPolicy,
                        mean_iteration_time: float,
                        movement_cost_fn: Optional[MovementCostFn] = None
                        ) -> RedistributionPlan:
    """Compute the new distribution for one synchronization point.

    Implements, in order: termination check (eq. 4), rate flooring, the
    proportional new distribution (eq. 3) with retirement of processors
    whose share would round to no whole iteration, the amount-moved
    check (§3.3), and the 10% profitability test (§3.4).
    """
    survey = _survey(profiles, policy)
    if isinstance(survey, RedistributionPlan):
        return survey
    nodes, work, total, rates, predicted_current = survey

    # -- proportional shares with retirement (eq. 3) ----------------------
    kept = list(nodes)
    shares: dict[int, float] = {}
    retire_threshold = policy.retire_fraction * mean_iteration_time
    for _ in range(len(nodes)):
        rate_sum = sum(rates[n] for n in kept)
        shares = {n: total * rates[n] / rate_sum for n in kept}
        too_small = [n for n in kept if shares[n] < retire_threshold]
        if not too_small or len(kept) - len(too_small) < 1:
            break
        kept = [n for n in kept if n not in too_small]
    retired = tuple(n for n in nodes if n not in kept)

    # -- amount of work moved: Phi(j) = 1/2 sum |alpha - beta| -----------
    deltas = {n: work[n] - shares.get(n, 0.0) for n in nodes}
    work_to_move = 0.5 * sum(abs(d) for d in deltas.values())

    def no_move(reason: str) -> RedistributionPlan:
        idle = tuple(n for n in nodes if work[n] <= _TINY_WORK)
        stay = tuple(n for n in nodes if n not in idle)
        return RedistributionPlan(
            done=False, move=False, reason=reason,
            shares={n: work[n] for n in stay}, transfers=(),
            retire=idle, active=stay,
            predicted_current=predicted_current,
            predicted_balanced=total / sum(rates[n] for n in kept),
            work_to_move=work_to_move)

    move_floor = max(policy.min_move_fraction * total,
                     policy.min_move_iterations * mean_iteration_time)
    if work_to_move < move_floor:
        return no_move("below-move-threshold")

    transfers = tuple(_match_transfers(deltas))
    # Orders too small to round to a whole iteration at the sender are
    # dropped (they would materialize as empty messages) — except from
    # retiring senders, whose remaining work must ship somewhere.
    transfer_floor = policy.min_transfer_iterations * mean_iteration_time
    retired_set = set(retired)
    transfers = tuple(t for t in transfers
                      if t.work >= transfer_floor or t.src in retired_set)
    if not transfers:
        return no_move("below-move-threshold")
    # Realizable shares: what each kept node actually ends up holding
    # under the (possibly filtered) transfer list.
    final = dict(work)
    for t in transfers:
        final[t.src] -= t.work
        final[t.dst] += t.work
    shares = {n: max(final[n], 0.0) for n in kept}

    movement_cost = 0.0
    if movement_cost_fn is not None:
        movement_cost = movement_cost_fn(transfers)

    predicted_balanced = total / sum(rates[n] for n in kept)
    predicted_with_cost = predicted_balanced
    if policy.include_movement_cost:
        predicted_with_cost += movement_cost

    if predicted_with_cost > (1.0 - policy.improvement_threshold) * predicted_current:
        return no_move("unprofitable")

    return RedistributionPlan(
        done=False, move=True, reason="moved", shares=shares,
        transfers=transfers, retire=retired, active=tuple(kept),
        predicted_current=predicted_current,
        predicted_balanced=predicted_balanced,
        work_to_move=work_to_move, movement_cost=movement_cost)
