"""Redistribution planning: new distribution + profitability (§3.3–§3.4).

This module is the *decision heart* of the DLB system.  Given the
profiles collected at a synchronization point — remaining work and
observed rate per processor — it computes the paper's new distribution
(eq. 3: share proportional to average effective speed), the amount of
work to move, the transfer orders, and runs the profitability analysis.

Both planners (eq. 3 here, diffusion in :mod:`repro.core.diffusion`)
cut their orders into whole iterations with one quantizer: an order is
exactly what its sender will ship.

The same pure function is called by:

* the central load balancer (GCDLB / LCDLB),
* every replica in the distributed schemes (GDDLB / LDDLB) — it is
  deterministic, so replicas agree; replicas in one process share a plan,
* the analytical cost model of §4.2, so predictions share decision logic
  with the measured system.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Collection, Optional, Sequence, TYPE_CHECKING

from ..apps.workload import WorkTable
from ..message.messages import ProfileMsg, TransferOrder
from ..network.parameters import transfer_seconds
from .policy import DlbPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..network.parameters import NetworkParameters
    from ..network.topology import Topology

__all__ = ["SyncProfile", "RedistributionPlan",
           "plan_redistribution", "make_movement_cost_estimator",
           "make_topology_movement_cost_estimator"]

_TINY_WORK = 1e-12

Range = tuple[int, int]


@dataclass(frozen=True)
class SyncProfile:
    """One processor's contribution to a synchronization point.

    ``rate`` is work (base-processor seconds) completed per busy second
    since the last synchronization — the implementation's estimate of
    the paper's average effective speed ``S_i / mu_i``.  ``ranges`` are
    the iterations it holds, in assignment order: the tail its orders
    are cut from.
    """

    node: int
    remaining_work: float
    remaining_count: int
    rate: float
    ranges: tuple[Range, ...] = ()

    def __post_init__(self) -> None:
        if self.remaining_work < 0 or self.remaining_count < 0:
            raise ValueError("remaining work/count must be non-negative")
        if self.rate < 0:
            raise ValueError("rate must be non-negative")

    @classmethod
    def of(cls, profile: ProfileMsg) -> "SyncProfile":
        """The planner-facing view of a profile message."""
        return cls(node=profile.src, remaining_work=profile.remaining_work,
                   remaining_count=profile.remaining_count,
                   rate=profile.rate, ranges=profile.ranges)


@dataclass(frozen=True)
class RedistributionPlan:
    """The outcome of one synchronization point.

    ``transfers`` are the sender → receiver orders, each carrying the
    work its sender ships; ``shares`` maps each *kept* node to the work
    it then holds; ``retire`` lists nodes that exit (their work, if any,
    is part of the transfers).
    ``predicted_current`` / ``predicted_balanced`` are the §3.4
    profitability quantities.  A plan is a shared value (memoized by
    :func:`plan_redistribution`): nobody mutates one, ``shares`` included.
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


def _quantize(orders: Sequence[TransferOrder],
              profiles: Sequence[SyncProfile], table: WorkTable,
              retiring: Collection[int] = (), *, edge_local: bool = False
              ) -> tuple[tuple[TransferOrder, ...], dict[int, float]]:
    """Cut every order from its sender's tail, as the sender will.

    Replays, in plan order, the sender's own rule
    (``WorkerProtocol._apply_outcome``: ``Assignment.take_tail_work``,
    a retiring sender's last order taking all) on a copy of its ranges:
    an order that would ship no whole iteration is dropped, every other
    carries the work it ships.  ``edge_local``: the receiver of a
    neighbour-local plan does not see its sender's other orders, so an
    order is kept only when it covers the dearest iteration the sender
    holds — it ships one whatever those cut first, as long as they add
    up to less than the sender holds (diffusion's ``alpha`` sees to it).

    Returns the kept orders and the work every node then holds.
    """
    from ..runtime.assignment import Assignment  # runtime imports core

    held = {p.node: p.ranges for p in profiles}
    holding = {p.node: p.remaining_work for p in profiles}
    last = {t.src: i for i, t in enumerate(orders)}
    tails: dict[int, Assignment] = {}
    kept: list[TransferOrder] = []
    for i, order in enumerate(orders):
        src = order.src
        if edge_local and order.work < max(
                (table.max_cost(s, e) for s, e in held[src]),
                default=float("inf")):
            continue
        if src not in tails:
            tails[src] = Assignment(held[src])
        if src in retiring and i == last[src]:
            shipped, work = tails[src].take_all(), holding[src]
        else:
            shipped, _ = tails[src].take_tail_work(
                table, order.work, keep_one=src not in retiring)
            work = sum(table.range_work(s, e) for s, e in shipped)
        if shipped:
            kept.append(TransferOrder(src, order.dst, work))
            holding[src] -= work
            holding[order.dst] += work
    return tuple(kept), holding


def _settle(nodes: Sequence[int], candidates: Sequence[int],
            holding: dict[int, float], transfers: tuple[TransferOrder, ...],
            reason: str, **estimates: float) -> RedistributionPlan:
    """The plan under which every node ends holding ``holding``: the
    ``candidates`` still holding work stay, everyone else retires."""
    active = tuple(n for n in candidates if holding[n] > _TINY_WORK)
    return RedistributionPlan(
        done=False, move=bool(transfers), reason=reason,
        shares={n: holding[n] for n in active}, transfers=transfers,
        retire=tuple(n for n in nodes if n not in active), active=active,
        **estimates)


#: One plan at a time: a thread replica reuses the plan a peer computes.
_PLANNING = threading.Lock()


def plan_redistribution(profiles: Sequence[SyncProfile],
                        policy: DlbPolicy,
                        table: WorkTable,
                        movement_cost_fn: Optional[MovementCostFn] = None
                        ) -> RedistributionPlan:
    """Compute the new distribution for one synchronization point.

    Implements, in order: termination check (eq. 4), rate flooring, the
    proportional new distribution (eq. 3) with retirement of processors
    whose share is under ``retire_fraction`` of a mean iteration, the
    amount-moved check (§3.3), the orders cut into whole iterations of
    their senders' tails (:func:`_quantize`), and the 10% profitability
    test (§3.4).  A node the plan leaves holding nothing retires.

    Memoized on the whole input (``table`` and ``movement_cost_fn`` by
    identity; each run builds its own): in-process replicas share a plan.
    """
    with _PLANNING:
        return _plan(tuple(profiles), policy, table, movement_cost_fn)


@lru_cache(maxsize=64)  # room for every group planning in one process
def _plan(profiles: tuple[SyncProfile, ...], policy: DlbPolicy,
          table: WorkTable, movement_cost_fn: Optional[MovementCostFn]
          ) -> RedistributionPlan:
    """:func:`plan_redistribution`, computed."""
    survey = _survey(profiles, policy)
    if isinstance(survey, RedistributionPlan):
        return survey
    nodes, work, total, rates, predicted_current = survey

    # -- proportional shares with retirement (eq. 3) ----------------------
    kept = list(nodes)
    shares: dict[int, float] = {}
    retire_threshold = policy.retire_fraction * (table.total_work / table.n)
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
    predicted_balanced = total / sum(rates[n] for n in kept)

    def no_move(reason: str) -> RedistributionPlan:
        return _settle(nodes, nodes, work, (), reason,
                       predicted_current=predicted_current,
                       predicted_balanced=predicted_balanced,
                       work_to_move=work_to_move)

    if work_to_move < policy.min_move_fraction * total:
        return no_move("below-move-threshold")
    transfers, holding = _quantize(_match_transfers(deltas), profiles,
                                   table, retired)
    if not transfers:
        return no_move("below-move-threshold")

    movement_cost = 0.0
    if movement_cost_fn is not None:
        movement_cost = movement_cost_fn(transfers)
    predicted_with_cost = predicted_balanced
    if policy.include_movement_cost:
        predicted_with_cost += movement_cost

    if predicted_with_cost > (1.0 - policy.improvement_threshold) * predicted_current:
        return no_move("unprofitable")

    return _settle(nodes, kept, holding, transfers, "moved",
                   predicted_current=predicted_current,
                   predicted_balanced=predicted_balanced,
                   work_to_move=work_to_move, movement_cost=movement_cost)
