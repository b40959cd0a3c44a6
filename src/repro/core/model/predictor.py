"""The §4.2 recurrence solver: predicted total cost per strategy.

The model plays the paper's recurrences forward.  Between two
synchronization points every active processor computes; the first one
to exhaust its assignment (eq. 1 / eq. 2 solved through the shared
:class:`~repro.machine.workstation.Workstation` time math) defines the
synchronization time.  Effective loads over the window give the average
effective speeds (the ``S_i / mu_i(j)`` of §4.2); the *same*
redistribution planner the run-time system uses (eq. 3 + the §3.3/3.4
thresholds) yields the new distribution, the amount of work moved
``Phi(j)``, and the message count ``gamma(j)``; the cost terms of
:mod:`repro.core.model.costs` then advance the group's clock.

For the local strategies, every group runs its own recurrence; the
single central balancer of LCDLB is a shared serial resource, which
reproduces the paper's *delay factor* (waiting time while the balancer
serves other groups).  The total cost of a local strategy is the time
of the last group to finish.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from ...apps.workload import LoopSpec, WorkTable
from ...machine.cluster import ClusterSpec, form_groups
from ...machine.workstation import Workstation
from ...network.characterization import CommCostModel
from ...network.topology import Topology
from ..diffusion import plan_diffusion
from ..policy import DlbPolicy
from ..redistribution import (
    make_movement_cost_estimator,
    plan_redistribution,
    SyncProfile,
)
from ..strategies.base import StrategySpec
from ..strategies.registry import ALL_DLB_STRATEGIES, NO_DLB
from .costs import default_comm_model, strategy_sync_costs

__all__ = ["StrategyPrediction", "predict_strategy", "rank_strategies",
           "predict_no_dlb"]

_TINY = 1e-12
_MAX_SYNCS = 100_000


@dataclass(frozen=True)
class StrategyPrediction:
    """Predicted behavior of one strategy on one loop."""

    strategy: str
    code: str
    total_time: float
    n_syncs: int
    n_moves: int
    work_moved: float
    group_finish_times: tuple[float, ...]

    def __lt__(self, other: "StrategyPrediction") -> bool:
        return self.total_time < other.total_time


@dataclass
class _GroupState:
    members: list[int]
    active: list[int]
    work: dict[int, float]
    now: float = 0.0
    done: bool = False
    syncs: int = 0
    moves: int = 0
    moved: float = 0.0


def _initial_work(loop: LoopSpec, n: int) -> list[float]:
    """Work of each processor's initial equal block (compiler default)."""
    table = loop.work_table()
    base, extra = divmod(loop.n_iterations, n)
    out = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        out.append(table.range_work(start, start + size) if size else 0.0)
        start += size
    return out


def _next_finish(stations: Sequence[Workstation], group: _GroupState
                 ) -> tuple[float, int]:
    """Earliest completion time among the group's active processors."""
    best_t, best_i = float("inf"), -1
    for i in group.active:
        w = group.work[i]
        t = group.now if w <= _TINY else stations[i].time_to_complete(
            group.now, w)
        if t < best_t or (t == best_t and i < best_i):
            best_t, best_i = t, i
    return best_t, best_i


def predict_strategy(loop: LoopSpec, cluster: ClusterSpec,
                     strategy: StrategySpec,
                     policy: Optional[DlbPolicy] = None,
                     comm: Optional[CommCostModel] = None,
                     group_size: int = 0,
                     stations: Optional[Sequence[Workstation]] = None,
                     movement_model: str = "overlap",
                     topology: Optional[Topology] = None
                     ) -> StrategyPrediction:
    """Solve the model for one strategy.

    ``stations`` may be supplied directly (the run-time decision process
    passes forecast workstations built from measured effective loads);
    otherwise they are built from ``cluster`` so model and simulation
    see the same load realization.

    ``topology`` feeds two places: the communication model (when no
    ``comm`` is supplied, the characterization runs on that graph) and
    the diffusion strategy's planner, whose flows follow its edges.
    """
    policy = policy or DlbPolicy()
    comm = comm or default_comm_model(topology=topology)
    if stations is None:
        stations = cluster.build()
    n = len(stations)
    if strategy.code == "NONE":
        return predict_no_dlb(loop, cluster, stations=stations)

    k = group_size or strategy.group_size or max(1, (n + 1) // 2)
    group_lists = form_groups(strategy, n, k)

    costs = strategy_sync_costs(strategy, comm, policy,
                                movement_model=movement_model)
    table = loop.work_table()
    mean_iter = table.total_work / table.n
    # The planners cut orders from tails: here, one mean-cost block each.
    mean_table = WorkTable(mean_iter, table.n)
    initial = _initial_work(loop, n)
    movement_cost_fn = None
    if policy.include_movement_cost:
        movement_cost_fn = make_movement_cost_estimator(
            comm.latency, comm.bandwidth, loop.dc_bytes, mean_iter)

    if strategy.code == "DIFF":
        diff_topology = topology if topology is not None \
            else Topology.bus(n)

        def run_planner(profiles: Sequence[SyncProfile]):
            return plan_diffusion(profiles, diff_topology, policy,
                                  mean_table, movement_cost_fn)
    else:
        def run_planner(profiles: Sequence[SyncProfile]):
            return plan_redistribution(profiles, policy, mean_table,
                                       movement_cost_fn)

    groups = [_GroupState(members=m, active=list(m),
                          work={i: initial[i] for i in m})
              for m in group_lists]
    # The central balancer is one serial resource across all groups
    # (the LCDLB delay factor); distributed schemes have no such queue.
    lb_free = 0.0

    # Event loop over groups ordered by their next synchronization time.
    heap: list[tuple[float, int]] = []
    for gi, g in enumerate(groups):
        t, _ = _next_finish(stations, g)
        heapq.heappush(heap, (t, gi))

    total_syncs = 0
    while heap:
        t_sync, gi = heapq.heappop(heap)
        g = groups[gi]
        if g.done:
            continue
        # Recompute (work amounts may have changed since queued).
        t_now, _f = _next_finish(stations, g)
        if t_now > t_sync + _TINY:
            heapq.heappush(heap, (t_now, gi))
            continue
        t_sync = max(t_now, g.now)

        # -- progress all members to the synchronization point ----------
        rates: dict[int, float] = {}
        elapsed = t_sync - g.now
        for i in g.active:
            ws = stations[i]
            cap = ws.capacity(g.now, t_sync) if elapsed > _TINY else 0.0
            done_work = min(cap, g.work[i])
            g.work[i] -= done_work
            if g.work[i] < _TINY:
                g.work[i] = 0.0
            # Average effective speed S_i/mu_i over the window (§4.2).
            rates[i] = (ws.average_effective_speed(g.now, t_sync)
                        if elapsed > _TINY else ws.speed)
        g.now = t_sync
        g.syncs += 1
        total_syncs += 1
        if total_syncs > _MAX_SYNCS:  # pragma: no cover - safety net
            raise RuntimeError("model did not converge (too many syncs)")

        # -- synchronization communication -------------------------------
        k_active = len(g.active)
        overhead = costs.synchronization(k_active)

        # -- central balancer queueing (delay factor) ---------------------
        service = costs.calculation()
        if strategy.centralized:
            start = max(g.now + overhead, lb_free)
            wait = start - (g.now + overhead)
            lb_free = start + service
            overhead += wait + service
        else:
            overhead += service

        # -- plan with the shared decision logic --------------------------
        counts = {i: max(1, round(g.work[i] / mean_iter))
                  if g.work[i] > 0 else 0 for i in g.active}
        profiles = [SyncProfile(node=i, remaining_work=g.work[i],
                                remaining_count=counts[i], rate=rates[i],
                                ranges=((0, counts[i]),))
                    for i in sorted(g.active)]
        plan = run_planner(profiles)

        if plan.done:
            g.now += overhead
            g.done = True
            continue

        # Instructions go to every active member (see SyncCosts docs).
        overhead += costs.instructions(k_active)
        if plan.move:
            overhead += costs.data_movement(
                tuple(t.work for t in plan.transfers),
                loop.dc_bytes, mean_iter)
            g.moves += 1
            g.moved += plan.work_to_move
            for i in list(g.work):
                g.work[i] = plan.shares.get(i, 0.0)
        g.active = [i for i in g.active if i in plan.active]
        g.now += overhead

        if not g.active:
            g.done = True
            continue
        t_next, _ = _next_finish(stations, g)
        heapq.heappush(heap, (t_next, gi))

    finish_times = tuple(g.now for g in groups)
    return StrategyPrediction(
        strategy=strategy.name, code=strategy.code,
        total_time=max(finish_times),
        n_syncs=sum(g.syncs for g in groups),
        n_moves=sum(g.moves for g in groups),
        work_moved=sum(g.moved for g in groups),
        group_finish_times=finish_times)


def predict_no_dlb(loop: LoopSpec, cluster: ClusterSpec,
                   stations: Optional[Sequence[Workstation]] = None
                   ) -> StrategyPrediction:
    """Static equal-block baseline: time of the slowest processor."""
    if stations is None:
        stations = cluster.build()
    initial = _initial_work(loop, len(stations))
    finish = tuple(
        stations[i].time_to_complete(0.0, w) if w > 0 else 0.0
        for i, w in enumerate(initial))
    return StrategyPrediction(strategy=NO_DLB.name, code=NO_DLB.code,
                              total_time=max(finish), n_syncs=0, n_moves=0,
                              work_moved=0.0, group_finish_times=finish)


def rank_strategies(loop: LoopSpec, cluster: ClusterSpec,
                    policy: Optional[DlbPolicy] = None,
                    comm: Optional[CommCostModel] = None,
                    group_size: int = 0,
                    strategies: Sequence[StrategySpec] = ALL_DLB_STRATEGIES,
                    stations: Optional[Sequence[Workstation]] = None,
                    movement_model: str = "overlap",
                    topology: Optional[Topology] = None
                    ) -> list[StrategyPrediction]:
    """Predict every strategy and sort best-first (the §4.3 decision).

    Note: each prediction rebuilds the cluster's workstations so every
    strategy sees the *same* load realization.
    """
    out = []
    for spec in strategies:
        st = list(stations) if stations is not None else cluster.build()
        out.append(predict_strategy(loop, cluster, spec, policy=policy,
                                    comm=comm, group_size=group_size,
                                    stations=st,
                                    movement_model=movement_model,
                                    topology=topology))
    return sorted(out)
