"""The hybrid compile/run-time decision process (paper §4.3).

At compile time nothing commits: the compiler emits code that starts
from an equal partition and runs to the *first synchronization point*.
By then at least ``1/P`` of the work is done and — crucially — the load
function has been observed.  The master plugs the measured average
effective speeds into the §4.2 model, evaluates every strategy in the
repertoire, and commits to the best one for the rest of the loop.

:func:`model_based_selector` is that run-time step.  It is invoked by
the central balancer when a loop runs under the ``CUSTOM`` strategy and
returns the chosen scheme, the group size, and a report that the
statistics carry for post-mortem analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

from ..apps.workload import LoopSpec
from ..machine.cluster import ClusterSpec
from ..machine.load import ConstantLoad
from ..machine.workstation import Workstation
from .model.costs import default_comm_model
from .model.predictor import StrategyPrediction, rank_strategies
from .redistribution import SyncProfile
from .strategies.registry import GDDLB, strategies_for_topology

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.session import LoopSession

__all__ = ["SelectionReport", "model_based_selector", "forecast_stations"]


@dataclass(frozen=True)
class SelectionReport:
    """What the decision process saw and decided at the first sync."""

    chosen: str
    group_size: int
    predictions: tuple[StrategyPrediction, ...]
    measured_effective_loads: dict[int, float]
    remaining_work: float
    remaining_iterations: int

    def summary(self) -> str:
        ranks = ", ".join(f"{p.code}={p.total_time:.3f}s"
                          for p in self.predictions)
        return (f"selected {self.chosen} (K={self.group_size}) from "
                f"[{ranks}] with {self.remaining_iterations} iterations "
                f"left")


def forecast_stations(profiles: Sequence[SyncProfile],
                      speeds: dict[int, float],
                      persistence: float) -> list[Workstation]:
    """Forecast workstations from measured rates.

    The measured rate of processor ``i`` is its average effective speed
    ``S_i / mu_i``; the forecast assumes the observed effective load
    ``mu_i`` persists (the most recent window predicts the future,
    §3.2).  Fractional constant loads carry the measurement exactly.
    """
    stations = []
    for p in sorted(profiles, key=lambda q: q.node):
        speed = speeds[p.node]
        rate = p.rate if p.rate > 0 else speed
        mu = max(speed / rate, 1.0)
        stations.append(Workstation(
            index=p.node, speed=speed,
            load=ConstantLoad(mu - 1.0, persistence=persistence)))
    return stations


def model_based_selector(session: "LoopSession",
                         profiles: Sequence[SyncProfile]
                         ) -> tuple[str, int, SelectionReport]:
    """Choose the best strategy for the remainder of the loop (§4.3)."""
    remaining_work = sum(p.remaining_work for p in profiles)
    remaining_count = sum(p.remaining_count for p in profiles)
    speeds = {i: session.stations[i].speed for i in range(session.n)}
    mus = {p.node: max(speeds[p.node] / p.rate, 1.0) if p.rate > 0 else 1.0
           for p in profiles}

    if remaining_count <= 0 or remaining_work <= 0:
        report = SelectionReport(
            chosen=GDDLB.name, group_size=session.group_size,
            predictions=(), measured_effective_loads=mus,
            remaining_work=0.0, remaining_iterations=0)
        return GDDLB.code, session.group_size, report

    stations = forecast_stations(
        profiles, speeds,
        persistence=session.stations[0].load.persistence)
    remainder = LoopSpec(
        name=f"{session.loop.name}:rest",
        n_iterations=remaining_count,
        iteration_time=remaining_work / remaining_count,
        dc_bytes=session.loop.dc_bytes,
        ic_bytes=session.loop.ic_bytes)
    cluster = ClusterSpec.heterogeneous(
        [speeds[i] for i in sorted(speeds)], max_load=0)
    # On the bus the repertoire and the comm model are exactly the seed
    # behavior; a graph topology re-characterizes the patterns on that
    # graph and adds diffusion to the comparison.
    topology = None if session.topology.shared_medium else session.topology
    comm = default_comm_model(session.options.network, topology=topology)
    predictions = rank_strategies(
        remainder, cluster, policy=session.policy, comm=comm,
        group_size=session.group_size,
        strategies=strategies_for_topology(topology),
        stations=stations, topology=topology)
    best = predictions[0]
    report = SelectionReport(
        chosen=best.strategy, group_size=session.group_size,
        predictions=tuple(predictions), measured_effective_loads=mus,
        remaining_work=remaining_work, remaining_iterations=remaining_count)
    return best.code, session.group_size, report
