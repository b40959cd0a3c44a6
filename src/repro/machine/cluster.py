"""Cluster construction: groups of workstations with seeded load.

:class:`ClusterSpec` is the declarative description used by experiment
configs ("16 homogeneous SPARC LX's with m_l = 5, t_l = 2 s, seed 7");
:meth:`ClusterSpec.build` instantiates fresh :class:`Workstation` objects
with *independent* per-processor load streams derived from the spec seed,
so the event simulation and the analytical model can each build an
identical cluster and see identical load realizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .load import (ConstantLoad, DiscreteRandomLoad, LoadFunction, Shuffler,
                   TraceLoad, _check_levels, _child_seeds)
from .workstation import Workstation

__all__ = ["ClusterSpec", "build_groups", "form_groups"]


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of a network of workstations.

    Attributes
    ----------
    speeds:
        One relative speed per processor; ``len(speeds)`` is ``P``.
    max_load:
        ``m_l`` for the discrete random load (paper experiments: 5).
        ``0`` means dedicated machines (no external load).
    persistence:
        ``t_l`` in seconds.
    seed:
        Master seed; per-processor load seeds are spawned from it so the
        streams are independent yet reproducible.
    load_traces:
        Optional explicit level traces (one per processor) overriding the
        random generator — used by tests and adversarial scenarios.
    """

    speeds: tuple[float, ...]
    max_load: int = 5
    persistence: float = 2.0
    seed: int = 0
    load_traces: Optional[tuple[tuple[int, ...], ...]] = field(default=None)

    def __post_init__(self) -> None:
        if len(self.speeds) < 1:
            raise ValueError("cluster needs at least one processor")
        if any(s <= 0 for s in self.speeds):
            raise ValueError("speeds must be positive")
        if self.max_load < 0:
            raise ValueError("max_load must be non-negative")
        if self.persistence <= 0:
            raise ValueError("persistence must be positive")
        if self.load_traces is not None:
            if len(self.load_traces) != len(self.speeds):
                raise ValueError("need one load trace per processor")
            for trace in self.load_traces:
                _check_levels(trace)

    @property
    def n_processors(self) -> int:
        return len(self.speeds)

    @staticmethod
    def homogeneous(n: int, speed: float = 1.0, max_load: int = 5,
                    persistence: float = 2.0, seed: int = 0) -> "ClusterSpec":
        """The paper's setting: ``n`` identical workstations."""
        return ClusterSpec(speeds=(float(speed),) * n, max_load=max_load,
                           persistence=persistence, seed=seed)

    @staticmethod
    def heterogeneous(speeds: Sequence[float], max_load: int = 5,
                      persistence: float = 2.0, seed: int = 0) -> "ClusterSpec":
        return ClusterSpec(speeds=tuple(float(s) for s in speeds),
                           max_load=max_load, persistence=persistence,
                           seed=seed)

    def build(self) -> list[Workstation]:
        """Instantiate the workstations with fresh, seeded load streams."""
        stations = []
        for i, speed in enumerate(self.speeds):
            if self.load_traces is not None:
                load: LoadFunction = TraceLoad(self.load_traces[i],
                                               persistence=self.persistence)
            elif self.max_load == 0:
                load = ConstantLoad(0, persistence=self.persistence)
            else:
                load = DiscreteRandomLoad(
                    max_load=self.max_load, persistence=self.persistence,
                    seed=_child_seeds(self.seed, self.n_processors)[i])
            stations.append(Workstation(index=i, speed=speed, load=load))
        return stations

    def reseeded(self, seed: int) -> "ClusterSpec":
        """Same cluster, different load realization (for multi-seed runs)."""
        return ClusterSpec(speeds=self.speeds, max_load=self.max_load,
                           persistence=self.persistence, seed=seed,
                           load_traces=self.load_traces)


def build_groups(n_processors: int, group_size: int,
                 formation: str = "block",
                 seed: int = 0) -> list[list[int]]:
    """Partition processors into fixed groups of size ``K`` (paper §3.5).

    The paper names three formation rules and evaluates K-block; all
    three are implemented for the group-formation ablation:

    * ``"block"`` — contiguous K-blocks (also what "K nearest
      neighbors" degenerates to when proximity is index order);
    * ``"interleaved"`` — round-robin assignment (group ``i % G``),
      i.e. a CYCLIC partition of the processors;
    * ``"random"`` — a seeded random permutation cut into K-blocks.

    The last group absorbs the remainder when ``group_size`` does not
    divide ``n_processors``; a trailing singleton is merged into the
    previous group (a lone processor can never rebalance).
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if formation not in ("block", "interleaved", "random"):
        raise ValueError(f"unknown group formation {formation!r}")
    if group_size > n_processors:
        group_size = n_processors

    if formation == "interleaved":
        n_groups = max(1, n_processors // group_size)
        groups = [list(range(g, n_processors, n_groups))
                  for g in range(n_groups)]
        groups = [g for g in groups if g]
    else:
        order = list(range(n_processors))
        if formation == "random":
            order = Shuffler(seed).permutation(n_processors)
        groups = []
        start = 0
        while start < n_processors:
            end = min(start + group_size, n_processors)
            groups.append(sorted(order[start:end]))
            start = end
    if len(groups) > 1 and len(groups[-1]) == 1:
        groups[-2].extend(groups[-1])
        groups[-2].sort()
        groups.pop()
    return groups


def form_groups(strategy, n_processors: int, group_size: int,
                formation: str = "block", seed: int = 0) -> list[list[int]]:
    """The synchronization domains of ``strategy`` (a
    :class:`~repro.core.strategies.base.StrategySpec`): the whole
    machine for a global or non-balancing scheme, else
    :func:`build_groups`.  The run set-up, the §4.3 regrouping and the
    §4.2 predictor all form their groups here."""
    if strategy.global_scope or not strategy.is_dlb:
        return [list(range(n_processors))]
    return build_groups(n_processors, group_size, formation=formation,
                        seed=seed)
