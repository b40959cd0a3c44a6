"""Generic parameter sweeps over the DLB system.

A sweep varies one knob (persistence, group size, improvement
threshold, sync period, ...) across a value grid, runs every strategy
of interest at every point over the configured seeds, and returns a
:class:`SweepResult` that renders as a table or exports through
:mod:`repro.experiments.export`-compatible CSV.

The ablation benchmarks are hand-written for their specific claims;
this module is the general tool a user reaches for when exploring a
new regime ("where exactly does LD overtake GD as I shrink the
iteration size?").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from ..apps.workload import LoopSpec
from ..runtime.options import RunOptions
from .config import ExperimentConfig
from .runner import measure_loop

__all__ = ["SweepPoint", "SweepResult", "sweep", "topology_sweep", "KNOBS"]


def _set_persistence(config, options, value):
    return replace(config, persistence=float(value)), options


def _set_group_size(config, options, value):
    return config, options.but(group_size=int(value))


def _set_improvement(config, options, value):
    return config, options.but(
        policy=options.policy.but(improvement_threshold=float(value)))


def _set_sync_period(config, options, value):
    return config, options.but(sync_mode="periodic",
                               sync_period=float(value))


def _set_max_load(config, options, value):
    return replace(config, max_load=int(value)), options


#: Knob name -> (config, options, value) -> (config, options)
KNOBS: dict[str, Callable] = {
    "persistence": _set_persistence,
    "group_size": _set_group_size,
    "improvement_threshold": _set_improvement,
    "sync_period": _set_sync_period,
    "max_load": _set_max_load,
}


@dataclass
class SweepPoint:
    value: float
    means: dict[str, float]
    stds: dict[str, float] = field(default_factory=dict)
    #: Display label for non-numeric axes (e.g. a topology name);
    #: rendered instead of ``value`` when set.
    label: str = ""

    def best(self) -> str:
        return min(self.means, key=self.means.get)


@dataclass
class SweepResult:
    knob: str
    schemes: tuple[str, ...]
    points: list[SweepPoint]

    def render(self) -> str:
        head = f"{self.knob:>22s}" + "".join(f"{s:>10s}"
                                             for s in self.schemes)
        lines = [head, "-" * len(head)]
        for p in self.points:
            axis = p.label or format(p.value, "g")
            lines.append(f"{axis:>22s}" + "".join(
                f"{p.means[s]:>10.3f}" for s in self.schemes))
        return "\n".join(lines)

    def crossover(self, a: str, b: str) -> float | None:
        """First knob value at which scheme ``b`` overtakes ``a``."""
        for p in self.points:
            if p.means[b] < p.means[a]:
                return p.value
        return None


def _points(loop: LoopSpec, n_processors: int, knob: str,
            schemes: Sequence[str],
            settings: Iterable[tuple[float, str, ExperimentConfig,
                                     RunOptions]]) -> SweepResult:
    """Measure every scheme at every ``(value, label, config, options)``
    point; a point without a group size takes the config's K."""
    points = []
    for value, label, config, options in settings:
        if not options.group_size:
            options = options.but(group_size=config.group_size(n_processors))
        cells = [measure_loop(loop, n_processors, s, config, options=options)
                 for s in schemes]
        points.append(SweepPoint(
            value=float(value), label=label,
            means={c.scheme: c.mean for c in cells},
            stds={c.scheme: c.std for c in cells}))
    return SweepResult(knob=knob, schemes=tuple(schemes), points=points)


def _base(config: ExperimentConfig | None, options: RunOptions | None
          ) -> tuple[ExperimentConfig, RunOptions]:
    config = config or ExperimentConfig()
    return config, options or RunOptions(policy=config.policy,
                                         network=config.network)


def sweep(loop: LoopSpec, n_processors: int, knob: str,
          values: Sequence[float],
          schemes: Sequence[str] = ("GC", "GD", "LC", "LD"),
          config: ExperimentConfig | None = None,
          options: RunOptions | None = None) -> SweepResult:
    """Run the sweep.  See module docstring."""
    if knob not in KNOBS:
        raise KeyError(f"unknown knob {knob!r}; known: {sorted(KNOBS)}")
    config, options = _base(config, options)
    return _points(loop, n_processors, knob, schemes,
                   ((value, "", *KNOBS[knob](config, options, value))
                    for value in values))


def topology_sweep(loop: LoopSpec, n_processors: int,
                   topologies: Sequence[str] = ("bus", "ring", "mesh",
                                                "torus"),
                   schemes: Sequence[str] = ("GD", "LD", "DIFF"),
                   config: ExperimentConfig | None = None,
                   options: RunOptions | None = None) -> SweepResult:
    """Sweep the network graph instead of a numeric knob.

    Every scheme runs on every topology over the configured seeds — the
    experiment behind the topology figure/table: how much the winning
    strategy (and diffusion's competitiveness) depends on the wiring.
    ``DIFF`` on ``bus`` runs on the complete adjacency, its degenerate
    shared-medium case.
    """
    config, options = _base(config, options)
    return _points(loop, n_processors, "topology", schemes,
                   ((i, str(topology), config, options.but(topology=topology))
                    for i, topology in enumerate(topologies)))
