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

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..apps.workload import LoopSpec
from ..machine.cluster import ClusterSpec
from ..runtime.executor import run_loop
from ..runtime.options import RunOptions
from .config import ExperimentConfig
from .runner import Measurement

__all__ = ["SweepPoint", "SweepResult", "sweep", "topology_sweep", "KNOBS"]


def _set_persistence(config, options, value):
    from dataclasses import replace
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
    from dataclasses import replace
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


def sweep(loop: LoopSpec, n_processors: int, knob: str,
          values: Sequence[float],
          schemes: Sequence[str] = ("GC", "GD", "LC", "LD"),
          config: ExperimentConfig | None = None,
          options: RunOptions | None = None) -> SweepResult:
    """Run the sweep.  See module docstring."""
    if knob not in KNOBS:
        raise KeyError(f"unknown knob {knob!r}; known: {sorted(KNOBS)}")
    base_config = config or ExperimentConfig()
    base_options = options or RunOptions(policy=base_config.policy,
                                         network=base_config.network)
    apply_knob = KNOBS[knob]
    points = []
    for value in values:
        cfg, opts = apply_knob(base_config, base_options, value)
        if not opts.group_size:
            opts = opts.but(group_size=cfg.group_size(n_processors))
        means = {}
        stds = {}
        for scheme in schemes:
            times = []
            for seed in cfg.seeds:
                cluster = ClusterSpec.homogeneous(
                    n_processors, max_load=cfg.max_load,
                    persistence=cfg.persistence, seed=seed)
                times.append(run_loop(loop, cluster, scheme,
                                      options=opts).duration)
            cell = Measurement(scheme, times)
            means[scheme], stds[scheme] = cell.mean, cell.std
        points.append(SweepPoint(value=float(value), means=means,
                                 stds=stds))
    return SweepResult(knob=knob, schemes=tuple(schemes), points=points)


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
    cfg = config or ExperimentConfig()
    base_options = options or RunOptions(policy=cfg.policy,
                                         network=cfg.network)
    points = []
    for i, topology in enumerate(topologies):
        opts = base_options.but(topology=topology)
        if not opts.group_size:
            opts = opts.but(group_size=cfg.group_size(n_processors))
        means = {}
        stds = {}
        for scheme in schemes:
            times = []
            for seed in cfg.seeds:
                cluster = ClusterSpec.homogeneous(
                    n_processors, max_load=cfg.max_load,
                    persistence=cfg.persistence, seed=seed)
                times.append(run_loop(loop, cluster, scheme,
                                      options=opts).duration)
            cell = Measurement(scheme, times)
            means[scheme], stds[scheme] = cell.mean, cell.std
        points.append(SweepPoint(value=float(i), means=means, stds=stds,
                                 label=str(topology)))
    return SweepResult(knob="topology", schemes=tuple(schemes),
                       points=points)
