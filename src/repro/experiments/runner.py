"""Multi-seed experiment execution: measured and predicted times.

One *measurement* is the mean loop execution time over the configured
load-realization seeds; one *prediction* evaluates the §4.2 model on
the same seeds.  Orders derived from both feed the paper's Tables 1–2;
normalized means feed Figures 5–8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..apps.workload import LoopSpec, _pairwise_sum
from ..core.model.costs import default_comm_model
from ..core.model.predictor import predict_strategy
from ..core.strategies.registry import get_strategy
from ..machine.cluster import ClusterSpec
from ..network.topology import resolve_topology
from ..runtime.executor import run_loop
from ..runtime.options import RunOptions
from .config import ExperimentConfig, TABLE_SCHEMES

__all__ = ["Measurement", "measure_loop", "predict_loop",
            "measured_order", "predicted_order", "order_agreement"]


def _mean(values: Sequence[float]) -> float:
    """``numpy.mean`` of ``values``, bit for bit: the pairwise sum over
    the count (NaN when there is nothing to average)."""
    if not values:
        return math.nan
    return _pairwise_sum([float(v) for v in values], 0, len(values)) \
        / len(values)


@dataclass
class Measurement:
    """Mean and per-seed samples of one (loop, P, scheme) cell.

    The statistics are numpy's ``mean`` / ``std`` (population), bit for
    bit, computed in Python floats.
    """

    scheme: str
    times: list[float] = field(default_factory=list)
    syncs: list[int] = field(default_factory=list)
    moves: list[int] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return _mean(self.times)

    @property
    def std(self) -> float:
        mean = self.mean
        return math.sqrt(_mean([(t - mean) * (t - mean) for t in self.times]))

    @property
    def mean_syncs(self) -> float:
        return _mean(self.syncs) if self.syncs else 0.0


def _cluster(n_processors: int, seed: int,
             config: ExperimentConfig) -> ClusterSpec:
    return ClusterSpec.homogeneous(
        n_processors, max_load=config.max_load,
        persistence=config.persistence, seed=seed)


def measure_loop(loop: LoopSpec, n_processors: int, scheme: str,
                 config: ExperimentConfig,
                 seeds: Optional[Sequence[int]] = None,
                 topology: Optional[str] = None,
                 options: Optional[RunOptions] = None) -> Measurement:
    """Run the event simulation over all seeds for one scheme.

    The runs take ``options`` when given; else the config's own policy,
    network and group size, on ``topology``.
    """
    seeds = tuple(seeds) if seeds is not None else config.seeds
    if options is None:
        options = RunOptions(policy=config.policy, network=config.network,
                             group_size=config.group_size(n_processors),
                             topology=topology)
    out = Measurement(scheme=scheme)
    for seed in seeds:
        stats = run_loop(loop, _cluster(n_processors, seed, config),
                         scheme, options=options)
        out.times.append(stats.duration)
        out.syncs.append(stats.n_syncs)
        out.moves.append(stats.n_redistributions)
    return out


def predict_loop(loop: LoopSpec, n_processors: int, scheme: str,
                 config: ExperimentConfig,
                 seeds: Optional[Sequence[int]] = None,
                 movement_model: str = "overlap",
                 topology: Optional[str] = None) -> Measurement:
    """Evaluate the §4.2 model over the same seeds for one scheme."""
    seeds = tuple(seeds) if seeds is not None else config.seeds
    resolved = None
    if topology is not None:
        resolved = resolve_topology(topology, n_processors)
        if resolved.shared_medium:
            resolved = None
    comm = default_comm_model(config.network, topology=resolved)
    spec = get_strategy(scheme)
    out = Measurement(scheme=scheme)
    for seed in seeds:
        pred = predict_strategy(
            loop, _cluster(n_processors, seed, config), spec,
            policy=config.policy, comm=comm,
            group_size=config.group_size(n_processors),
            movement_model=movement_model, topology=resolved)
        out.times.append(pred.total_time)
        out.syncs.append(pred.n_syncs)
        out.moves.append(pred.n_moves)
    return out


def measured_order(loop: LoopSpec, n_processors: int,
                   config: ExperimentConfig,
                   schemes: Sequence[str] = TABLE_SCHEMES
                   ) -> tuple[tuple[str, ...], dict[str, Measurement]]:
    """Rank schemes by mean simulated time (best first)."""
    cells = {s: measure_loop(loop, n_processors, s, config) for s in schemes}
    return _rank(cells), cells


def predicted_order(loop: LoopSpec, n_processors: int,
                    config: ExperimentConfig,
                    schemes: Sequence[str] = TABLE_SCHEMES,
                    movement_model: str = "overlap"
                    ) -> tuple[tuple[str, ...], dict[str, Measurement]]:
    """Rank schemes by mean model-predicted time (best first)."""
    cells = {s: predict_loop(loop, n_processors, s, config,
                             movement_model=movement_model)
             for s in schemes}
    return _rank(cells), cells


def _rank(cells: dict[str, Measurement]) -> tuple[str, ...]:
    """The schemes of ``cells``, lowest mean first."""
    return tuple(sorted(cells, key=lambda s: cells[s].mean))


def order_agreement(actual: Sequence[str], predicted: Sequence[str]) -> float:
    """Fraction of scheme pairs ranked identically (Kendall-style).

    1.0 = identical orders; 0.0 = fully reversed.  The paper claims the
    predicted orders match "very closely" (MXM) / "reasonably" (TRFD).
    """
    if set(actual) != set(predicted):
        raise ValueError("orders rank different scheme sets")
    rank_a = {s: i for i, s in enumerate(actual)}
    rank_p = {s: i for i, s in enumerate(predicted)}
    schemes = list(actual)
    agree = total = 0
    for i in range(len(schemes)):
        for j in range(i + 1, len(schemes)):
            a, b = schemes[i], schemes[j]
            same = ((rank_a[a] - rank_a[b]) * (rank_p[a] - rank_p[b])) > 0
            agree += 1 if same else 0
            total += 1
    return agree / total if total else 1.0
