"""Regeneration of the paper's figures (data series, not pixels).

* :func:`figure4` — communication cost characterization: measured points
  and polynomial fits for OA / AO / AA over 2..16 processors.
* :func:`figure5` / :func:`figure6` — MXM normalized execution time on
  4 / 16 processors over the paper's data sizes.
* :func:`figure7` / :func:`figure8` — TRFD normalized execution time on
  4 / 16 processors for N = 30, 40, 50.

Bars are normalized to the *no-DLB* run of the same configuration
(no-DLB ≡ 1.0); the paper's claims — which scheme wins, by roughly what
factor, and where the order flips — are invariant to the normalization
reference (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..apps.mxm import MxmConfig, mxm_loop
from ..apps.trfd import TrfdConfig, trfd_loop1, trfd_loop2
from ..network.characterization import characterize_network
from .config import DEFAULT_CONFIG, ExperimentConfig, FIGURE_SCHEMES, \
    MXM_SIZES, TRFD_SIZES
from .runner import Measurement, measure_loop

__all__ = ["FigureRow", "FigureResult", "figure2", "figure4", "figure5",
           "figure6", "figure7", "figure8", "figure_topology",
           "mxm_figure", "trfd_figure"]


@dataclass
class FigureRow:
    """One group of bars: a configuration and its per-scheme values."""

    label: str
    normalized: dict[str, float]
    raw: dict[str, Measurement] = field(default_factory=dict)

    def best(self) -> str:
        dlb = {k: v for k, v in self.normalized.items() if k != "NONE"}
        return min(dlb, key=dlb.get)


@dataclass
class FigureResult:
    """All the data needed to redraw one figure."""

    figure_id: str
    title: str
    rows: list[FigureRow]
    meta: dict = field(default_factory=dict)


def _figure_row(label: str, schemes: Sequence[str],
                measure: Callable[[str], Measurement]) -> FigureRow:
    """One group of bars: each scheme measured, normalized to NONE."""
    cells = {s: measure(s) for s in schemes}
    base = cells["NONE"].mean
    return FigureRow(label=label,
                     normalized={s: cells[s].mean / base for s in schemes},
                     raw=cells)


def _in_turn(m1: Measurement, m2: Measurement) -> Measurement:
    """One cell of two loops run in turn: per-seed times and syncs add."""
    return Measurement(
        scheme=m1.scheme, times=[a + b for a, b in zip(m1.times, m2.times)],
        syncs=[a + b for a, b in zip(m1.syncs, m2.syncs)])


def _paper_figure(number: str, title: str, rows: list[FigureRow],
                  n_processors: int, config: ExperimentConfig
                  ) -> FigureResult:
    return FigureResult(
        figure_id=f"figure{number}", title=f"{title} (P={n_processors})",
        rows=rows, meta=dict(n_processors=n_processors, seeds=config.seeds))


def mxm_figure(n_processors: int,
               config: Optional[ExperimentConfig] = None,
               sizes: Optional[tuple[MxmConfig, ...]] = None) -> FigureResult:
    """MXM normalized execution time for one processor count."""
    config = config or DEFAULT_CONFIG
    rows = []
    for cfg in sizes or MXM_SIZES[n_processors]:
        loop = mxm_loop(cfg, op_seconds=config.mxm_op_seconds)
        rows.append(_figure_row(cfg.label, FIGURE_SCHEMES, lambda s: (
            measure_loop(loop, n_processors, s, config))))
    return _paper_figure("5" if n_processors == 4 else "6",
                         "Matrix multiplication", rows, n_processors, config)


def trfd_figure(n_processors: int,
                config: Optional[ExperimentConfig] = None,
                n_values: tuple[int, ...] = TRFD_SIZES) -> FigureResult:
    """TRFD normalized *total loop* execution time (L1 + L2).

    The intervening transpose is sequential and identical across
    schemes; the paper's bars compare the load-balanced portions.
    """
    config = config or DEFAULT_CONFIG
    rows = []
    for n in n_values:
        cfg = TrfdConfig(n)
        l1 = trfd_loop1(cfg, op_seconds=config.trfd_op_seconds)
        l2 = trfd_loop2(cfg, op_seconds=config.trfd_op_seconds)
        rows.append(_figure_row(cfg.label, FIGURE_SCHEMES, lambda s: _in_turn(
            measure_loop(l1, n_processors, s, config),
            measure_loop(l2, n_processors, s, config))))
    return _paper_figure("7" if n_processors == 4 else "8", "TRFD", rows,
                         n_processors, config)


def figure2(config: Optional[ExperimentConfig] = None,
            seed: int = 0, n_windows: int = 24) -> FigureResult:
    """The paper's Figure 2: one realization of the discrete random
    load function (levels per persistence window)."""
    from ..machine.load import DiscreteRandomLoad
    config = config or DEFAULT_CONFIG
    load = DiscreteRandomLoad(max_load=config.max_load,
                              persistence=config.persistence, seed=seed)
    rows = [FigureRow(label=f"t={k * config.persistence:g}s",
                      normalized={"level": float(load.window_level(k))})
            for k in range(n_windows)]
    return FigureResult(
        figure_id="figure2",
        title=f"Load function (m_l={config.max_load}, "
              f"t_l={config.persistence}s, seed={seed})",
        rows=rows,
        meta=dict(max_load=config.max_load,
                  persistence=config.persistence, seed=seed))


def figure4(config: Optional[ExperimentConfig] = None,
            proc_counts: tuple[int, ...] = tuple(range(2, 17)),
            probe_bytes: int = 64) -> FigureResult:
    """Communication cost: measured + polyfit for AA, AO, OA (§6.1)."""
    config = config or DEFAULT_CONFIG
    model = characterize_network(config.network, proc_counts=proc_counts,
                                 probe_bytes=probe_bytes)
    rows = []
    for p in proc_counts:
        normalized = {}
        raw = {}
        for pattern in ("AA", "AO", "OA"):
            fit = model.fits[pattern]
            measured = dict(fit.samples)[p]
            normalized[f"{pattern}(exp)"] = measured
            normalized[f"{pattern}(polyfit)"] = fit(p)
        rows.append(FigureRow(label=f"P={p}", normalized=normalized, raw=raw))
    return FigureResult(
        figure_id="figure4",
        title="Communication cost (measured vs polynomial fit)",
        rows=rows,
        meta=dict(latency=model.latency, bandwidth=model.bandwidth,
                  probe_bytes=probe_bytes,
                  coefficients={k: f.coefficients
                                for k, f in model.fits.items()}))


def figure_topology(config: Optional[ExperimentConfig] = None,
                    n_processors: int = 8,
                    topologies: tuple[str, ...] = ("bus", "ring", "mesh",
                                                   "torus"),
                    size: Optional[MxmConfig] = None) -> FigureResult:
    """Strategy cost across network graphs (the topology extension).

    One row per topology; bars are GD / LD / DIFF normalized to the
    static no-DLB run *on the same topology*, so each row isolates the
    balancing benefit from the raw transport cost of its graph.  This is
    the experiment the generalized substrate exists for: on the bus the
    eq.-3 global schemes win (the paper's result, unchanged), while on
    sparse graphs nearest-neighbor diffusion becomes competitive because
    its transfers never cross more than one link.
    """
    config = config or DEFAULT_CONFIG
    size = size or MxmConfig(240, 200, 200)
    loop = mxm_loop(size, op_seconds=config.mxm_op_seconds)
    rows = [_figure_row(topology, ("NONE", "GD", "LD", "DIFF"), lambda s: (
        measure_loop(loop, n_processors, s, config, topology=topology)))
        for topology in topologies]
    return FigureResult(
        figure_id="figure_topology",
        title=f"Strategies across topologies (MXM {size.label}, "
              f"P={n_processors})",
        rows=rows,
        meta=dict(n_processors=n_processors, seeds=config.seeds,
                  topologies=topologies))


def figure5(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """MXM, P=4 (paper Figure 5)."""
    return mxm_figure(4, config)


def figure6(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """MXM, P=16 (paper Figure 6)."""
    return mxm_figure(16, config)


def figure7(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """TRFD, P=4 (paper Figure 7)."""
    return trfd_figure(4, config)


def figure8(config: Optional[ExperimentConfig] = None) -> FigureResult:
    """TRFD, P=16 (paper Figure 8)."""
    return trfd_figure(16, config)
