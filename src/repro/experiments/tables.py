"""Regeneration of the paper's Tables 1 and 2: actual vs predicted order.

Each row ranks the four DLB schemes twice — by mean *measured* time
(event simulation) and by mean *model-predicted* time (§4.2 recurrences)
— over the same set of load-realization seeds, exactly the comparison
the paper tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..apps.mxm import MxmConfig, mxm_loop
from ..apps.trfd import TrfdConfig, trfd_loop1, trfd_loop2
from .config import DEFAULT_CONFIG, ExperimentConfig, MXM_SIZES, \
    TABLE_SCHEMES, TRFD_SIZES
from .runner import _rank, measure_loop, order_agreement, predict_loop

__all__ = ["OrderRow", "TableResult", "table1", "table2",
           "table_topology"]


@dataclass
class OrderRow:
    """One parameter row: both rankings plus the agreement score."""

    label: str
    actual: tuple[str, ...]
    predicted: tuple[str, ...]
    agreement: float
    actual_means: dict[str, float] = field(default_factory=dict)
    predicted_means: dict[str, float] = field(default_factory=dict)

    @property
    def best_match(self) -> bool:
        """Did the model pick the actually-best scheme? (What the
        customized selection needs.)"""
        return self.actual[0] == self.predicted[0]


@dataclass
class TableResult:
    table_id: str
    title: str
    rows: list[OrderRow]

    @property
    def mean_agreement(self) -> float:
        return sum(r.agreement for r in self.rows) / len(self.rows)

    @property
    def best_match_rate(self) -> float:
        return sum(1 for r in self.rows if r.best_match) / len(self.rows)


def _order_row(label: str, loop, n_processors: int,
               config: ExperimentConfig,
               schemes: tuple[str, ...] = TABLE_SCHEMES,
               topology: Optional[str] = None) -> OrderRow:
    acells = {s: measure_loop(loop, n_processors, s, config,
                              topology=topology) for s in schemes}
    pcells = {s: predict_loop(loop, n_processors, s, config,
                              topology=topology) for s in schemes}
    actual, predicted = _rank(acells), _rank(pcells)
    return OrderRow(
        label=label, actual=actual, predicted=predicted,
        agreement=order_agreement(actual, predicted),
        actual_means={s: acells[s].mean for s in schemes},
        predicted_means={s: pcells[s].mean for s in schemes})


def table1(config: Optional[ExperimentConfig] = None) -> TableResult:
    """MXM actual vs predicted order (paper Table 1: 8 rows)."""
    config = config or DEFAULT_CONFIG
    rows = []
    for n_processors in (4, 16):
        for size in MXM_SIZES[n_processors]:
            loop = mxm_loop(size, op_seconds=config.mxm_op_seconds)
            rows.append(_order_row(f"P={n_processors} {size.label}",
                                   loop, n_processors, config))
    return TableResult(table_id="table1",
                       title="MXM: actual vs. predicted order", rows=rows)


def table2(config: Optional[ExperimentConfig] = None) -> TableResult:
    """TRFD per-loop actual vs predicted order (paper Table 2: 12 rows)."""
    config = config or DEFAULT_CONFIG
    rows = []
    for n_processors in (4, 16):
        for n in TRFD_SIZES:
            cfg = TrfdConfig(n)
            for loop_name, loop in (
                    ("L1", trfd_loop1(cfg, op_seconds=config.trfd_op_seconds)),
                    ("L2", trfd_loop2(cfg, op_seconds=config.trfd_op_seconds))):
                rows.append(_order_row(
                    f"P={n_processors} {cfg.label} {loop_name}",
                    loop, n_processors, config))
    return TableResult(table_id="table2",
                       title="TRFD: actual vs. predicted order", rows=rows)


def table_topology(config: Optional[ExperimentConfig] = None,
                   n_processors: int = 8,
                   topologies: tuple[str, ...] = ("bus", "ring", "mesh",
                                                  "torus"),
                   size: Optional[MxmConfig] = None) -> TableResult:
    """Actual vs predicted order across network graphs.

    Extends the paper's Table 1 methodology with a topology axis: each
    row ranks the global schemes plus diffusion on one graph, both by
    simulation and by the §4.2 model evaluated with that graph's
    characterization — the evidence that the customization decision
    stays sound off the shared bus.
    """
    config = config or DEFAULT_CONFIG
    size = size or MxmConfig(240, 200, 200)
    loop = mxm_loop(size, op_seconds=config.mxm_op_seconds)
    rows = [_order_row(f"P={n_processors} {topology}", loop, n_processors,
                       config, ("GC", "GD", "LD", "DIFF"), topology)
            for topology in topologies]
    return TableResult(table_id="table_topology",
                       title="Topologies: actual vs. predicted order",
                       rows=rows)
