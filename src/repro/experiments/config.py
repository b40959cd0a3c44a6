"""Experiment configuration: the paper's parameter grid plus our
calibration choices (documented in EXPERIMENTS.md).

Calibration notes
-----------------
* ``max_load = 5`` is the paper's setting (§4.1).
* ``persistence`` (``t_l``) is not reported by the paper; 5 seconds
  relative to run lengths of tens of seconds gives load that is stable
  enough for measurement-based redistribution to pay off but transient
  enough that static scheduling loses badly — the regime the paper
  describes.
* ``op_seconds = 1e-7`` (10 M basic ops/s) models the SPARC LX-class
  base processor; only ratios matter for the reproduced claims.
* Each data point is the mean over ``seeds`` independent load
  realizations (the paper averages repeated runs; it does not state how
  many).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..apps.mxm import MxmConfig, PAPER_MXM_P16, PAPER_MXM_P4
from ..apps.trfd import PAPER_TRFD_N
from ..core.policy import DlbPolicy
from ..network.parameters import NetworkParameters

__all__ = ["ExperimentConfig", "DEFAULT_CONFIG", "default_seed_count"]

#: All five bars of the paper's figures, in presentation order.
FIGURE_SCHEMES = ("NONE", "GC", "GD", "LC", "LD")
#: The four DLB schemes ranked in the tables.
TABLE_SCHEMES = ("GC", "GD", "LC", "LD")


def default_seed_count(fallback: int = 10) -> int:
    """Seeds per data point; override with ``REPRO_SEEDS`` for speed."""
    value = os.environ.get("REPRO_SEEDS", "")
    try:
        return max(1, int(value))
    except ValueError:
        return fallback


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the reproduction experiments."""

    max_load: int = 5
    persistence: float = 5.0
    op_seconds: float = 1.0e-7
    # Per-application base-processor calibration (see EXPERIMENTS.md):
    # the paper's "basic operation" counts undercount real memory-bound
    # iteration cost; these rates land each application in the paper's
    # computation/communication regime.
    mxm_op_seconds: float = 4.0e-7
    trfd_op_seconds: float = 3.0e-7
    n_seeds: int = field(default_factory=default_seed_count)
    base_seed: int = 1000
    group_count: int = 2   # the paper's local strategies use two groups
    policy: DlbPolicy = field(default_factory=DlbPolicy)
    network: NetworkParameters = field(default_factory=NetworkParameters)

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(self.base_seed + i for i in range(self.n_seeds))

    def group_size(self, n_processors: int) -> int:
        """K for the local strategies: P split into ``group_count`` groups."""
        return max(1, (n_processors + self.group_count - 1)
                   // self.group_count)


DEFAULT_CONFIG = ExperimentConfig()

#: MXM data sizes per processor count (paper Figures 5 and 6).
MXM_SIZES: dict[int, tuple[MxmConfig, ...]] = {
    4: PAPER_MXM_P4,
    16: PAPER_MXM_P16,
}

#: TRFD input parameters (paper Figures 7 and 8).
TRFD_SIZES: tuple[int, ...] = PAPER_TRFD_N
