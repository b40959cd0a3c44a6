"""TRFD workload (paper §6.3) — Perfect Benchmarks two-electron integral
transformation, reduced to the loop/work/data structure the paper gives.

Structure: two main computation loop nests with an intervening transpose
that is sequentialized on the master.  The single major array has size
``M x M`` with ``M = n(n+1)/2`` and is distributed in column blocks, so
the data communication per migrated iteration is one column — ``M``
elements ("DC is simply the row size").

* **Loop 1** is uniform: ``M`` iterations, each costing
  ``n^3 + 3n^2 + n`` basic operations.
* **Loop 2** is triangular: iteration ``j`` (1-based) costs
  ``n^3 + 3n^2 + n(1 + i/2 - i^2/2) + (i - i^2)`` operations with
  ``i = (1 + sqrt(8j - 7)) / 2``.  The paper transforms it into a
  (near-)uniform loop with the **bitonic scheduling** technique of
  Cierniak/Li/Zaki: iterations ``j`` and ``M - j + 1`` are combined, for
  ``ceil(M/2)`` scheduled iterations of roughly constant cost — loop 2
  then has almost double the per-iteration work of loop 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

from .mxm import BASE_OP_SECONDS, ELEMENT_BYTES
from .workload import ApplicationSpec, LoopSpec, SequentialStage

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TrfdConfig", "trfd_loop1", "trfd_loop2", "trfd_application",
           "loop2_iteration_ops", "bitonic_pair_costs", "PAPER_TRFD_N"]

#: The paper's input parameter values (array sizes 465 / 820 / 1275).
PAPER_TRFD_N = (30, 40, 50)


@dataclass(frozen=True)
class TrfdConfig:
    """TRFD input parameter ``n`` and derived sizes."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")

    @property
    def m(self) -> int:
        """Array dimension ``M = n(n+1)/2`` (also loop-1 trip count)."""
        return self.n * (self.n + 1) // 2

    @property
    def label(self) -> str:
        return f"N={self.n} ({self.m})"

    @property
    def loop1_iteration_ops(self) -> int:
        """Uniform loop-1 work: ``n^3 + 3n^2 + n`` basic operations."""
        return self.n ** 3 + 3 * self.n ** 2 + self.n

    @property
    def dc_bytes(self) -> int:
        """One migrated column: ``M`` elements."""
        return self.m * ELEMENT_BYTES


def loop2_iteration_ops(config: TrfdConfig) -> tuple[float, ...]:
    """Raw (untransformed) triangular loop-2 costs for ``j = 1..M``.

    Implements the paper's formula verbatim; the result is a decreasing
    sequence from the loop-1 cost down to roughly half of it.  Each
    cost is the float the vectorized formula gives, bit for bit: the
    same operations in the same order, ``i ** 2`` as ``i * i``.
    """
    n = config.n
    head = n ** 3 + 3.0 * n ** 2
    ops = []
    for j in range(1, config.m + 1):
        i = (1.0 + math.sqrt(8.0 * j - 7.0)) / 2.0
        ii = i * i
        ops.append(max(head + n * (1.0 + i / 2.0 - ii / 2.0) + (i - ii),
                       1.0))
    return tuple(ops)


def bitonic_pair_costs(costs: Union[Sequence[float], np.ndarray]
                       ) -> tuple[float, ...]:
    """Bitonic scheduling transform: combine iterations ``j`` and
    ``M - j + 1`` into one scheduled iteration (paper §6.3).

    For odd ``M`` the middle iteration stays unpaired, giving
    ``ceil(M/2)`` scheduled iterations (the paper's ``n(n+1)/4``).
    """
    costs = [float(c) for c in costs]
    m = len(costs)
    half = m // 2
    paired = [costs[k] + costs[m - 1 - k] for k in range(half)]
    if m % 2:
        paired.append(costs[half])
    return tuple(paired)


def trfd_loop1(config: TrfdConfig,
               op_seconds: float = BASE_OP_SECONDS) -> LoopSpec:
    """Loop 1: uniform, ``M`` iterations."""
    return LoopSpec(
        name="trfd-L1",
        n_iterations=config.m,
        iteration_time=config.loop1_iteration_ops * op_seconds,
        dc_bytes=config.dc_bytes,
        ic_bytes=0,
        input_bytes=config.dc_bytes,
        result_bytes=config.dc_bytes,
    )


def trfd_loop2(config: TrfdConfig, op_seconds: float = BASE_OP_SECONDS,
               bitonic: bool = True) -> LoopSpec:
    """Loop 2: triangular; bitonic-transformed to near-uniform by default.

    ``bitonic=False`` keeps the raw decreasing costs — used by the
    ablation that measures what the transform buys.
    """
    costs = loop2_iteration_ops(config)
    dc = config.dc_bytes
    if bitonic:
        costs = bitonic_pair_costs(costs)
        dc *= 2  # a scheduled iteration carries two columns
    return LoopSpec(
        name="trfd-L2",
        n_iterations=len(costs),
        iteration_time=tuple(c * op_seconds for c in costs),
        dc_bytes=dc,
        ic_bytes=0,
        input_bytes=dc,
        result_bytes=dc,
    )


def transpose_stage(config: TrfdConfig,
                    op_seconds: float = BASE_OP_SECONDS) -> SequentialStage:
    """The sequentialized transpose between the two loops.

    All processors send their column blocks to the master, the master
    transposes (``M^2`` element moves), then loop 2 starts from a fresh
    equal distribution.
    """
    m2 = config.m * config.m
    return SequentialStage(
        name="trfd-transpose",
        compute_seconds=0.5 * m2 * op_seconds,
        gather_bytes=m2 * ELEMENT_BYTES,
        scatter_bytes=m2 * ELEMENT_BYTES,
    )


def trfd_application(config: TrfdConfig,
                     op_seconds: float = BASE_OP_SECONDS,
                     bitonic: bool = True) -> ApplicationSpec:
    """The full TRFD pipeline: loop 1, transpose, loop 2."""
    return ApplicationSpec(
        name=f"TRFD({config.label})",
        stages=(
            trfd_loop1(config, op_seconds),
            transpose_stage(config, op_seconds),
            trfd_loop2(config, op_seconds, bitonic=bitonic),
        ),
        description="Two-electron integral transformation (Perfect suite)",
    )
