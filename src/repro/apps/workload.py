"""Workload descriptions: the paper's *program parameters* (§4.1).

A :class:`LoopSpec` captures everything the run-time system and the
analytical model need to know about one parallel loop: the number of
iterations ``I``, the time per iteration on the base processor ``T_j``
(uniform scalar or per-iteration array), the per-iteration data
communication ``DC`` in bytes, and the intrinsic communication ``IC``
(zero for both of the paper's applications — they are doall loops).

:class:`WorkTable` is the prefix-sum machinery that converts between
iteration counts and work (base-processor seconds) for non-uniform
loops; the uniform case has O(1) fast paths.  :class:`ApplicationSpec`
groups the loops of a program with the sequential stages between them
(TRFD's transpose).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, sub
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = ["WorkTable", "LoopSpec", "SequentialStage", "ApplicationSpec"]


def _cost_list(costs) -> list[float]:
    """A cost sequence (tuple, list, 1-D array) as a list of Python floats."""
    if hasattr(costs, "tolist"):  # an ndarray, read without importing numpy
        costs = costs.tolist()
    try:
        values = [float(c) for c in costs]
    except TypeError:  # 0-D, or an element that is itself a sequence
        values = []
    if not values:
        raise ValueError("costs must be a non-empty 1-D array")
    return values


def _check_costs(values: Sequence[float]) -> None:
    """Refuse a cost that is not positive and finite (NaN included)."""
    if not all(0.0 < v < math.inf for v in values):
        bad = "positive" if any(v <= 0 for v in values) else "finite"
        raise ValueError(f"iteration costs must be {bad}")


#: numpy's ``PW_BLOCKSIZE``: the longest run summed without splitting.
_PW_BLOCKSIZE = 128


def _pairwise_sum(values: Sequence[float], start: int, stop: int) -> float:
    """``values[start:stop]`` summed as numpy's float64 ``add.reduce``
    sums it, bit for bit: below 8 left to right, up to
    :data:`_PW_BLOCKSIZE` in 8 strided accumulators, above that split in
    two at a multiple of 8.  Explicit ``+`` throughout: the built-in
    ``sum`` compensates float rounding from Python 3.12 on.
    """
    n = stop - start
    if n < 8:
        return reduce(add, values[start:stop], 0.0)
    if n <= _PW_BLOCKSIZE:
        blocks = stop - n % 8
        r = [reduce(add, values[j:blocks:8]) for j in range(start, start + 8)]
        total = (((r[0] + r[1]) + (r[2] + r[3]))
                 + ((r[4] + r[5]) + (r[6] + r[7])))
        return reduce(add, values[blocks:stop], total)
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(values, start, start + half)
            + _pairwise_sum(values, start + half, stop))


class WorkTable:
    """Iteration-cost table with count/work conversions.

    All costs are seconds on the base (speed 1, unloaded) processor.
    A cost sequence is prefix-summed once, left to right (bit for bit
    ``numpy.cumsum``); queries bisect that prefix sum as a list of Python
    floats and answer in built-in ``float`` / ``int``.
    """

    def __init__(self, costs: Union[float, np.ndarray, Sequence[float]],
                 n_iterations: Optional[int] = None) -> None:
        if isinstance(costs, numbers.Real):
            if n_iterations is None:
                raise ValueError("uniform cost needs n_iterations")
            _check_costs((float(costs),))
            if n_iterations < 1:
                raise ValueError("need at least one iteration")
            self.n = int(n_iterations)
            self.uniform_cost: Optional[float] = float(costs)
            self._cum: Optional[list[float]] = None
        else:
            values = _cost_list(costs)
            _check_costs(values)
            if n_iterations is not None and n_iterations != len(values):
                raise ValueError("n_iterations disagrees with costs array")
            self.n = len(values)
            self.uniform_cost = None
            self._cum = [0.0, *accumulate(values)]

    @property
    def uniform(self) -> bool:
        return self.uniform_cost is not None

    @property
    def total_work(self) -> float:
        if self.uniform_cost is not None:
            return self.n * self.uniform_cost
        return self._cum[-1]

    def cost(self, j: int) -> float:
        """Cost of iteration ``j`` (0-based)."""
        if not 0 <= j < self.n:
            raise IndexError(f"iteration {j} out of range")
        if self.uniform_cost is not None:
            return self.uniform_cost
        return self._cum[j + 1] - self._cum[j]

    def range_work(self, start: int, end: int) -> float:
        """Work of iterations ``[start, end)``."""
        if not 0 <= start <= end <= self.n:
            raise IndexError(f"range [{start}, {end}) out of bounds")
        if self.uniform_cost is not None:
            return (end - start) * self.uniform_cost
        return self._cum[end] - self._cum[start]

    def max_cost(self, start: int, end: int) -> float:
        """Cost of the dearest iteration of ``[start, end)`` (non-empty)."""
        if self.uniform_cost is not None:
            return self.uniform_cost
        cum = self._cum
        return max(map(sub, cum[start + 1:end + 1], cum[start:end]))

    def count_for_work(self, start: int, work: float, end: Optional[int] = None,
                       round_up: bool = True) -> int:
        """Iterations from ``start`` covering ``work`` seconds of cost.

        With ``round_up`` (the default) the count is the smallest ``k``
        whose cumulative cost reaches ``work`` — the "finish the current
        iteration before responding to the interrupt" rule.  With
        ``round_up=False`` it is the largest ``k`` fully covered.
        The result is clipped to ``[0, (end or n) - start]``.
        """
        if end is None:
            end = self.n
        if not 0 <= start <= end <= self.n:
            raise IndexError("bad range")
        limit = end - start
        if work <= 0:
            return 0
        if self.uniform_cost is not None:
            if round_up:
                k = math.ceil(work / self.uniform_cost - 1e-12)
            else:
                k = math.floor(work / self.uniform_cost + 1e-12)
            return min(max(k, 0), limit)
        cum = self._cum
        target = cum[start] + work
        eps = 1e-12 * max(1.0, abs(target))
        if round_up:
            k = bisect_left(cum, target - eps) - start
        else:
            k = bisect_right(cum, target + eps) - 1 - start
        return min(max(k, 0), limit)


@dataclass(frozen=True)
class LoopSpec:
    """One load-balanced parallel loop (the unit the DLB system schedules).

    Attributes
    ----------
    name:
        Identifier used in reports ("mxm", "trfd-L1", ...).
    n_iterations:
        ``I`` — iterations of the parallelized (outermost) loop.
    iteration_time:
        ``T_j`` in seconds on the base processor: a scalar for uniform
        loops or a sequence (tuple, list, 1-D array) of length
        ``n_iterations``, stored as a tuple of Python floats.
    dc_bytes:
        ``DC`` — bytes of array data that migrate with one iteration.
    ic_bytes:
        ``IC`` — intrinsic communication per iteration (0 for doall).
    input_bytes / result_bytes / replicated_bytes:
        Scatter / gather sizing: per-iteration input rows, per-iteration
        result rows, and per-processor replicated arrays.
    """

    name: str
    n_iterations: int
    iteration_time: Union[float, tuple[float, ...]]
    dc_bytes: int
    ic_bytes: int = 0
    input_bytes: int = 0
    result_bytes: int = 0
    replicated_bytes: int = 0

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ValueError("loop must have at least one iteration")
        if self.dc_bytes < 0 or self.ic_bytes < 0:
            raise ValueError("communication sizes must be non-negative")
        if self.uniform:
            _check_costs((float(self.iteration_time),))
        else:
            costs = tuple(_cost_list(self.iteration_time))
            _check_costs(costs)
            if len(costs) != self.n_iterations:
                raise ValueError(
                    f"{len(costs)} iteration costs for "
                    f"{self.n_iterations} iterations")
            object.__setattr__(self, "iteration_time", costs)

    @property
    def uniform(self) -> bool:
        return isinstance(self.iteration_time, numbers.Real)

    def work_table(self) -> WorkTable:
        return WorkTable(self.iteration_time, self.n_iterations)

    @property
    def total_work(self) -> float:
        """Base-processor seconds of the whole loop.

        A cost tuple is summed pairwise, bit for bit as ``numpy.sum``
        sums it, not read off the work table's left-to-right prefix sum:
        the two differ in the last bit on some loops (TRFD(30) L2), and
        the simulated speed-ups the experiments compare exactly are
        computed from this sum.
        """
        if self.uniform:
            return self.n_iterations * float(self.iteration_time)
        return _pairwise_sum(self.iteration_time, 0, self.n_iterations)

    @property
    def mean_iteration_time(self) -> float:
        return self.total_work / self.n_iterations


@dataclass(frozen=True)
class SequentialStage:
    """A sequential (master-only) stage between loops, e.g. a transpose.

    ``compute_seconds`` is base-processor time on the master;
    ``gather_bytes``/``scatter_bytes`` are the data motion the stage
    implies when array staging is enabled.
    """

    name: str
    compute_seconds: float = 0.0
    gather_bytes: int = 0
    scatter_bytes: int = 0


@dataclass(frozen=True)
class ApplicationSpec:
    """A program: an alternating pipeline of loops and sequential stages."""

    name: str
    stages: tuple[Union[LoopSpec, SequentialStage], ...]
    description: str = ""

    def loops(self) -> list[LoopSpec]:
        return [s for s in self.stages if isinstance(s, LoopSpec)]

    def loop(self, name: str) -> LoopSpec:
        for s in self.stages:
            if isinstance(s, LoopSpec) and s.name == name:
                return s
        raise KeyError(f"no loop named {name!r} in {self.name}")
