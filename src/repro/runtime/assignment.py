"""Iteration assignments: ordered disjoint ranges of the global loop.

A processor's assignment is a list of half-open ranges ``[start, end)``
into the global iteration space.  The initial compiler distribution is
equal blocks (§3.5 — "the compiler initially distributes the iterations
of the loop equally"); redistribution moves ranges from the tail of a
sender's assignment, so locality of the surviving block is preserved.

All work arithmetic goes through :class:`repro.apps.workload.WorkTable`
so uniform and non-uniform loops share one code path.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..apps.workload import WorkTable

__all__ = ["Assignment", "CoverageError", "check_coverage",
           "equal_block_partition", "merge_ranges", "uncovered"]

Range = tuple[int, int]


class CoverageError(AssertionError):
    """Iterations were lost or duplicated during redistribution."""


def merge_ranges(ranges: Iterable[Range]) -> list[Range]:
    """Sort, validate, and coalesce adjacent/overlap-free ranges."""
    out: list[Range] = []
    for start, end in sorted(ranges):
        if start >= end:
            continue
        if out and start < out[-1][1]:
            raise ValueError(f"overlapping ranges at {start}")
        if out and start == out[-1][1]:
            out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def _merged_ledger(executed_by_node: Mapping[object, Iterable[Range]]
                   ) -> list[Range]:
    try:
        return merge_ranges(r for ranges in executed_by_node.values()
                            for r in ranges)
    except ValueError as exc:
        raise CoverageError(f"duplicated iterations: {exc}") from exc


def uncovered(executed_by_node: Mapping[object, Iterable[Range]],
              n_iterations: int) -> list[Range]:
    """The gaps of ``[0, n_iterations)`` nobody in the ledger executed.

    What a salvage pass must still run (crash orphans, grants dropped by
    a retiring receiver).  Raises :class:`CoverageError` when two ledger
    entries overlap: a duplicate cannot be salvaged away.
    """
    gaps: list[Range] = []
    cursor = 0
    for start, end in (_merged_ledger(executed_by_node)
                       + [(n_iterations, n_iterations)]):
        if cursor < start:
            gaps.append((cursor, start))
        cursor = max(cursor, end)
    return gaps


def check_coverage(executed_by_node: Mapping[object, Iterable[Range]],
                   n_iterations: int) -> None:
    """The exactly-once invariant, checked the same way on every backend:
    the per-node ledger must tile ``[0, n_iterations)`` with no gap and
    no overlap, else :class:`CoverageError`."""
    merged = _merged_ledger(executed_by_node)
    expected = [(0, n_iterations)]
    if merged != expected:
        raise CoverageError(
            f"lost iterations: executed {merged}, expected {expected}")


def equal_block_partition(n_iterations: int, n_processors: int
                          ) -> list["Assignment"]:
    """The compiler's initial distribution: contiguous equal blocks.

    The first ``n_iterations % n_processors`` processors get one extra
    iteration, exactly like a BLOCK distribution of the parallel dim.
    """
    if n_iterations < 0 or n_processors < 1:
        raise ValueError("bad partition arguments")
    base, extra = divmod(n_iterations, n_processors)
    out = []
    start = 0
    for i in range(n_processors):
        size = base + (1 if i < extra else 0)
        out.append(Assignment([(start, start + size)] if size else []))
        start += size
    return out


def proportional_block_partition(n_iterations: int,
                                 weights: Sequence[float]
                                 ) -> list["Assignment"]:
    """Static speed-proportional blocks (the heterogeneous-cluster
    variant of the initial distribution; cf. the static schemes of
    Cierniak/Li/Zaki the paper cites).

    Block sizes follow the largest-remainder method over ``weights`` so
    counts are exact and deterministic.
    """
    if n_iterations < 0 or not weights:
        raise ValueError("bad partition arguments")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    total = float(sum(weights))
    raw = [n_iterations * w / total for w in weights]
    sizes = [int(r) for r in raw]
    remainder = n_iterations - sum(sizes)
    # Hand leftover iterations to the largest fractional parts.
    order = sorted(range(len(weights)), key=lambda i: (raw[i] - sizes[i], -i),
                   reverse=True)
    for i in order[:remainder]:
        sizes[i] += 1
    out = []
    start = 0
    for size in sizes:
        out.append(Assignment([(start, start + size)] if size else []))
        start += size
    return out


class Assignment:
    """A mutable set of iteration ranges owned by one processor."""

    def __init__(self, ranges: Sequence[Range] = ()) -> None:
        self.ranges: list[Range] = merge_ranges(ranges)

    # -- size / work -------------------------------------------------------
    @property
    def count(self) -> int:
        return sum(e - s for s, e in self.ranges)

    @property
    def empty(self) -> bool:
        return not self.ranges

    def work(self, table: WorkTable) -> float:
        return sum(table.range_work(s, e) for s, e in self.ranges)

    def head_work(self, table: WorkTable, k: int) -> float:
        """Work of the first ``k`` iterations in assignment order."""
        if k < 0 or k > self.count:
            raise ValueError("k out of range")
        total = 0.0
        left = k
        for s, e in self.ranges:
            take = min(left, e - s)
            total += table.range_work(s, s + take)
            left -= take
            if left == 0:
                break
        return total

    def head_count_for_work(self, table: WorkTable, work: float,
                            round_up: bool = True) -> int:
        """Iterations (from the head) that cover ``work`` seconds.

        Used when an interrupt lands mid-chunk: the processor finishes
        the iteration in flight (``round_up=True``) before responding.
        """
        if work <= 0:
            return 0
        done = 0
        remaining = work
        for s, e in self.ranges:
            span = table.range_work(s, e)
            if remaining > span * (1 - 1e-12):
                done += e - s
                remaining -= span
            else:
                done += table.count_for_work(s, remaining, end=e,
                                             round_up=round_up)
                return done
        return self.count

    # -- mutation ------------------------------------------------------------
    def take_head(self, k: int) -> list[Range]:
        """Remove and return the first ``k`` iterations (just executed)."""
        if k < 0 or k > self.count:
            raise ValueError("k out of range")
        taken: list[Range] = []
        while k > 0 and self.ranges:
            s, e = self.ranges[0]
            size = e - s
            if size <= k:
                taken.append((s, e))
                self.ranges.pop(0)
                k -= size
            else:
                taken.append((s, s + k))
                self.ranges[0] = (s + k, e)
                k = 0
        return taken

    def take_tail_count(self, k: int) -> list[Range]:
        """Remove and return the last ``k`` iterations (shipped away)."""
        if k < 0 or k > self.count:
            raise ValueError("k out of range")
        taken: list[Range] = []
        while k > 0 and self.ranges:
            s, e = self.ranges[-1]
            size = e - s
            if size <= k:
                taken.append((s, e))
                self.ranges.pop()
                k -= size
            else:
                taken.append((e - k, e))
                self.ranges[-1] = (s, e - k)
                k = 0
        return merge_ranges(taken)

    def take_tail_work(self, table: WorkTable, work: float,
                       keep_one: bool = True) -> tuple[list[Range], int]:
        """Remove roughly ``work`` seconds of iterations from the tail.

        Rounds *down* to whole iterations so the sender never ships more
        than its surplus; with ``keep_one`` the sender always retains at
        least one iteration (a non-retiring sender must stay active).
        Returns ``(ranges, count)`` — possibly empty when the order
        rounds to zero iterations.
        """
        if work <= 0:
            return [], 0
        # Count from the tail: find the largest suffix with work <= order.
        total = 0.0
        k = 0
        for s, e in reversed(self.ranges):
            span = table.range_work(s, e)
            if total + span <= work * (1 + 1e-12):
                total += span
                k += e - s
            else:
                lo, hi = s, e
                # Binary search the split point within this range.
                while lo < hi:
                    mid = (lo + hi) // 2
                    if total + table.range_work(mid, e) <= work * (1 + 1e-12):
                        hi = mid
                    else:
                        lo = mid + 1
                k += e - lo
                break
        limit = self.count - 1 if keep_one else self.count
        k = min(k, max(limit, 0))
        if k <= 0:
            return [], 0
        return self.take_tail_count(k), k

    def take_all(self) -> list[Range]:
        """Remove and return everything (a retiring processor)."""
        taken, self.ranges = self.ranges, []
        return taken

    def add(self, ranges: Sequence[Range]) -> None:
        """Merge received ranges into the assignment."""
        self.ranges = merge_ranges(list(self.ranges) + list(ranges))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Assignment({self.ranges!r})"
