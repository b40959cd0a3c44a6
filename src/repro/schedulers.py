"""Task-queue loop scheduling: the related work of paper §2.2 (S11).

The classic dynamic loop schedulers share one structure: idle
processors grab chunks of iterations from a queue, and they differ only
in the chunk-size rule.  The rules here follow the paper's related-work
section: self-scheduling [Tang & Yew '86], fixed-size chunking [Kruskal
& Weiss '85], guided self-scheduling [Polychronopoulos & Kuck '87],
factoring [Hummel, Schonberg & Flynn '92], trapezoid self-scheduling
[Tzen & Ni '93] and safe self-scheduling [Liu et al. '92], plus static
chunking, the no-DLB baseline in queue form.  Affinity scheduling
[Markatos & LeBlanc '94] keeps one queue per processor instead.

Both models run on the same
:class:`~repro.machine.workstation.Workstation` time math the DLB
system uses, so the ablation benches can compare them under identical
external load.  A queue access costs ``access_cost``: on a
shared-memory machine that is a cheap atomic operation, on a network of
workstations it is a message round trip, which is exactly why the
paper moves away from the task-queue model.

A rule is a plain function: ``rule(n_iterations, P)`` builds one run's
``chunk(remaining, step)``, the size of the ``step``-th grab when
``remaining`` iterations are left.  A :class:`Policy` gives it the name
its results carry.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

from .apps.workload import LoopSpec
from .machine.cluster import ClusterSpec
from .machine.workstation import Workstation

__all__ = ["ALL_POLICIES", "Policy", "TaskQueueResult", "chunking",
           "factoring", "gss", "run_affinity", "run_task_queue",
           "safe_ss", "self_scheduling", "static", "tss"]

Chunk = Callable[[int, int], int]
#: ``grab(proc, t)`` -> ``(grab_end, iterations, work)``, or ``None``
#: when nothing is left for ``proc``.
Grab = Callable[[int, float], Optional[tuple[float, int, float]]]


def self_scheduling(n: int, p: int) -> Chunk:
    """One iteration per grab: perfect balance, maximal synchronization."""
    return lambda remaining, step: 1


def chunking(n: int, p: int, k: int = 0) -> Chunk:
    """``k`` iterations per grab.  With ``k=0`` the Kruskal–Weiss
    near-optimal size ``ceil(N / (P * sqrt(P)))``."""
    size = k if k > 0 else max(1, math.ceil(n / (p * math.sqrt(p))))
    return lambda remaining, step: size


def gss(n: int, p: int) -> Chunk:
    """``ceil(remaining / P)`` per grab: large chunks first, then tiny."""
    return lambda remaining, step: max(1, math.ceil(remaining / p))


def factoring(n: int, p: int) -> Chunk:
    """Batched halving: each batch of ``P`` grabs splits half the
    remaining work into equal chunks."""
    size = 1

    def chunk(remaining: int, step: int) -> int:
        nonlocal size
        if step % p == 0:
            size = max(1, math.ceil(remaining / (2 * p)))
        return size
    return chunk


def tss(n: int, p: int) -> Chunk:
    """Trapezoid: linearly decreasing chunks from ``N / (2P)`` down to 1."""
    first = max(1.0, n / (2.0 * p))
    n_steps = max(1, math.ceil(2.0 * n / (first + 1.0)))
    decrement = (first - 1.0) / max(n_steps - 1, 1)
    current = first

    def chunk(remaining: int, step: int) -> int:
        nonlocal current
        size = max(1, int(round(current)))
        current = max(1.0, current - decrement)
        return size
    return chunk


def safe_ss(n: int, p: int, alpha: float = 0.5) -> Chunk:
    """Static then dynamic: the first ``P`` grabs take an ``alpha``
    share of an equal block each; the rest self-schedule in halves."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    block = max(1, int(alpha * n / p))
    return lambda remaining, step: (
        block if step < p else max(1, math.ceil(remaining / (2 * p))))


def static(n: int, p: int) -> Chunk:
    """Equal blocks handed out once: the no-DLB baseline in queue form."""
    block = max(1, math.ceil(n / p))
    return lambda remaining, step: block


class Policy(NamedTuple):
    """A chunk rule and the name its results carry.  Bind a rule's
    parameter with :func:`functools.partial`:
    ``Policy("chunking(K=3)", partial(chunking, k=3))``."""

    name: str
    rule: Callable[[int, int], Chunk]


def ALL_POLICIES() -> list[Policy]:
    """Every rule at its default parameters."""
    return [Policy("self-scheduling", self_scheduling),
            Policy("chunking(K=auto)", chunking), Policy("gss", gss),
            Policy("factoring", factoring), Policy("tss", tss),
            Policy("safe-ss", safe_ss), Policy("static", static)]


@dataclass
class TaskQueueResult:
    """Outcome of one task-queue schedule simulation."""

    scheduler: str
    finish_time: float
    n_chunks: int
    queue_accesses: int
    chunks_by_processor: dict[int, int] = field(default_factory=dict)
    iterations_by_processor: dict[int, int] = field(default_factory=dict)
    finish_by_processor: dict[int, float] = field(default_factory=dict)

    def summary(self) -> str:
        return (f"{self.scheduler}: time={self.finish_time:.3f}s "
                f"chunks={self.n_chunks} accesses={self.queue_accesses}")


def _schedule(scheduler: str, stations: Sequence[Workstation],
              grab: Grab) -> TaskQueueResult:
    """Advance processors in the order they go idle: each idle one
    grabs, then computes its chunk at its load-modulated speed.  The
    simulation is exact, so no events are needed."""
    n = len(stations)
    result = TaskQueueResult(scheduler, 0.0, 0, 0, dict.fromkeys(range(n), 0),
                             dict.fromkeys(range(n), 0),
                             dict.fromkeys(range(n), 0.0))
    ready = [(0.0, i) for i in range(n)]  # (idle since, processor): a heap
    while ready:
        t, proc = heapq.heappop(ready)
        got = grab(proc, t)
        if got is None:
            result.finish_by_processor[proc] = max(
                result.finish_by_processor[proc], t)
            continue
        grab_end, iterations, work = got
        done_at = stations[proc].time_to_complete(grab_end, work)
        result.n_chunks += 1
        result.queue_accesses += 1
        result.chunks_by_processor[proc] += 1
        result.iterations_by_processor[proc] += iterations
        result.finish_by_processor[proc] = done_at
        heapq.heappush(ready, (done_at, proc))
    result.finish_time = max(result.finish_by_processor.values())
    return result


def run_task_queue(loop: LoopSpec, cluster: ClusterSpec, policy: Policy,
                   access_cost: float = 0.0,
                   stations: Optional[Sequence[Workstation]] = None
                   ) -> TaskQueueResult:
    """Simulate a central-queue schedule: every grab serializes on the
    queue for ``access_cost`` seconds."""
    if access_cost < 0:
        raise ValueError("access_cost must be non-negative")
    if stations is None:
        stations = cluster.build()
    n, table = loop.n_iterations, loop.work_table()
    chunk = policy.rule(n, len(stations))
    steps = itertools.count()
    next_iter, queue_free = 0, 0.0

    def grab(proc: int, t: float):
        nonlocal next_iter, queue_free
        if next_iter >= n:
            return None
        queue_free = max(t, queue_free) + access_cost
        remaining = n - next_iter
        size = max(1, min(chunk(remaining, next(steps)), remaining))
        start, next_iter = next_iter, next_iter + size
        return queue_free, size, table.range_work(start, next_iter)

    return _schedule(policy.name, stations, grab)


def run_affinity(loop: LoopSpec, cluster: ClusterSpec,
                 local_fraction: float = 0.25,
                 access_cost: float = 0.0,
                 steal_cost: float = 0.0,
                 stations: Optional[Sequence[Workstation]] = None
                 ) -> TaskQueueResult:
    """Simulate affinity scheduling.

    Every processor starts with an equal block (locality) and grabs
    ``local_fraction`` of what is left of it for ``access_cost``
    (Markatos–LeBlanc take ``1/k`` pieces; 1.0 grabs the whole block at
    once and degenerates to a static schedule, exposed for the
    ablation).  An idle processor steals ``1/P`` of the most loaded
    queue; steals serialize and pay ``access_cost + steal_cost``.
    """
    if not 0 < local_fraction <= 1:
        raise ValueError("local_fraction must be in (0, 1]")
    if stations is None:
        stations = cluster.build()
    n, table = len(stations), loop.work_table()
    # Queue i is [lo[i], hi[i]): its owner takes from the front and a
    # thief from the back, so it stays one range.
    base, extra = divmod(loop.n_iterations, n)
    lo = [i * base + min(i, extra) for i in range(n)]
    hi = lo[1:] + [loop.n_iterations]
    queue_free = 0.0

    def take(i: int, new_lo: int, new_hi: int) -> float:
        """Shrink queue ``i`` to ``[new_lo, new_hi)``: the work it lost."""
        before = table.range_work(lo[i], hi[i])
        lo[i], hi[i] = new_lo, new_hi
        return before - table.range_work(new_lo, new_hi)

    def grab(proc: int, t: float):
        nonlocal queue_free
        if lo[proc] < hi[proc]:
            k = max(1, math.ceil((hi[proc] - lo[proc]) * local_fraction))
            return t + access_cost, k, take(proc, lo[proc] + k, hi[proc])
        victim = max(range(n), key=lambda j: (hi[j] - lo[j], -j))
        if lo[victim] == hi[victim]:
            return None
        queue_free = max(t, queue_free) + access_cost + steal_cost
        k = max(1, (hi[victim] - lo[victim]) // n)
        return queue_free, k, take(victim, lo[victim], hi[victim] - k)

    return _schedule("affinity", stations, grab)
