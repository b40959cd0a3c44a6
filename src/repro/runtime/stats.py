"""Run statistics: what DLB_gather_data reports at the end of a run.

The paper's run-time system collects "DLB statistics (such as number of
redistributions, number of synchronizations, amount of work moved,
etc.)"; these dataclasses are that report, extended with per-sync
records and message counts for the analysis in the experiments package.
"""

from __future__ import annotations

import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["SyncRecord", "LoopRunStats", "StageRunStats", "AppRunStats",
           "environment_fingerprint"]


def environment_fingerprint(**extra) -> dict:
    """Where this run executed: stamped into ``LoopRunStats.environment``.

    Records the facts needed to interpret wall-clock numbers post-hoc
    (interpreter, platform, core count); backends add their own keys
    (e.g. the process backend's multiprocessing ``start_method``).
    """
    fp = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }
    fp.update({k: v for k, v in extra.items() if v is not None})
    return fp


@dataclass
class SyncRecord:
    """One synchronization point as observed by the balancer."""

    time: float
    group: int
    epoch: int
    reason: str           # "moved" | "below-move-threshold" | "unprofitable" | "done"
    moved_work: float
    n_transfers: int
    retired: tuple[int, ...]
    predicted_current: float = 0.0
    predicted_balanced: float = 0.0

    def __post_init__(self) -> None:
        # Rebuilt from a STAT body, ``retired`` arrives as a JSON list.
        self.retired = tuple(self.retired)

    @classmethod
    def of_plan(cls, time: float, group: int, epoch: int,
                plan) -> "SyncRecord":
        """The record of ``plan`` (a
        :class:`~repro.core.redistribution.RedistributionPlan`)."""
        return cls(time=time, group=group, epoch=epoch, reason=plan.reason,
                   moved_work=plan.work_to_move if plan.move else 0.0,
                   n_transfers=len(plan.transfers),
                   retired=tuple(plan.retire),
                   predicted_current=plan.predicted_current,
                   predicted_balanced=plan.predicted_balanced)

    def absorb(self, part: "SyncRecord") -> None:
        """Add another node's part of the same neighbour-local sweep:
        moved work and transfers sum over the senders, the retirees
        unite, the predictions keep the worst neighbourhood's, and the
        reason is the busiest part's (moved work, else work left, else
        done).  The time stays the first part's."""
        def busy(record: "SyncRecord") -> tuple[bool, bool]:
            return record.n_transfers > 0, record.reason != "done"

        if busy(part) > busy(self):
            self.reason = part.reason
        self.moved_work += part.moved_work
        self.n_transfers += part.n_transfers
        self.retired = tuple(sorted({*self.retired, *part.retired}))
        self.predicted_current = max(self.predicted_current,
                                     part.predicted_current)
        self.predicted_balanced = max(self.predicted_balanced,
                                      part.predicted_balanced)


@dataclass
class LoopRunStats:
    """Statistics for one load-balanced loop execution."""

    loop_name: str
    strategy: str
    n_processors: int
    group_size: int
    #: Which ExecutionBackend produced this run: "sim" (durations are
    #: virtual seconds on the DES kernel) or "thread" / "process" /
    #: "socket" (wall-clock seconds).  Exported to CSV/JSON so runs stay
    #: distinguishable post-hoc.
    backend: str = "sim"
    start_time: float = 0.0
    end_time: float = 0.0
    syncs: list[SyncRecord] = field(default_factory=list)
    executed_by_node: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    node_finish_times: dict[int, float] = field(default_factory=dict)
    messages_by_tag: dict[str, int] = field(default_factory=dict)
    network_messages: int = 0
    network_bytes: int = 0
    # Transport-vs-shared-memory split (process backend; zero elsewhere):
    # bytes actually pickled onto inter-process queues, and iteration
    # data that moved by shared-memory remapping instead of copying.
    transport_payload_bytes: int = 0
    shm_data_bytes: int = 0
    # Socket backend: transport_payload_bytes broken down by wire-frame
    # type (MSG, PING, STAT, ... — see docs/WIRE_PROTOCOL.md); empty on
    # the in-process backends.
    payload_by_frame: dict[str, int] = field(default_factory=dict)
    # Elastic membership (socket backend): nodes that registered
    # mid-run and nodes that departed on purpose (planned leave).
    joined_nodes: tuple[int, ...] = ()
    left_nodes: tuple[int, ...] = ()
    selected_scheme: Optional[str] = None
    selection_report: Optional[object] = None
    # Fault-model bookkeeping (docs/FAULT_MODEL.md); all zero/empty on a
    # fault-free run.
    crashed_nodes: tuple[int, ...] = ()
    fenced_nodes: tuple[int, ...] = ()
    declared_dead: tuple[int, ...] = ()
    dropped_messages: int = 0
    delayed_messages: int = 0
    fault_retries: int = 0
    reclaimed_iterations: int = 0
    salvaged_iterations: int = 0
    #: Where the run executed (:func:`environment_fingerprint`): python
    #: version, platform, cpu count, and backend-specific keys such as
    #: the multiprocessing start method.  Exported to CSV/JSON.
    environment: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def faulted(self) -> bool:
        """Whether this run experienced any injected fault."""
        return bool(self.crashed_nodes or self.dropped_messages
                    or self.delayed_messages)

    @property
    def n_syncs(self) -> int:
        return len(self.syncs)

    @property
    def n_redistributions(self) -> int:
        # Any sync that shipped work counts, whatever the planner's
        # reason string ("moved" for eq.-3 plans, "diffused" for DIFF).
        return sum(1 for s in self.syncs if s.n_transfers > 0)

    @property
    def total_work_moved(self) -> float:
        return sum(s.moved_work for s in self.syncs if s.n_transfers > 0)

    def executed_count(self, node: int) -> int:
        return sum(e - s for s, e in self.executed_by_node.get(node, []))

    def record_sync(self, record: SyncRecord) -> None:
        self.syncs.append(record)

    def summary(self) -> str:
        backend = "" if self.backend == "sim" else f" backend={self.backend}"
        base = (f"{self.loop_name} [{self.strategy}] P={self.n_processors} "
                f"K={self.group_size}{backend}: time={self.duration:.3f}s "
                f"syncs={self.n_syncs} moves={self.n_redistributions} "
                f"moved={self.total_work_moved:.3f}s-of-work "
                f"msgs={self.network_messages}")
        if self.faulted:
            base += (f" | faults: crashed={list(self.crashed_nodes)} "
                     f"dropped={self.dropped_messages} "
                     f"retries={self.fault_retries} "
                     f"reclaimed={self.reclaimed_iterations} "
                     f"salvaged={self.salvaged_iterations}")
        if self.joined_nodes or self.left_nodes:
            base += (f" | membership: joined={list(self.joined_nodes)} "
                     f"left={list(self.left_nodes)}")
        return base


@dataclass
class StageRunStats:
    """A sequential (master-only) stage: transpose, staging, ..."""

    stage_name: str
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


@dataclass
class AppRunStats:
    """Statistics for a full application run (all stages, one env)."""

    app_name: str
    strategy: str
    n_processors: int
    stages: list[object] = field(default_factory=list)  # Loop/Stage stats

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.stages)

    @property
    def loop_stats(self) -> list[LoopRunStats]:
        return [s for s in self.stages if isinstance(s, LoopRunStats)]

    def loop(self, name: str) -> LoopRunStats:
        for s in self.loop_stats:
            if s.loop_name == name:
                return s
        raise KeyError(f"no loop stats named {name!r}")

    def summary(self) -> str:
        lines = [f"{self.app_name} [{self.strategy}] "
                 f"total={self.total_duration:.3f}s"]
        lines += ["  " + (s.summary() if isinstance(s, LoopRunStats)
                          else f"{s.stage_name}: {s.duration:.3f}s")
                  for s in self.stages]
        return "\n".join(lines)
