"""DLB run-time system (S5): executor, node protocol, central balancer."""

from .assignment import (
    Assignment,
    equal_block_partition,
    merge_ranges,
    proportional_block_partition,
)
from .balancer import CentralBalancer
from .executor import CoverageError, run_application, run_loop, run_loop_stage
from .node import NodeRuntime
from .options import RunOptions
from .session import LoopSession
from .stealing import StealingNodeRuntime
from .stats import AppRunStats, LoopRunStats, StageRunStats, SyncRecord

__all__ = [
    "AppRunStats",
    "Assignment",
    "CentralBalancer",
    "CoverageError",
    "LoopRunStats",
    "LoopSession",
    "NodeRuntime",
    "RunOptions",
    "StageRunStats",
    "StealingNodeRuntime",
    "SyncRecord",
    "equal_block_partition",
    "merge_ranges",
    "proportional_block_partition",
    "run_application",
    "run_loop",
    "run_loop_stage",
]
