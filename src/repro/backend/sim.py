"""The discrete-event simulation backend (the original kernel).

``SimBackend`` is a thin wrapper over :func:`repro.runtime.executor`'s
loop driver: virtual clock and timers from
:class:`~repro.simulation.Environment`, transport from the PVM-flavored
:class:`~repro.message.pvm.VirtualMachine` over the shared-bus Ethernet
model, compute from the workstations' load model.  It is **bit-identical**
to the pre-seam runtime on seeded runs — the protocol extraction moved
state behind :mod:`repro.protocol` objects but left the simulation's
event ordering untouched (``tests/protocol/test_cross_backend.py``
pins this with reference stats).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..apps.workload import LoopSpec
from ..faults.plan import FaultPlan
from ..machine.cluster import ClusterSpec
from ..runtime.options import RunOptions
from ..runtime.stats import LoopRunStats
from .base import ExecutionBackend, StrategyLike

__all__ = ["SimBackend"]


class SimBackend(ExecutionBackend):
    """Deterministic discrete-event execution (the default backend)."""

    name = "sim"

    def run_loop(self, loop: LoopSpec, cluster: ClusterSpec,
                 strategy: StrategyLike,
                 options: Optional[RunOptions] = None,
                 selector: Optional[Callable] = None,
                 fault_plan: Optional[FaultPlan] = None) -> LoopRunStats:
        # Imported here: executor routes to backends, so a module-level
        # import would be circular.
        from ..runtime import executor
        return executor.run_loop(loop, cluster, strategy, options,
                                 selector, fault_plan=fault_plan)
