"""Workstations: relative speed plus an external load function (§4.1).

A :class:`Workstation` is pure "time math" — it answers how much work the
processor can complete in an interval and how long a given amount of work
takes, given its speed ``S_i`` and load ``l_i(t)``.  Both the event
simulation (actual runs) and the analytical model (predicted runs) consume
the same object, so predictions and measurements disagree only through
protocol effects the model abstracts away, exactly as in the paper.

Work is measured in *base-processor seconds*: an iteration whose time per
iteration is ``T`` (on the speed-1 base processor) is ``T`` units of work,
and takes ``T * (l + 1) / S`` wall seconds under load ``l``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .load import ConstantLoad, LoadFunction

__all__ = ["Workstation"]


@dataclass
class Workstation:
    """A processor in the network of workstations.

    Attributes
    ----------
    index:
        Position in the cluster (0-based); index 0 hosts the master /
        central load balancer in the centralized schemes.
    speed:
        ``S_i`` — performance ratio w.r.t. the base processor.
    load:
        External load function ``l_i``; defaults to no load.
    name:
        Human-readable label used in logs and statistics.
    """

    index: int
    speed: float = 1.0
    load: LoadFunction = field(default_factory=ConstantLoad)
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.name is None:
            self.name = f"ws{self.index}"

    # -- capability queries -------------------------------------------------
    def effective_speed(self, t: float) -> float:
        """Instantaneous effective speed ``S / (l(t) + 1)``."""
        return self.speed / (self.load.level(t) + 1.0)

    def capacity(self, t0: float, t1: float) -> float:
        """Work (base-processor seconds) achievable during ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        return self.speed * (self.load.integral(t1) - self.load.integral(t0))

    def time_to_complete(self, t0: float, work: float) -> float:
        """Absolute time at which ``work`` started at ``t0`` finishes."""
        if work < 0:
            raise ValueError("work must be non-negative")
        if work == 0:
            return t0
        target = self.load.integral(t0) + work / self.speed
        return self.load.inverse_integral(target)

    def effective_load(self, t0: float, t1: float) -> float:
        """The paper's ``mu_i`` over ``[t0, t1]`` (so speed = ``S_i/mu_i``)."""
        return self.load.effective_load(t0, t1)

    def average_effective_speed(self, t0: float, t1: float) -> float:
        """``S_i / mu_i(t0, t1)`` — the §4.2 performance metric."""
        return self.speed / self.effective_load(t0, t1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workstation({self.name}, S={self.speed})"
