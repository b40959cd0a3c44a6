"""Tunable knobs of the DLB run-time (paper §3.3–§3.4 defaults).

Every threshold the paper mentions is a field here so the ablation
benches can sweep them:

* work is moved only when the redistribution is predicted to improve
  execution time by at least ``improvement_threshold`` (the paper's 10%),
* the predicted time *excludes* the cost of the actual work movement by
  default (§3.4 explains why including it cancels beneficial moves —
  the ablation flips ``include_movement_cost``),
* nothing moves when the amount to move is below a threshold
  (``min_move_fraction`` of the work remaining in the group).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DlbPolicy"]


@dataclass(frozen=True)
class DlbPolicy:
    """Run-time load balancing policy parameters.

    That work moves in whole iterations (§3.3) is no knob: both planners
    cut every order from its sender's tail by the sender's own rule, so
    an order that would ship no whole iteration is never made, and a
    node left holding nothing retires (:mod:`repro.core.redistribution`).

    Attributes
    ----------
    improvement_threshold:
        Minimum predicted relative improvement to commit a redistribution
        (0.10 in the paper).
    include_movement_cost:
        Add the estimated data-movement time to the predicted new finish
        time during profitability analysis.  Off by default (§3.4).
    min_move_fraction:
        Skip redistribution when the work to move is below this fraction
        of the work remaining in the synchronization domain.
    retire_fraction:
        A processor whose new share would be below this fraction of one
        *mean* iteration is retired (its share is spread over the rest).
    delta_seconds:
        ``delta`` — cost of one new-distribution calculation (§4.2 calls
        it "usually quite small"); charged on the balancer (and
        replicated on every member in the distributed schemes).
    context_switch_seconds:
        Per-service context-switch penalty on the master when the
        central balancer shares a processor with a computation slave.
    selection_seconds:
        One-off cost of the §4.3 model evaluation during customized
        strategy selection (charged at the first synchronization).
    rate_floor_fraction:
        Floor for measured rates, as a fraction of the fastest profile's
        rate, so a momentarily-stalled processor still gets *some* share.
    """

    improvement_threshold: float = 0.10
    include_movement_cost: bool = False
    min_move_fraction: float = 0.02
    retire_fraction: float = 0.5
    delta_seconds: float = 2.0e-3
    context_switch_seconds: float = 2.0e-3
    selection_seconds: float = 50.0e-3
    rate_floor_fraction: float = 1.0e-3

    def __post_init__(self) -> None:
        if not 0 <= self.improvement_threshold < 1:
            raise ValueError("improvement_threshold must be in [0, 1)")
        if not 0 <= self.min_move_fraction < 1:
            raise ValueError("min_move_fraction must be in [0, 1)")
        if self.retire_fraction < 0:
            raise ValueError("retire_fraction must be non-negative")
        if (self.delta_seconds < 0 or self.context_switch_seconds < 0
                or self.selection_seconds < 0):
            raise ValueError("cost parameters must be non-negative")
        if not 0 < self.rate_floor_fraction <= 1:
            raise ValueError("rate_floor_fraction must be in (0, 1]")

    def but(self, **changes) -> "DlbPolicy":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **changes)
