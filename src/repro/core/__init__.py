"""The paper's primary contribution: customized dynamic load balancing.

* :mod:`repro.core.strategies` — the strategy repertoire (§3.5);
* :mod:`repro.core.redistribution` — new-distribution calculation and
  profitability analysis (§3.3–§3.4);
* :mod:`repro.core.model` — the analytical cost model (§4.2);
* :mod:`repro.core.decision` — the hybrid run-time selection (§4.3);
* :mod:`repro.core.policy` — every threshold, as a tunable.
"""

from .decision import SelectionReport, model_based_selector
from .diffusion import DiffusionPlanner, diffusion_alpha, plan_diffusion
from .policy import DlbPolicy
from .redistribution import (
    RedistributionPlan,
    SyncProfile,
    make_movement_cost_estimator,
    make_topology_movement_cost_estimator,
    plan_redistribution,
)
from .strategies import (
    ALL_DLB_STRATEGIES,
    CUSTOMIZED,
    DIFFUSION,
    GCDLB,
    GDDLB,
    LCDLB,
    LDDLB,
    NO_DLB,
    STRATEGY_ORDER,
    StrategySpec,
    WORK_STEALING,
    get_strategy,
    strategies_for_topology,
)

__all__ = [
    "ALL_DLB_STRATEGIES",
    "CUSTOMIZED",
    "DIFFUSION",
    "DiffusionPlanner",
    "DlbPolicy",
    "GCDLB",
    "GDDLB",
    "LCDLB",
    "LDDLB",
    "NO_DLB",
    "RedistributionPlan",
    "STRATEGY_ORDER",
    "SelectionReport",
    "StrategySpec",
    "SyncProfile",
    "WORK_STEALING",
    "diffusion_alpha",
    "get_strategy",
    "make_movement_cost_estimator",
    "make_topology_movement_cost_estimator",
    "model_based_selector",
    "plan_diffusion",
    "plan_redistribution",
    "strategies_for_topology",
]
