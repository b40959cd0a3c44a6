"""Analytical cost model of the DLB strategies (S7, paper §4.2)."""

from .costs import SyncCosts, default_comm_model, strategy_sync_costs
from .predictor import (
    StrategyPrediction,
    predict_no_dlb,
    predict_strategy,
    rank_strategies,
)

__all__ = [
    "StrategyPrediction",
    "SyncCosts",
    "default_comm_model",
    "predict_no_dlb",
    "predict_strategy",
    "rank_strategies",
    "strategy_sync_costs",
]
