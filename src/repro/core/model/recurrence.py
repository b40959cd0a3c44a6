"""The paper's §4.2 recurrences, as literal standalone functions.

The production solver (:mod:`repro.core.model.predictor`) integrates
these relations with the shared planner and exact load integrals; this
module states them in the paper's own discrete form so tests can verify
the production code against the published equations, and readers can
map code to paper line by line.

Notation (paper §4.2): at the ``j``-th synchronization point,

* ``alpha_i(j)`` — iterations assigned to processor ``i``,
* ``beta_i(j)`` — iterations left to be done by processor ``i``,
* ``Gamma(j) = sum_i beta_i(j)`` — total remaining iterations,
* ``mu_i(j)`` — effective load of processor ``i`` over the window,
* ``S_i`` — processor speed, ``T`` — time per iteration (uniform),
* ``f`` — the first processor to finish its portion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "effective_load_discrete",
    "average_effective_speed",
    "iterations_left_uniform",
    "iterations_left_nonuniform",
    "new_distribution",
    "work_moved",
    "total_remaining",
]


def effective_load_discrete(levels: Sequence[float]) -> float:
    """Paper: ``mu_i(j) = (b - a + 1) / sum_{k=a}^{b} 1/(l_i(k) + 1)``.

    ``levels`` are the load levels of the persistence windows between
    the two synchronization points.
    """
    import numpy as np
    arr = np.asarray(levels, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one window")
    if (arr < 0).any():
        raise ValueError("levels must be non-negative")
    return arr.size / float((1.0 / (arr + 1.0)).sum())


def average_effective_speed(speed: float, levels: Sequence[float]) -> float:
    """Paper: the performance metric ``S_i / mu_i(j)``."""
    return speed / effective_load_discrete(levels)


def iterations_left_uniform(beta_prev: Sequence[float],
                            speeds: Sequence[float],
                            mus: Sequence[float],
                            finisher: int) -> np.ndarray:
    """Eq. 1: iterations left on each processor when ``finisher`` is done.

    ``beta_i(j) = beta_i(j-1) - beta_f(j-1) * (S_i / mu_i) * (mu_f / S_f)``

    — everyone computed for the same wall time ``t``, namely the time
    the finisher needed for its whole portion.
    """
    import numpy as np
    beta = np.asarray(beta_prev, dtype=float)
    s = np.asarray(speeds, dtype=float)
    mu = np.asarray(mus, dtype=float)
    if not (beta.shape == s.shape == mu.shape):
        raise ValueError("shape mismatch")
    f = finisher
    done = beta[f] * (s / mu) * (mu[f] / s[f])
    left = np.maximum(beta - done, 0.0)
    left[f] = 0.0
    return left


def iterations_left_nonuniform(assigned_costs: Sequence[Sequence[float]],
                               speeds: Sequence[float],
                               mus: Sequence[float],
                               finisher: int) -> list[int]:
    """Eq. 2: the non-uniform form, with per-iteration costs ``T_k``.

    Each processor ``i`` completes the longest prefix of its assigned
    iterations whose summed cost fits in the window
    ``t = sum_k T_k^(f) * mu_f / S_f`` scaled by its own ``S_i/mu_i``.
    Returns the number of iterations *left* per processor.
    """
    import numpy as np
    s = np.asarray(speeds, dtype=float)
    mu = np.asarray(mus, dtype=float)
    costs_f = np.asarray(assigned_costs[finisher], dtype=float)
    t = float(costs_f.sum()) * mu[finisher] / s[finisher]
    left = []
    for i, costs in enumerate(assigned_costs):
        arr = np.asarray(costs, dtype=float)
        budget = t * s[i] / mu[i]
        done = int(np.searchsorted(np.cumsum(arr), budget + 1e-12,
                                   side="right"))
        left.append(max(arr.size - done, 0))
    return left


def new_distribution(beta: Sequence[float], speeds: Sequence[float],
                     mus: Sequence[float]) -> np.ndarray:
    """Eq. 3: shares proportional to average effective speed.

    ``alpha_i(j) = (S_i / mu_i) / sum_k (S_k / mu_k) * Gamma(j)``
    """
    import numpy as np
    beta_arr = np.asarray(beta, dtype=float)
    rates = np.asarray(speeds, dtype=float) / np.asarray(mus, dtype=float)
    gamma = beta_arr.sum()
    return gamma * rates / rates.sum()


def work_moved(alpha: Sequence[float], beta: Sequence[float]) -> float:
    """``Phi(j) = 1/2 * sum_i |alpha_i(j) - beta_i(j)|``."""
    import numpy as np
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    return 0.5 * float(np.abs(a - b).sum())


def total_remaining(beta: Sequence[float]) -> float:
    """``Gamma(j) = sum_i beta_i(j)``; termination is ``Gamma == 0``."""
    import numpy as np
    return float(np.asarray(beta, dtype=float).sum())
