"""Closed-form and numeric analytics for the load model.

Useful for calibration and sanity bounds: what is the *expected*
capacity of a processor under the paper's discrete random load, what is
the best any balancer could achieve on a given realization, and how
badly should a static schedule do in expectation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..apps.workload import LoopSpec
from ..network.topology import Topology
from .cluster import ClusterSpec
from .workstation import Workstation

__all__ = [
    "expected_inverse_factor",
    "expected_capacity_rate",
    "ideal_balanced_time",
    "expected_static_slowdown",
    "diffusion_convergence_rate",
    "diffusion_sweep_bound",
]


def expected_inverse_factor(max_load: int) -> float:
    """``E[1 / (l + 1)]`` for ``l`` uniform on ``{0..max_load}``.

    Equals ``H_{m+1} / (m + 1)`` with the harmonic number ``H``.  For
    the paper's ``m_l = 5`` this is ``2.45 / 6 = 0.408...``: a loaded
    workstation delivers ~41% of its nominal speed on average.
    """
    if max_load < 0:
        raise ValueError("max_load must be non-negative")
    m = max_load + 1
    harmonic = sum(1.0 / k for k in range(1, m + 1))
    return harmonic / m


def expected_capacity_rate(cluster: ClusterSpec) -> float:
    """Expected aggregate work rate (base-seconds/second) of a cluster."""
    factor = expected_inverse_factor(cluster.max_load)
    return factor * sum(cluster.speeds)


def ideal_balanced_time(loop: LoopSpec,
                        stations: Sequence[Workstation],
                        tolerance: float = 1e-9) -> float:
    """The omniscient-balancer lower bound for one load realization.

    The earliest time ``T`` with ``sum_i capacity_i(0, T) == W`` — no
    real strategy can beat it (it ignores communication and the
    atomicity of iterations).  Solved by bisection on the monotone
    aggregate capacity.
    """
    total = loop.total_work
    if total <= 0:
        return 0.0

    def capacity(t: float) -> float:
        return sum(ws.capacity(0.0, t) for ws in stations)

    hi = total / sum(ws.speed for ws in stations)
    while capacity(hi) < total:
        hi *= 2.0
    lo = 0.0
    while hi - lo > tolerance * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if capacity(mid) < total:
            lo = mid
        else:
            hi = mid
    return hi


def expected_static_slowdown(n_processors: int, max_load: int,
                             n_windows: int = 1,
                             n_samples: int = 20_000,
                             seed: Optional[int] = 0) -> float:
    """Monte-Carlo estimate of ``E[max_i mu_i] / E_harmonic``: how much
    slower the static equal partition is than the balanced ideal, when
    each processor averages ``n_windows`` iid load draws.

    With one window and ``m_l = 5`` on 4 processors this is ~2x — the
    headroom the DLB schemes compete for.
    """
    if n_processors < 1 or n_windows < 1:
        raise ValueError("bad arguments")
    import numpy as np
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, max_load + 1,
                          size=(n_samples, n_processors, n_windows))
    # Effective load over the run of each processor: harmonic mean of
    # the per-window factors (time-weighted, equal windows).
    inv = 1.0 / (levels + 1.0)
    mu = n_windows / inv.sum(axis=2)          # per processor
    static = mu.max(axis=1)                   # slowest processor rules
    balanced = n_processors / (1.0 / mu).sum(axis=1)
    return float(np.mean(static / balanced))


def diffusion_convergence_rate(topology: Topology) -> float:
    """The geometric contraction factor ``gamma`` of first-order
    diffusion on a topology.

    With ``alpha = 1 / (1 + max_degree)`` the diffusion matrix is
    ``M = I - alpha * L`` (``L`` the graph Laplacian).  Its eigenvalue 1
    carries the conserved total load; every other eigenvalue has
    magnitude ``< 1`` on a connected graph, and the imbalance contracts
    by ``gamma = max |eigenvalue != 1|`` per sweep (Cybenko; Demirel &
    Sbalzarini use the same spectrum for their convergence bound).
    """
    import numpy as np
    alpha = 1.0 / (1.0 + topology.max_degree)
    lap = np.asarray(topology.laplacian(), dtype=float)
    eig = np.linalg.eigvalsh(np.eye(topology.n_hosts) - alpha * lap)
    # eigvalsh sorts ascending; the conserved eigenvalue 1 is the last.
    if topology.n_hosts == 1:
        return 0.0
    return float(max(abs(eig[0]), abs(eig[-2])))


def diffusion_sweep_bound(topology: Topology, initial_imbalance: float,
                          quantum: float) -> int:
    """Sweeps until every diffusion flow quantizes to zero.

    The imbalance (max deviation from the mean load) decays at least
    geometrically at rate :func:`diffusion_convergence_rate`; once it
    falls below ``quantum / (2 * alpha)`` no edge flow reaches a whole
    transfer quantum and the indivisible-load scheme stops moving work.
    Returns the smallest sweep count guaranteeing that, i.e.
    ``ceil(log(threshold / imbalance) / log(gamma))`` — the bound the
    convergence property test checks against.
    """
    if initial_imbalance < 0 or quantum <= 0:
        raise ValueError("imbalance must be >= 0 and quantum > 0")
    alpha = 1.0 / (1.0 + topology.max_degree)
    threshold = quantum / (2.0 * alpha)
    if initial_imbalance <= threshold:
        return 0
    gamma = diffusion_convergence_rate(topology)
    if gamma <= 0.0:
        return 1
    import numpy as np
    return int(np.ceil(np.log(threshold / initial_imbalance)
                       / np.log(gamma)))
