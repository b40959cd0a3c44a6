"""Off-line network characterization with polynomial fits (Figure 4).

``characterize_network`` measures each communication pattern for a range
of processor counts on the simulated network and fits a low-degree
polynomial by least squares — the paper's "poly fit" curves.  The fit
is ``numpy.polyfit``'s problem (the column-scaled Vandermonde system)
solved in Python floats by Householder QR, and a curve is evaluated by
Horner's rule as ``numpy.polyval`` does, so CUSTOM's decision process
runs without numpy.  The resulting :class:`CommCostModel` is what the
analytical strategy model (§4.2) queries for its synchronization-cost terms
``one-to-all(P)``, ``all-to-one(P)``, ``all-to-all(P)`` and — on graph
topologies — ``neighbor-exchange(P)`` for diffusion balancing.

Characterization defaults to the shared bus; pass ``topology`` (a CLI
spec string like ``"ring"``, or a concrete
:class:`~repro.network.topology.Topology`) to measure on that graph
instead.  :func:`probe_link_parameters` is the complementary *on-line*
estimator: seeded random point-to-point probes whose least-squares fit
recovers effective latency and bandwidth.  It takes an explicit ``seed``
and is bit-stable for a given seed — a regression test pins its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .parameters import NetworkParameters, transfer_seconds
from .patterns import NEIGHBOR_PATTERN, PATTERNS, measure_pattern
from .topology import Topology, TopologySpec, resolve_topology

__all__ = ["PatternFit", "CommCostModel", "characterize_network",
           "probe_link_parameters", "ProbeEstimate", "DEFAULT_PROBE_BYTES"]

#: Default probe message size: a DLB profile message (§3.2) is a handful
#: of doubles; 64 bytes matches the run-time system's profile payload.
DEFAULT_PROBE_BYTES = 64


@dataclass(frozen=True)
class PatternFit:
    """A fitted polynomial cost curve for one pattern.

    ``coefficients`` are in :func:`numpy.polyval` order (highest degree
    first); ``samples`` holds the measured ``(P, seconds)`` points the
    fit was derived from, so Figure 4 can plot both.
    """

    pattern: str
    coefficients: tuple[float, ...]
    samples: tuple[tuple[int, float], ...]
    probe_bytes: int

    def __call__(self, n_procs: float) -> float:
        return max(_horner(self.coefficients, n_procs), 0.0)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def residual_rms(self) -> float:
        """RMS error of the fit over its own samples."""
        if not self.samples:
            return math.nan
        errors = [_horner(self.coefficients, p) - t for p, t in self.samples]
        return math.sqrt(math.fsum(e * e for e in errors) / len(errors))


def _horner(coefficients: Sequence[float], x: float) -> float:
    """The polynomial at ``x``, highest degree first: ``numpy.polyval``'s
    loop, bit for bit."""
    value = 0.0
    for c in coefficients:
        value = value * x + c
    return value


def _polyfit(xs: Sequence[float], ys: Sequence[float],
             degree: int) -> tuple[float, ...]:
    """Least-squares polynomial coefficients, highest degree first.

    ``numpy.polyfit``'s system — the Vandermonde matrix with each column
    scaled to unit norm — solved by Householder QR instead of an SVD: the
    two agree to rounding on a well-conditioned system.  Refuses samples
    that do not determine a degree-``degree`` curve.
    """
    n, k = len(xs), degree + 1
    powers = [[1.0] * n]
    for _ in range(degree):
        powers.append([p * x for p, x in zip(powers[-1], xs)])
    columns = powers[::-1]
    scale = [math.sqrt(math.fsum(a * a for a in col)) for col in columns]
    columns = [[a / s for a in col] for col, s in zip(columns, scale)]
    rhs = [float(y) for y in ys]
    for j in range(k):
        head = columns[j]
        alpha = -math.copysign(math.hypot(*head[j:]), head[j])
        v = head[j:]
        v[0] -= alpha
        vv = math.fsum(a * a for a in v)
        if vv == 0.0:
            continue
        for col in columns[j:] + [rhs]:
            f = 2.0 * math.fsum(a * b for a, b in zip(v, col[j:])) / vv
            col[j:] = [b - f * a for a, b in zip(v, col[j:])]
    diagonal = [abs(columns[j][j]) for j in range(k)]
    if min(diagonal) <= n * 2.0 ** -52 * max(diagonal):
        raise ValueError(f"the samples do not determine a degree-{degree} fit")
    solution = [0.0] * k
    for j in reversed(range(k)):
        known = math.fsum(columns[c][j] * solution[c] for c in range(j + 1, k))
        solution[j] = (rhs[j] - known) / columns[j][j]
    return tuple(c / s for c, s in zip(solution, scale))


@dataclass
class CommCostModel:
    """Fitted cost functions for the collective patterns.

    This is the off-line product the compile-time model consumes; it also
    carries the raw latency/bandwidth for the point-to-point terms of
    eq. (5), and the topology it was measured on (``None`` = shared bus).
    """

    params: NetworkParameters
    fits: dict[str, PatternFit] = field(default_factory=dict)
    topology: Optional[Topology] = None

    def one_to_all(self, n_procs: int) -> float:
        return self._eval("OA", n_procs)

    def all_to_one(self, n_procs: int) -> float:
        return self._eval("AO", n_procs)

    def all_to_all(self, n_procs: int) -> float:
        return self._eval("AA", n_procs)

    def neighbor_exchange(self, n_procs: int) -> float:
        """The profile exchange of a diffusion sweep: each host sends to
        each of its topology neighbors.  Falls back to all-to-all when
        no NX fit exists — exact on the bus, where adjacency is
        complete."""
        if n_procs <= 1:
            return 0.0
        fit = self.fits.get(NEIGHBOR_PATTERN)
        if fit is not None:
            return fit(n_procs)
        return self._eval("AA", n_procs)

    def interrupt_wave(self, n_procs: int) -> float:
        """The interrupts of a diffusion sweep, as one node pays for
        them: it is told by a neighbor and tells its own, one more
        neighbor exchange.  Without an NX fit (the bus) the initiator
        alone tells everyone — one-to-all, again exact."""
        if NEIGHBOR_PATTERN in self.fits:
            return self.neighbor_exchange(n_procs)
        return self.one_to_all(n_procs)

    def _eval(self, pattern: str, n_procs: int) -> float:
        if n_procs <= 1:
            return 0.0
        fit = self.fits.get(pattern)
        if fit is None:
            raise KeyError(f"pattern {pattern!r} not characterized")
        return fit(n_procs)

    @property
    def latency(self) -> float:
        """Point-to-point latency ``L`` (paper eq. 5)."""
        return self.params.latency

    @property
    def bandwidth(self) -> float:
        """Bandwidth ``B`` in bytes/second (paper eq. 5)."""
        return self.params.bandwidth

    def point_to_point(self, nbytes: int) -> float:
        """One message of ``nbytes``: ``L + nbytes / B``."""
        return self.params.transfer_time(nbytes)

    def movement_time(self, nbytes: float, n_messages: int = 1) -> float:
        """Data-movement term of eq. (5): ``n_messages * L + nbytes / B``."""
        return transfer_seconds(self.latency, self.bandwidth, nbytes,
                                n_messages)

    @staticmethod
    def analytic(params: Optional[NetworkParameters] = None) -> "CommCostModel":
        """Closed-form fallback (no measurement): linear/quadratic shapes.

        Useful when a quick model evaluation is needed without paying for
        the off-line characterization; the fitted version is preferred.
        """
        p = params or NetworkParameters()
        msg = p.transfer_time(DEFAULT_PROBE_BYTES)
        model = CommCostModel(params=p)
        # One-to-all serializes at the sender; all-to-one at the receiver
        # (receive overhead dominates); all-to-all is quadratic on the bus.
        wire = p.wire_time(DEFAULT_PROBE_BYTES)
        model.fits["OA"] = PatternFit(
            "OA", (p.send_overhead + wire, p.recv_overhead - wire), (),
            DEFAULT_PROBE_BYTES)
        model.fits["AO"] = PatternFit(
            "AO", (max(p.recv_overhead, wire), msg), (), DEFAULT_PROBE_BYTES)
        model.fits["AA"] = PatternFit(
            "AA", (wire, max(p.recv_overhead, wire), msg), (),
            DEFAULT_PROBE_BYTES)
        return model


def characterize_network(params: Optional[NetworkParameters] = None,
                         proc_counts: Sequence[int] = tuple(range(2, 17)),
                         probe_bytes: int = DEFAULT_PROBE_BYTES,
                         degree: int = 2,
                         topology: TopologySpec = None) -> CommCostModel:
    """Measure the collective patterns and polyfit each (Figure 4).

    Parameters
    ----------
    params:
        Transport parameters; defaults to the paper's measured values.
    proc_counts:
        Processor counts to measure; the paper sweeps 2..16.
    probe_bytes:
        Per-message payload used for the probes.
    degree:
        Polynomial degree for the fit (2, matching the visible curvature
        of the paper's AA curve).
    topology:
        ``None`` measures the paper's shared bus (and fits only
        OA/AO/AA, exactly the seed behavior).  A family spec
        (``"ring"``, ``"torus"``, ...) builds that family at each
        processor count and additionally fits the neighbor-exchange
        pattern.  A concrete :class:`Topology` is measured at its own
        host count only, with a constant (degree-0) fit — the predictor
        only ever evaluates the model at the run's P.
    """
    params = params or NetworkParameters()
    resolved: Optional[Topology] = None
    if isinstance(topology, Topology):
        resolved = topology
        proc_counts = (topology.n_hosts,)
        degree = 0
    elif topology is not None:
        resolved = resolve_topology(topology, max(proc_counts))
    if len(proc_counts) < degree + 1:
        raise ValueError("need more sample points than the fit degree")
    model = CommCostModel(params=params, topology=resolved)
    patterns = PATTERNS if topology is None else PATTERNS + (NEIGHBOR_PATTERN,)
    for pattern in patterns:
        samples = [(p, measure_pattern(pattern, p, probe_bytes, params,
                                       topology=topology))
                   for p in proc_counts]
        model.fits[pattern] = PatternFit(
            pattern=pattern,
            coefficients=_polyfit([float(p) for p, _ in samples],
                                  [t for _, t in samples], degree),
            samples=tuple(samples),
            probe_bytes=probe_bytes)
    return model


@dataclass(frozen=True)
class ProbeEstimate:
    """Least-squares estimate of effective network parameters.

    Produced by :func:`probe_link_parameters` from seeded random
    point-to-point probes.  ``latency``/``bandwidth`` are the intercept
    and inverse slope of the time-vs-bytes fit; ``mean_hops`` reports
    the average route length of the probed pairs (1.0 on the bus).
    """

    latency: float
    bandwidth: float
    mean_hops: float
    seed: int
    samples: tuple[tuple[int, int, int, float], ...]  # (src, dst, nbytes, s)


def _measure_point_to_point(src: int, dst: int, nbytes: int,
                            params: Optional[NetworkParameters],
                            topology: TopologySpec, n_hosts: int) -> float:
    from ..simulation import Environment
    from .graph import build_network

    env = Environment()
    net = build_network(env, topology, n_hosts, params)

    def run():
        ev = yield from net.transmit(src, dst, nbytes)
        yield ev

    proc = env.process(run(), name=f"probe:{src}->{dst}")
    env.run(proc)
    return env.now


def probe_link_parameters(params: Optional[NetworkParameters] = None,
                          topology: TopologySpec = None,
                          n_hosts: int = 8,
                          n_probes: int = 8,
                          probe_sizes: Sequence[int] = (DEFAULT_PROBE_BYTES,
                                                        4096),
                          seed: Union[int, None] = 0) -> ProbeEstimate:
    """Estimate effective latency/bandwidth from random one-shot probes.

    Probe pairs are drawn with ``numpy.random.default_rng(seed)`` — the
    estimate is a pure function of its arguments, never of global RNG
    state, so results are reproducible and pinnable in tests.  Each
    probe runs on a *fresh* uncontended network, measuring the delivery
    time of a single message; the least-squares line through
    ``(nbytes, seconds)`` yields intercept = effective latency (route
    overheads included) and slope = 1/bandwidth.
    """
    if n_hosts < 2:
        raise ValueError("need at least two hosts to probe")
    if n_probes < 1:
        raise ValueError("need at least one probe pair")
    if len(probe_sizes) < 2 or len(set(probe_sizes)) < 2:
        raise ValueError("need two distinct probe sizes to fit a line")
    import numpy as np
    rng = np.random.default_rng(seed)
    topo = resolve_topology(topology, n_hosts)
    samples: list[tuple[int, int, int, float]] = []
    hops_total = 0
    for _ in range(n_probes):
        src = int(rng.integers(0, n_hosts))
        dst = int(rng.integers(0, n_hosts - 1))
        if dst >= src:
            dst += 1
        hops_total += topo.hops(src, dst)
        for nbytes in probe_sizes:
            seconds = _measure_point_to_point(src, dst, int(nbytes), params,
                                              topo, n_hosts)
            samples.append((src, dst, int(nbytes), seconds))
    xs = np.array([nb for _, _, nb, _ in samples], dtype=float)
    ts = np.array([t for _, _, _, t in samples])
    slope, intercept = np.polyfit(xs, ts, 1)
    bandwidth = float(1.0 / slope) if slope > 0 else float("inf")
    return ProbeEstimate(latency=float(intercept),
                         bandwidth=bandwidth,
                         mean_hops=hops_total / n_probes,
                         seed=seed if seed is not None else -1,
                         samples=tuple(samples))
