"""Execution options for the DLB run-time executor."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..core.policy import DlbPolicy
from ..network.parameters import NetworkParameters
from ..network.topology import Topology, parse_topology_spec

__all__ = ["RunOptions", "FaultToleranceConfig"]


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Timeout/retry/detection knobs of the hardened protocol.

    With ``enabled=False`` (the default) every receive in the DLB
    protocol blocks forever, exactly as in the original reproduction —
    the fault-free experiments are bit-for-bit unchanged.  With
    ``enabled=True`` (implied whenever a fault plan is supplied) every
    protocol wait carries a timeout; on expiry the waiter re-requests
    the missing message and backs off exponentially, and after
    ``max_retries`` unanswered attempts it declares the peer dead
    (fencing it if it is in fact alive — see docs/FAULT_MODEL.md).

    Attributes
    ----------
    enabled:
        Turn the hardened protocol on.
    request_timeout:
        Base wait, in seconds, before the first re-request.  Should
        comfortably exceed one iteration time plus a network round trip
        so loaded-but-healthy peers are not falsely suspected.
    backoff:
        Multiplier applied to the timeout after each retry (bounded
        exponential backoff).
    max_retries:
        Re-requests before the peer is declared dead.  The total
        patience is ``request_timeout * (backoff**(max_retries+1) - 1)
        / (backoff - 1)``.
    liveness_timeout:
        The central balancer's probe period: a member still silent
        ``liveness_timeout`` after the last probe round is probed (a
        pull-based heartbeat: the probe doubles as a synchronization
        interrupt for live members).  ``liveness_timeout *
        (max_retries + 1)`` is the master's time-to-declare, and a
        slave's instruction wait spends its retries only past it
        (:attr:`instruction_retries`).
    """

    enabled: bool = False
    request_timeout: float = 0.2
    backoff: float = 2.0
    max_retries: int = 5
    liveness_timeout: float = 0.5

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.liveness_timeout <= 0:
            raise ValueError("liveness_timeout must be positive")

    def timeout_for(self, attempt: int) -> float:
        """Wait before re-request number ``attempt`` (0-based)."""
        return self.request_timeout * (self.backoff ** attempt)

    @property
    def instruction_retries(self) -> int:
        """How often a slave re-sends its profile before it gives up on
        the master, which is reliable by assumption but silent while it
        declares a dead group member: ``max_retries`` re-sends past the
        master's time-to-declare, the backoff held at its last step."""
        free, waited = 0, 0.0
        while True:
            waited += self.timeout_for(min(free, self.max_retries))
            if waited > self.liveness_timeout * (self.max_retries + 1):
                return free + self.max_retries
            free += 1


@dataclass(frozen=True)
class RunOptions:
    """Knobs of one executor run.

    Attributes
    ----------
    policy:
        The DLB thresholds and costs (§3.3–§3.4).
    network:
        Transport parameters; defaults to the paper's measured values.
    topology:
        The network graph: ``None`` (the paper's shared bus — the seed
        behavior, bit-identical), a spec string (``"bus"``, ``"ring"``,
        ``"mesh"``, ``"torus"``, ``"file:<adjacency.json>"``), or a
        concrete :class:`~repro.network.topology.Topology`.  Resolved
        against the processor count when the run starts.
    group_size:
        ``K`` for the local strategies.  ``0`` means the paper's
        two-group setting, ``K = ceil(P / 2)``.
    include_staging:
        Model the initial scatter and final gather of the distributed
        arrays (and sequential-stage gather/scatter).  Off by default:
        staging cost is identical across strategies and the paper's
        claims concern the loop execution; see EXPERIMENTS.md.
    profile_window_reset:
        Reset the performance window at every synchronization (the
        paper's "since the last synchronization point" metric).  When
        False the whole history is used (the §3.2 alternative).
    on_execute:
        Optional callback ``(node, ranges)`` fired, on every backend,
        as the run books iterations executed — used by the
        compiled-code integration to actually run kernels and check
        exactly-once execution.
    recorder:
        An :class:`~repro.obs.trace.TraceRecorder` to stream structured
        span/instant events into (``None``, the default, records
        nothing — instrumentation sites hold the shared
        :data:`~repro.obs.trace.NULL_RECORDER`, whose cost is gated in
        ``benchmarks/test_bench_obs.py``).  The backend binds the
        recorder's clock to its own time domain: virtual seconds on the
        simulator, zero-based ``perf_counter`` elsewhere.  See
        docs/OBSERVABILITY.md.
    group_formation:
        How the local strategies form their fixed groups (§3.5):
        ``"block"`` (the paper's choice), ``"interleaved"``, or
        ``"random"`` (seeded by ``group_seed``).
    initial_partition:
        ``"equal"`` — the paper's equal-block compiler default; or
        ``"speed"`` — blocks proportional to nominal processor speeds
        (static heterogeneity handling; the extension the paper cites
        from Cierniak/Li/Zaki).
    sync_mode:
        ``"interrupt"`` — the paper's receiver-initiated scheme; or
        ``"periodic"`` — timer-based synchronization every
        ``sync_period`` seconds (the Dome/Siegell model of §2.2), in
        which the lowest-numbered active group member initiates the
        sync at the first iteration boundary past the deadline
        (diffusion has no group to agree on a clock: every node stops
        at its own deadline and the wave carries the interrupt on).
    sync_period:
        Period for ``sync_mode="periodic"``, in seconds.
    fault_tolerance:
        Timeout/retry/fencing knobs of the hardened protocol (see
        :class:`FaultToleranceConfig` and docs/FAULT_MODEL.md).  Off by
        default; automatically enabled when the executor is given a
        fault plan.
    """

    policy: DlbPolicy = field(default_factory=DlbPolicy)
    network: NetworkParameters = field(default_factory=NetworkParameters)
    topology: "str | Topology | None" = None
    group_size: int = 0
    include_staging: bool = False
    profile_window_reset: bool = True
    on_execute: Optional[Callable[[int, list[tuple[int, int]]], None]] = None
    recorder: Optional[object] = None
    group_formation: str = "block"
    group_seed: int = 0
    initial_partition: str = "equal"
    sync_mode: str = "interrupt"
    sync_period: float = 1.0
    fault_tolerance: FaultToleranceConfig = field(
        default_factory=FaultToleranceConfig)

    def __post_init__(self) -> None:
        if isinstance(self.topology, str):
            parse_topology_spec(self.topology)  # fail fast on bad specs
        if self.group_formation not in ("block", "interleaved", "random"):
            raise ValueError(f"bad group_formation {self.group_formation!r}")
        if self.initial_partition not in ("equal", "speed"):
            raise ValueError(
                f"bad initial_partition {self.initial_partition!r}")
        if self.sync_mode not in ("interrupt", "periodic"):
            raise ValueError(f"bad sync_mode {self.sync_mode!r}")
        if self.sync_period <= 0:
            raise ValueError("sync_period must be positive")

    def effective_group_size(self, n_processors: int,
                             strategy_group_size: Optional[int]) -> int:
        """Resolve ``K``: strategy override > option > paper default."""
        if strategy_group_size:
            return min(strategy_group_size, n_processors)
        if self.group_size:
            return min(self.group_size, n_processors)
        return max(1, (n_processors + 1) // 2)

    def but(self, **changes) -> "RunOptions":
        return replace(self, **changes)
