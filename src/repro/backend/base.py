"""The ``ExecutionBackend`` seam.

A backend supplies the four execution facets the protocol layer
(:mod:`repro.protocol`) deliberately knows nothing about:

* **clock** — what "now" means (virtual event time vs. wall clock),
* **timers** — how an :class:`~repro.protocol.commands.AwaitMessage`
  timeout is realized (event-heap entry vs. condition-variable wait),
* **transport** — how a :class:`~repro.protocol.commands.Send` reaches
  the peer (simulated shared-bus Ethernet vs. in-process queues),
* **compute** — how a compute slice burns "work" (simulated load-model
  time vs. synthetic CPU-burn kernels).

The protocol objects emit commands; the backend interprets them.
:class:`~repro.backend.sim.SimBackend` maps them onto the discrete-event
kernel (bit-identical to the pre-seam runtime); the thread, process and
socket backends share one interpreter, :mod:`repro.backend.driver`, and
differ only in how they wait for a message and burn an iteration.  Which
feature runs on which backend is one table:
:data:`repro.backend.capabilities.CAPABILITIES`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Optional, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.workload import LoopSpec
    from ..core.strategies.base import StrategySpec
    from ..faults.plan import FaultPlan
    from ..machine.cluster import ClusterSpec
    from ..runtime.options import RunOptions
    from ..runtime.stats import LoopRunStats

__all__ = ["ExecutionBackend", "BackendError", "get_backend",
           "join_or_terminate", "mp_context", "WATCHDOG_SECONDS",
           "CRASH_EXIT_CODE", "POLL_SECONDS", "DRAIN_GRACE_SECONDS"]

StrategyLike = Union[str, "StrategySpec"]

#: Safety net, in wall seconds: an untimed wait gives up after this
#: long (:class:`~repro.backend.driver.Deadline`: a peer likely died
#: without notice), and a real run's
#: :class:`~repro.backend.driver.Supervisor` after twice this, with a
#: stall report.
WATCHDOG_SECONDS = 120.0

#: Exit code of a fault-injected fail-stop; distinguishes a scheduled
#: crash from a worker that died of a bug (one value on every backend,
#: so tooling treats scheduled crashes uniformly).
CRASH_EXIT_CODE = 17

#: Floor of the socket hub's heartbeat round (the process backend
#: waits on events, never on a poll).
POLL_SECONDS = 0.02

#: How long the socket hub waits, once every iteration is reported,
#: before it dismisses whoever still waits (a joiner whose fence never
#: came).
DRAIN_GRACE_SECONDS = 2.0


class BackendError(ValueError):
    """A run was requested that this backend cannot execute."""


class ExecutionBackend(ABC):
    """One way of executing the DLB protocol (see module docstring).

    ``name`` is recorded into :attr:`LoopRunStats.backend` so runs stay
    distinguishable post-hoc (CSV/JSON exports include it).
    """

    #: Stable identifier, also the CLI ``--backend`` value.
    name: str = "?"

    @abstractmethod
    def run_loop(self, loop: "LoopSpec", cluster: "ClusterSpec",
                 strategy: StrategyLike,
                 options: Optional["RunOptions"] = None,
                 selector: Optional[Callable] = None,
                 fault_plan: Optional["FaultPlan"] = None) -> "LoopRunStats":
        """Execute one load-balanced loop; return its statistics.

        Implementations must uphold the exactly-once invariant (every
        iteration executed once across all nodes) or raise; they must
        raise :class:`BackendError` for configurations they do not
        support rather than silently degrading.
        """


def get_backend(backend: Union[str, ExecutionBackend, None]
                ) -> ExecutionBackend:
    """Resolve a backend name (a key of
    :data:`~repro.backend.capabilities.CAPABILITIES`; ``None`` means
    ``"sim"``) or pass an instance through."""
    if isinstance(backend, ExecutionBackend):
        return backend
    classes = {"sim": "SimBackend", "thread": "ThreadBackend",
               "process": "ProcessBackend", "socket": "SocketBackend"}
    name = backend or "sim"
    if name not in classes:
        raise BackendError(f"unknown backend {backend!r} (expected "
                           f"{', '.join(repr(b) for b in classes)})")
    # Imported here: the backends import this module.
    from importlib import import_module
    return getattr(import_module(f"{__package__}.{name}"), classes[name])()


def mp_context(start_method: Optional[str]):
    """The ``multiprocessing`` context for ``start_method`` (``None``:
    fork where available, else the platform default)."""
    import multiprocessing
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
    try:
        return multiprocessing.get_context(start_method)
    except ValueError as exc:
        raise BackendError(
            f"unknown start method {start_method!r}") from exc


def join_or_terminate(participants: Iterable, *, timeout: float = 5.0,
                      escalate: bool = False) -> None:
    """Join every still-live participant, escalating stragglers.

    The one shutdown path shared by the real-time backends: threads
    (they stop at their next abort poll), worker processes and socket
    worker subprocesses (``escalate``: terminated first, and killed if
    that did not end them).  A participant is anything with
    ``is_alive()`` and ``join(timeout)``.
    """
    for p in participants:
        if not p.is_alive():
            continue
        if escalate:
            p.terminate()
        p.join(timeout)
        if p.is_alive() and escalate:
            p.kill()
            p.join(timeout)
