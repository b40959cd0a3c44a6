"""Which feature runs on which backend — stated once.

:data:`CAPABILITIES` is the only place that knows; :func:`validate`
(called by the run set-up of all four backends,
:func:`~repro.backend.driver.prepare_run`), :func:`require_kernel`
(the real backends' constructors), the CLI's ``--backend`` /
``--kernel`` checks and the matrix in ``docs/ARCHITECTURE.md``
(:func:`render_matrix`, pinned by
``tests/protocol/test_capabilities.py``) are all produced from it.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from .base import BackendError
from .kernels import HAVE_NUMPY, KERNELS

if TYPE_CHECKING:  # pragma: no cover
    from ..core.strategies.base import StrategySpec
    from ..faults.plan import FaultPlan
    from ..runtime.options import RunOptions

__all__ = ["CAPABILITIES", "FEATURES", "backends_with", "render_matrix",
           "require_kernel", "validate"]

_BACKENDS = ("sim", "thread", "process", "socket")

#: feature -> what a refusal calls it.
FEATURES = {
    "WS": "the work-stealing baseline",
    "CUSTOM": "the CUSTOM model-based selection (it consults the "
              "simulated load model; pick a concrete strategy)",
    "topology": "a graph topology (logical on threads, which share memory; "
                "the process and socket transports are flat meshes)",
    "DIFF": "the diffusion strategy (it plans over a graph topology)",
    "crash": "crash faults from a fault plan (a thread cannot be crashed "
             "safely from outside)",
    "slowdown/drop/delay": "slowdown, drop and delay fault injection "
                           "(the real backends lift crash faults only)",
    "ft-without-plan": "the hardened protocol armed without a fault plan "
                       "(pointless where no fault can be injected)",
    "periodic sync": "periodic synchronization",
    "staging": "staged scatter/gather",
    "kernels": "CPU-burn kernels (constructor argument `kernel`)",
    "start_method": "multiprocessing start method (constructor argument "
                    "`start_method`)",
    "elastic membership": "elastic join / leave / kill (constructor "
                          "argument `script`, `balancer` / `worker` CLI)",
}

_ROWS = {
    #                        sim    thread  process socket
    "WS":                   (True,  False,  False,  False),
    "CUSTOM":               (True,  False,  False,  False),
    "topology":             (True,  True,   False,  False),
    "DIFF":                 (True,  True,   False,  False),
    "crash":                (True,  False,  True,   True),
    "slowdown/drop/delay":  (True,  False,  False,  False),
    "ft-without-plan":      (True,  False,  True,   True),
    "periodic sync":        (True,  False,  False,  False),
    "staging":              (True,  False,  False,  False),
    # The first kernel of a cell is that backend's default.
    "kernels":              ((), ("wall", "ops"), ("ops", "numpy"), ()),
    "start_method":         (False, False,  True,   True),
    "elastic membership":   (False, False,  False,  True),
}

#: ``{backend: {feature: supported}}``; the ``kernels`` cell is the
#: tuple of kernel names the backend accepts.
CAPABILITIES: dict[str, dict[str, object]] = {
    backend: {feature: row[i] for feature, row in _ROWS.items()}
    for i, backend in enumerate(_BACKENDS)}


def backends_with(feature: str, having: Optional[str] = None) -> list[str]:
    """Backends supporting ``feature`` (whose cell contains ``having``)."""
    return [b for b, cells in CAPABILITIES.items()
            if (having in cells[feature] if having is not None
                else cells[feature])]


def _only(backends: list[str]) -> str:
    return ("simulation-only" if backends == ["sim"]
            else "/".join(backends) + "-only")


def require_kernel(backend: str, kernel: str) -> None:
    """Refuse a kernel this backend (or this host) cannot run."""
    accepted = CAPABILITIES[backend]["kernels"]
    if kernel not in accepted:
        elsewhere = backends_with("kernels", kernel)
        raise BackendError(
            f"kernels: the {backend} backend accepts "
            f"{', '.join(repr(k) for k in accepted)}, not {kernel!r}"
            + (f" (which is {_only(elsewhere)})" if elsewhere
               else f" (known kernels: {', '.join(KERNELS)})"))
    if kernel == "numpy" and not HAVE_NUMPY:
        raise BackendError(
            "kernels: the 'numpy' kernel needs numpy installed; use "
            + " or ".join(repr(k) for k in accepted if k != "numpy"))


def validate(backend: str, spec: "StrategySpec", n: int,
             options: "RunOptions", selector: Optional[Callable],
             fault_plan: Optional["FaultPlan"]) -> None:
    """Refuse a run that asks ``backend`` for a feature it lacks."""
    plan = fault_plan if fault_plan is not None and not fault_plan.empty \
        else None
    asked = {
        "WS": spec.code == "WS",
        "CUSTOM": spec.code == "CUSTOM" or selector is not None,
        "crash": plan is not None and bool(plan.crashes),
        "slowdown/drop/delay": plan is not None and bool(
            plan.slowdowns or plan.drops or plan.delays),
        "ft-without-plan": options.fault_tolerance.enabled and plan is None,
        "periodic sync": options.sync_mode != "interrupt",
        "staging": options.include_staging,
        "topology": options.topology is not None,
        "DIFF": spec.code == "DIFF",
    }
    for feature, wanted in asked.items():
        if wanted and not CAPABILITIES[backend][feature]:
            raise BackendError(
                f"{feature}: {FEATURES[feature]} is "
                f"{_only(backends_with(feature))}, not available with "
                f"--backend {backend}")
    if spec.is_dlb and n < 2:
        raise BackendError(
            "dynamic load balancing needs at least 2 processors")
    if spec.code == "WS" and (plan is not None or asked["periodic sync"]
                              or options.fault_tolerance.enabled):
        raise BackendError(
            "the work-stealing baseline takes no fault plan, hardened "
            "protocol or periodic sync (it has no synchronization points "
            "and no timeout/reclaim protocol)")


def render_matrix() -> str:
    """The capability table as the markdown ``docs/ARCHITECTURE.md``
    carries verbatim."""
    def cell(value) -> str:
        if isinstance(value, tuple):
            return ", ".join(value) or "–"
        return "yes" if value else "–"

    lines = ["| feature | " + " | ".join(_BACKENDS) + " |",
             "|---|" + "---|" * len(_BACKENDS)]
    for feature, what in FEATURES.items():
        cells = " | ".join(cell(CAPABILITIES[b][feature]) for b in _BACKENDS)
        lines.append(f"| `{feature}` — {what} | {cells} |")
    return "\n".join(lines)
