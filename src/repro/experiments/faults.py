"""Robustness experiment: completion rate and slowdown under faults.

The paper's experiments assume a reliable network of workstations; this
module measures what the reproduction's hardened runtime (see
``docs/FAULT_MODEL.md``) pays when that assumption breaks.  For every
strategy and fault scenario it runs seeded fault injections and reports

* **completion rate** — the fraction of runs that finished with the
  exactly-once coverage invariant intact (a run that loses or
  duplicates iterations, or dies on an unrecoverable fault, counts as
  failed), and
* **slowdown** — completed-run duration divided by the same seed's
  fault-free duration (detection timeouts, retries and reclaimed-work
  re-execution all show up here).

Usage::

    from repro.experiments.faults import fault_sweep, render_fault_sweep
    result = fault_sweep(seeds=(1000, 1001, 1002))
    print(render_fault_sweep(result))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..apps.workload import LoopSpec
from ..faults import (
    CrashFault,
    FaultPlan,
    MessageDropFault,
    SlowdownFault,
)
from ..machine.cluster import ClusterSpec
from ..protocol.errors import ProtocolError
from ..runtime.executor import CoverageError, run_loop
from ..runtime.options import FaultToleranceConfig, RunOptions
from ..simulation import SimulationError
from .config import TABLE_SCHEMES

__all__ = [
    "FaultCell",
    "FaultScenario",
    "FaultSweepResult",
    "fault_sweep",
    "render_fault_sweep",
    "standard_scenarios",
]

#: plan factory signature: (baseline_duration, n_processors, seed) -> plan
PlanFactory = Callable[[float, int, int], FaultPlan]


@dataclass(frozen=True)
class FaultScenario:
    """One named fault regime, instantiated per seed against the
    measured fault-free duration of that seed's run."""

    name: str
    description: str
    make_plan: PlanFactory


def standard_scenarios() -> tuple[FaultScenario, ...]:
    """The default regimes of the robustness sweep."""

    def crash_mid(duration: float, n: int, seed: int) -> FaultPlan:
        victim = 1 + seed % (n - 1)
        return FaultPlan(
            crashes=(CrashFault(node=victim, time=0.4 * duration),),
            seed=seed)

    def crash_late(duration: float, n: int, seed: int) -> FaultPlan:
        victim = 1 + seed % (n - 1)
        return FaultPlan(
            crashes=(CrashFault(node=victim, time=0.8 * duration),),
            seed=seed)

    def drop_storm(duration: float, n: int, seed: int) -> FaultPlan:
        return FaultPlan(
            drops=(MessageDropFault(probability=0.3, max_drops=6),),
            seed=seed)

    def freeze(duration: float, n: int, seed: int) -> FaultPlan:
        victim = 1 + seed % (n - 1)
        return FaultPlan(
            slowdowns=(SlowdownFault(node=victim, time=0.3 * duration,
                                     duration=0.25 * duration),),
            seed=seed)

    return (
        FaultScenario("crash-mid", "one node dies at 40% of the run",
                      crash_mid),
        FaultScenario("crash-late", "one node dies at 80% of the run",
                      crash_late),
        FaultScenario("drop-storm", "30% drop chance on the next 6 messages",
                      drop_storm),
        FaultScenario("freeze", "one node frozen for 25% of the run",
                      freeze),
    )


@dataclass
class FaultCell:
    """Aggregated outcome of one (scenario, strategy) pair."""

    scenario: str
    scheme: str
    n_runs: int = 0
    n_completed: int = 0
    slowdowns: list[float] = field(default_factory=list)
    retries: int = 0
    reclaimed: int = 0
    salvaged: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        return self.n_completed / self.n_runs if self.n_runs else 0.0

    @property
    def mean_slowdown(self) -> float:
        if not self.slowdowns:
            return float("nan")
        return sum(self.slowdowns) / len(self.slowdowns)


@dataclass
class FaultSweepResult:
    """All cells of one robustness sweep."""

    loop_name: str
    n_processors: int
    schemes: tuple[str, ...]
    scenarios: tuple[str, ...]
    seeds: tuple[int, ...]
    cells: dict[tuple[str, str], FaultCell]

    def cell(self, scenario: str, scheme: str) -> FaultCell:
        return self.cells[(scenario, scheme)]


def _default_loop() -> LoopSpec:
    return LoopSpec(name="mxm-small", n_iterations=128,
                    iteration_time=0.008, dc_bytes=1600)


def fault_sweep(loop: Optional[LoopSpec] = None,
                n_processors: int = 4,
                schemes: Sequence[str] = TABLE_SCHEMES,
                scenarios: Optional[Sequence[FaultScenario]] = None,
                seeds: Sequence[int] = (1000, 1001, 1002),
                max_load: int = 3,
                persistence: float = 0.5,
                ft: Optional[FaultToleranceConfig] = None,
                options: Optional[RunOptions] = None) -> FaultSweepResult:
    """Run the robustness sweep: schemes x scenarios x seeds.

    Per seed, each scheme first runs fault-free (the slowdown baseline
    and the duration the scenario's fault times are anchored to), then
    once per scenario with that scenario's plan injected.
    """
    loop = loop or _default_loop()
    scenarios = tuple(scenarios if scenarios is not None
                      else standard_scenarios())
    options = options or RunOptions()
    if ft is None:
        # Detection knobs scaled to the workload: patience of a few
        # dozen iterations rather than the conservative library default.
        base = max(10.0 * loop.mean_iteration_time, 0.05)
        ft = FaultToleranceConfig(enabled=False, request_timeout=base,
                                  backoff=2.0, max_retries=4,
                                  liveness_timeout=3.0 * base)
    # Keep ``enabled`` as given (False = vanilla baseline runs): the
    # executor auto-enables fault tolerance for the injected runs while
    # reusing these timeout knobs.
    options = options.but(fault_tolerance=ft)
    cells = {(sc.name, scheme): FaultCell(scenario=sc.name, scheme=scheme)
             for sc in scenarios for scheme in schemes}

    for seed in seeds:
        cluster = ClusterSpec.homogeneous(
            n_processors, max_load=max_load, persistence=persistence,
            seed=seed)
        for scheme in schemes:
            baseline = run_loop(loop, cluster, scheme, options=options)
            for sc in scenarios:
                plan = sc.make_plan(baseline.duration, n_processors, seed)
                cell = cells[(sc.name, scheme)]
                cell.n_runs += 1
                try:
                    stats = run_loop(loop, cluster, scheme,
                                     options=options, fault_plan=plan)
                except (CoverageError, ProtocolError, SimulationError) as exc:
                    cell.failures.append(f"seed {seed}: {exc}")
                    continue
                cell.n_completed += 1
                cell.slowdowns.append(stats.duration / baseline.duration)
                cell.retries += stats.fault_retries
                cell.reclaimed += stats.reclaimed_iterations
                cell.salvaged += stats.salvaged_iterations

    return FaultSweepResult(
        loop_name=loop.name, n_processors=n_processors,
        schemes=tuple(schemes), scenarios=tuple(s.name for s in scenarios),
        seeds=tuple(seeds), cells=cells)


def render_fault_sweep(result: FaultSweepResult) -> str:
    """Completion-rate / slowdown table, scenarios down, schemes across."""
    width = 18
    head = f"{'scenario':<14s}" + "".join(
        f"{s:>{width}s}" for s in result.schemes)
    title = (f"== robustness: {result.loop_name} P={result.n_processors} "
             f"({len(result.seeds)} seed"
             f"{'s' if len(result.seeds) != 1 else ''}; "
             f"completion rate / mean slowdown) ==")
    lines = [title, head, "-" * len(head)]
    for scenario in result.scenarios:
        row = f"{scenario:<14s}"
        for scheme in result.schemes:
            cell = result.cell(scenario, scheme)
            if cell.n_completed:
                entry = (f"{cell.completion_rate:4.0%} /"
                         f"{cell.mean_slowdown:6.2f}x")
            else:
                entry = f"{cell.completion_rate:4.0%} /     -"
            row += f"{entry:>{width}s}"
        lines.append(row)
    lines.append("-" * len(head))
    lines.append("slowdown = faulted duration / same-seed fault-free "
                 "duration; only completed runs counted")
    failures = [f"  {scenario}/{scheme}: {msg}"
                for (scenario, scheme), cell in sorted(result.cells.items())
                for msg in cell.failures]
    if failures:
        lines.append("failures:")
        lines.extend(failures)
    return "\n".join(lines)
