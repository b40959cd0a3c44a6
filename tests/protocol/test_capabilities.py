"""Every cell of the capability table, against the backends themselves.

``CAPABILITIES`` is the one statement of which feature runs on which
backend; these tests make each cell true in both directions (an
unsupported cell is refused by name, a supported one passes validation)
and pin the rendered matrix to the copy in ``docs/ARCHITECTURE.md`` so
the doc cannot drift.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

from repro import ClusterSpec, run_application, run_loop
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.apps.workload import ApplicationSpec
from repro.backend import BackendError, driver, get_backend
from repro.backend.capabilities import (
    CAPABILITIES,
    FEATURES,
    backends_with,
    render_matrix,
    validate,
)
from repro.backend.kernels import KERNELS
from repro.cli import build_parser, main
from repro.core.strategies.registry import get_strategy
from repro.faults.plan import FaultPlan, MessageDropFault
from repro.runtime.options import FaultToleranceConfig, RunOptions

#: How a run asks for each run-level feature.
REQUESTS = {
    "WS": dict(strategy="WS"),
    "CUSTOM": dict(strategy="CUSTOM"),
    "topology": dict(options=RunOptions(topology="ring")),
    "DIFF": dict(strategy="DIFF"),
    "crash": dict(fault_plan=FaultPlan.single_crash(node=1, time=0.01)),
    "slowdown/drop/delay": dict(
        fault_plan=FaultPlan(drops=(MessageDropFault(probability=0.5),))),
    "ft-without-plan": dict(options=RunOptions(
        fault_tolerance=FaultToleranceConfig(enabled=True))),
    "periodic sync": dict(options=RunOptions(sync_mode="periodic")),
    "staging": dict(options=RunOptions(include_staging=True)),
}
#: Constructor-level features and the argument that carries them.
CONSTRUCTOR_ARGS = {"kernels": "kernel", "start_method": "start_method",
                    "elastic membership": "script"}

CELLS = [(backend, feature) for backend in CAPABILITIES
         for feature in FEATURES]


def _cluster():
    return ClusterSpec.homogeneous(4, max_load=3, persistence=1.0, seed=7)


def test_table_is_complete():
    assert list(CAPABILITIES) == ["sim", "thread", "process", "socket"]
    assert set(REQUESTS) | set(CONSTRUCTOR_ARGS) == set(FEATURES)
    for cells in CAPABILITIES.values():
        assert list(cells) == list(FEATURES)


@pytest.mark.parametrize("backend,feature", [
    cell for cell in CELLS if cell[1] in REQUESTS])
def test_run_level_cell(backend, feature):
    request = {"strategy": "GDDLB", "options": RunOptions(),
               "fault_plan": None, **REQUESTS[feature]}
    if CAPABILITIES[backend][feature]:
        validate(backend, get_strategy(request["strategy"]), 4,
                 request["options"], None, request["fault_plan"])
        return
    loop = mxm_loop(MxmConfig(16, 8, 8), op_seconds=4e-7)
    with pytest.raises(BackendError, match=re.escape(feature)) as refusal:
        get_backend(backend).run_loop(
            loop, _cluster(), request["strategy"], request["options"],
            fault_plan=request["fault_plan"])
    simulation_only = backends_with(feature) == ["sim"]
    assert ("simulation-only" in str(refusal.value)) is simulation_only


def test_the_simulators_run_path_is_validated_too(monkeypatch):
    """The sim row is enforced where the other three are — by
    ``validate``, from the shared run set-up — not by ad-hoc checks in
    the executor; its two refusals are ``BackendError``s raised there."""
    asked = []

    def spy(backend, *args):
        asked.append(backend)
        return validate(backend, *args)

    monkeypatch.setattr(driver, "validate", spy)
    loop = mxm_loop(MxmConfig(16, 8, 8), op_seconds=4e-7)
    run_loop(loop, _cluster(), "GDDLB")
    run_application(ApplicationSpec(name="two", stages=(loop, loop)),
                    _cluster(), "LCDLB")
    assert asked == ["sim"] * 3  # once per loop stage
    with pytest.raises(BackendError, match="work-stealing"):
        run_loop(loop, _cluster(), "WS",
                 fault_plan=FaultPlan.single_crash(node=1, time=0.01))
    with pytest.raises(BackendError, match="at least 2 processors"):
        run_loop(loop, ClusterSpec.homogeneous(1, max_load=0), "GDDLB")
    assert asked == ["sim"] * 5
    # The static baseline balances nothing: one processor is enough.
    run_loop(loop, ClusterSpec.homogeneous(1, max_load=0), "NONE")


@pytest.mark.parametrize("feature", ["crash", "ft-without-plan",
                                     "periodic sync"])
def test_work_stealing_refuses_what_it_would_ignore(feature):
    """WS has no synchronization points and no timeout/reclaim protocol:
    the simulator refuses a fault plan, the hardened protocol and
    periodic sync for it instead of running plain WS under them."""
    request = {"options": RunOptions(), "fault_plan": None,
               **REQUESTS[feature]}
    loop = mxm_loop(MxmConfig(16, 8, 8), op_seconds=4e-7)
    with pytest.raises(BackendError, match="work-stealing"):
        run_loop(loop, _cluster(), "WS", request["options"],
                 fault_plan=request["fault_plan"])


@pytest.mark.parametrize("backend,feature", [
    cell for cell in CELLS if cell[1] in CONSTRUCTOR_ARGS])
def test_constructor_level_cell(backend, feature):
    """A backend's constructor takes the argument iff the cell says so."""
    cls = type(get_backend(backend))
    takes = CONSTRUCTOR_ARGS[feature] in inspect.signature(cls).parameters
    assert takes is bool(CAPABILITIES[backend][feature])


@pytest.mark.parametrize("backend", list(CAPABILITIES))
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_cell(backend, kernel):
    accepted = CAPABILITIES[backend]["kernels"]
    if not accepted:
        return  # no constructor argument (test_constructor_level_cell)
    cls = type(get_backend(backend))
    if kernel in accepted:
        assert cls(kernel=kernel).kernel == kernel
    else:
        with pytest.raises(BackendError, match="kernels") as refusal:
            cls(kernel=kernel)
        assert f"{'/'.join(backends_with('kernels', kernel))}-only" \
            in str(refusal.value)
    assert inspect.signature(cls).parameters["kernel"].default == accepted[0]


def _run_choices(option):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return next(a.choices for a in sub.choices["run"]._actions
                if option in a.option_strings)


def test_cli_checks_come_from_the_table(capsys):
    # argparse needs its choices before the backend package is worth
    # importing, so the two literals are pinned to the table instead.
    assert list(_run_choices("--backend")) == list(CAPABILITIES)
    assert list(_run_choices("--kernel")) == list(KERNELS)
    for backend in CAPABILITIES:
        if CAPABILITIES[backend]["kernels"]:
            continue
        assert main(["run", "--size", "16x8x8", "-P", "2", "--strategy",
                     "GDDLB", "--backend", backend, "--kernel", "ops"]) == 2
        assert "thread and process backends only" in capsys.readouterr().err


def test_architecture_doc_carries_the_rendered_matrix():
    doc = Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"
    assert render_matrix() in doc.read_text(encoding="utf-8")


def test_real_backends_keep_the_interpreter_quantum_off_the_critical_path():
    """Source pins for what no behavioural test can see coming back: a
    ``multiprocessing.Queue`` (its feeder thread waits for the sender's
    GIL), a changed switch interval (the diagnosis, never the fix), or
    a second, private copy of the deadline hold."""
    backend = Path(__file__).resolve().parents[2] / "src/repro/backend"
    source = {path.name: path.read_text(encoding="utf-8")
              for path in sorted(backend.glob("*.py"))}
    everything = "\n".join(source.values())
    assert ".Queue(" not in everything
    assert "setswitchinterval" not in everything
    assert everything.count("def burn_wall(") == 1
    assert everything.count("async def hold_async(") == 1
    # ... and nobody sleeps to a deadline on their own: only the hold
    # blocks in a sleep, and the socket worker's compute stand-in
    # delegates to the asyncio flavour.
    assert all("time.sleep(" not in text for name, text in source.items()
               if name != "kernels.py")
    assert "await hold_async(" in source["socket.py"]
    assert all("asyncio.sleep(min(" not in text for name, text
               in source.items() if name.startswith("socket"))


def test_the_simulated_balancer_is_a_shell_around_on_event():
    """Source pins for the one pump: no module under ``src/repro`` but
    ``backend/driver.py`` feeds a protocol itself — ``drive()`` is the
    only caller of ``on_event``, on the simulator and the socket hub as
    everywhere — and the simulated balancer's port keeps no views of
    protocol state and calls nothing on its ``protocol`` but
    ``regroup``, which with ``on_event``, the ports and the state
    attributes is all ``BalancerProtocol`` offers."""
    import ast

    from repro.protocol import BalancerProtocol

    src = Path(__file__).resolve().parents[2] / "src/repro"
    callers = {path.relative_to(src).as_posix()
               for path in src.rglob("*.py")
               if ".on_event(" in path.read_text(encoding="utf-8")}
    assert callers == {"backend/driver.py"}
    runtime = src / "runtime"
    tree = ast.parse((runtime / "balancer.py").read_text(encoding="utf-8"))
    decorators = {ast.unparse(d) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  for d in node.decorator_list}
    assert not {d for d in decorators if "property" in d or "setter" in d}
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and ast.unparse(node.func.value).endswith("protocol")}
    assert called == {"regroup"}
    public = {name for name, attr in vars(BalancerProtocol).items()
              if not name.startswith("_") and callable(attr)}
    assert public == {"on_event", "regroup"}
