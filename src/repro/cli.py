"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure {4,5,6,7,8}``
    Regenerate one of the paper's figures and print its data table.
``table {1,2}``
    Regenerate one of the paper's actual-vs-predicted order tables.
``run``
    Run one loop (MXM or TRFD) under one strategy and print statistics.
``characterize``
    Run the off-line network characterization (§6.1).
``compile``
    Compile an annotated source file and print the analysis and the
    transformed listing.
``faults-demo``
    Seeded fault-injection demo: crash one of four nodes mid-loop under
    each strategy and report recovery; optionally the full robustness
    sweep (see docs/FAULT_MODEL.md).
``trace``
    Summarize a trace file written by ``run --trace`` (per-track event
    counts plus an ASCII Gantt; load the same file in Perfetto for the
    interactive view — see docs/OBSERVABILITY.md).
``balancer`` / ``worker``
    The socket backend's two halves as long-running commands: a hub
    that listens on a TCP port and waits for workers to register, and a
    worker that dials it.  Run them in separate terminals to watch the
    wire protocol (docs/WIRE_PROTOCOL.md) on localhost; late workers
    join mid-run, ``worker --leave-after N`` departs cleanly.

Examples
--------
::

    python -m repro figure 5 --seeds 5
    python -m repro table 1 --seeds 3
    python -m repro run --app mxm --size 400x400x400 -P 4 --strategy CUSTOM
    python -m repro run --app trfd --n 30 -P 16 --strategy LDDLB
    python -m repro run --app mxm -P 4 --strategy GDDLB --crash 2:1.5
    python -m repro run --app mxm -P 4 --strategy GCDLB --backend socket
    python -m repro run --app mxm -P 4 --strategy GDDLB --trace out.trace.json
    python -m repro trace out.trace.json
    python -m repro characterize --max-procs 16
    python -m repro compile examples_src/mxm.dlb
    python -m repro faults-demo --sweep
    python -m repro balancer -P 2 --strategy GCDLB --port 7070
    python -m repro worker --port 7070
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .apps.mxm import MxmConfig, mxm_loop
from .apps.trfd import TrfdConfig, trfd_application
from .experiments.config import ExperimentConfig
from .machine.cluster import ClusterSpec

__all__ = ["main", "build_parser", "package_version"]


def package_version() -> str:
    """The installed package version, or the source-tree default.

    Read from importlib.metadata so ``repro --version`` always matches
    what pip actually installed; a source checkout that was never
    installed falls back to the pyproject default.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
        try:
            return version("repro")
        except PackageNotFoundError:
            return "1.0.0"
    except Exception:  # pragma: no cover - stdlib always has it on 3.8+
        return "1.0.0"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Customized dynamic load balancing for a network of "
                    "workstations (HPDC'96 reproduction)",
        epilog=f"repro {package_version()}")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number",
                     choices=["2", "4", "5", "6", "7", "8", "topology"])
    fig.add_argument("--seeds", type=int, default=10,
                     help="load realizations per data point")
    fig.add_argument("--bars", action="store_true",
                     help="render ASCII bars instead of a table")

    tab = sub.add_parser("table", help="regenerate a paper table")
    tab.add_argument("number", choices=["1", "2"])
    tab.add_argument("--seeds", type=int, default=10)

    run = sub.add_parser("run", help="run one loop under one strategy")
    run.add_argument("--backend",
                     choices=["sim", "thread", "process", "socket"],
                     default="sim",
                     help="execution backend: 'sim' (deterministic "
                          "discrete-event simulation, default), 'thread' "
                          "(real threads, wall-clock time, CPU-burn "
                          "kernels), 'process' (one OS process per "
                          "worker, shared-memory data movement, true "
                          "multi-core parallelism) or 'socket' (the "
                          "protocol over real TCP on localhost; see "
                          "docs/WIRE_PROTOCOL.md)")
    run.add_argument("--kernel", choices=["wall", "ops", "numpy"],
                     default=None,
                     help="thread/process backends only: CPU-burn "
                          "kernel per iteration — 'wall' (spin to a "
                          "deadline; thread default), 'ops' (calibrated "
                          "scalar op count; process default) or 'numpy' "
                          "(process only: same op count as vectorized "
                          "passes computed in place on the shared-memory "
                          "data rows)")
    run.add_argument("--time-scale", type=float, default=1.0,
                     help="thread/process/socket backends only: scale "
                          "factor on every iteration's nominal cost "
                          "(e.g. 0.1 runs 10x faster without changing "
                          "work ratios)")
    run.add_argument("--start-method",
                     choices=["fork", "spawn", "forkserver"], default=None,
                     help="process/socket backends only: multiprocessing "
                          "start method (default: fork where available)")
    run.add_argument("--workers", choices=["tasks", "procs"],
                     default="tasks",
                     help="socket backend only: run workers as asyncio "
                          "tasks in-process (default) or as one OS "
                          "process per worker")
    run.add_argument("--app", choices=["mxm", "trfd"], default="mxm")
    run.add_argument("--size", default="400x400x400",
                     help="MXM RxCxR2 dimensions")
    run.add_argument("--n", type=int, default=30, help="TRFD parameter N")
    run.add_argument("-P", "--processors", type=int, default=4)
    run.add_argument("--strategy", default="CUSTOM",
                     help="NONE, GCDLB, GDDLB, LCDLB, LDDLB, WS, DIFF, "
                          "CUSTOM")
    run.add_argument("--topology", default=None, metavar="SPEC",
                     help="network graph: bus (default), complete, ring, "
                          "mesh, torus, or file:<adjacency.json> (see "
                          "docs/TOPOLOGY.md); sim and thread backends")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record a structured event trace and write it "
                          "to PATH on completion: '.ndjson' streams one "
                          "event per line, any other extension gets "
                          "Chrome trace-event JSON loadable in Perfetto "
                          "(see docs/OBSERVABILITY.md)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-load", type=int, default=5)
    run.add_argument("--persistence", type=float, default=5.0)
    run.add_argument("--group-size", type=int, default=0)
    run.add_argument("--sync-mode", choices=["interrupt", "periodic"],
                     default="interrupt")
    run.add_argument("--sync-period", type=float, default=1.0)
    faults = run.add_argument_group(
        "fault injection (enables the hardened protocol; "
        "see docs/FAULT_MODEL.md)")
    faults.add_argument("--crash", action="append", default=[],
                        metavar="NODE:TIME",
                        help="crash NODE at TIME seconds (repeatable; "
                             "node 0 is the reliable master)")
    faults.add_argument("--freeze", action="append", default=[],
                        metavar="NODE:TIME:DURATION",
                        help="freeze NODE at TIME for DURATION seconds")
    faults.add_argument("--drop", type=float, default=0.0, metavar="PROB",
                        help="per-message drop probability")
    faults.add_argument("--max-drops", type=int, default=8)
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the plan's drop/delay coin flips")
    faults.add_argument("--ft-timeout", type=float, default=0.2,
                        help="base request timeout before the first retry")
    faults.add_argument("--ft-retries", type=int, default=5,
                        help="retries before a silent peer is declared dead")

    cha = sub.add_parser("characterize",
                         help="off-line network characterization (Fig 4)")
    cha.add_argument("--max-procs", type=int, default=16)
    cha.add_argument("--probe-bytes", type=int, default=64)
    cha.add_argument("--topology", default=None, metavar="SPEC",
                     help="characterize the patterns on a network graph "
                          "(adds the NX neighbor-exchange fit)")
    cha.add_argument("--probe", action="store_true",
                     help="also estimate per-link latency/bandwidth from "
                          "seeded point-to-point probes")
    cha.add_argument("--probe-seed", type=int, default=0)

    com = sub.add_parser("compile",
                         help="compile an annotated source file")
    com.add_argument("path", help="file with annotated loop nests")
    com.add_argument("--emit", choices=["analysis", "listing", "module"],
                     default="analysis")

    swp = sub.add_parser("sweep", help="sweep one knob over a value grid")
    swp.add_argument("knob",
                     choices=["persistence", "group_size",
                              "improvement_threshold", "sync_period",
                              "max_load"])
    swp.add_argument("values", nargs="+", type=float)
    swp.add_argument("-P", "--processors", type=int, default=4)
    swp.add_argument("--size", default="240x200x200",
                     help="MXM RxCxR2 dimensions for the swept loop")
    swp.add_argument("--seeds", type=int, default=5)
    swp.add_argument("--schemes", default="GC,GD,LC,LD")

    val = sub.add_parser("validate",
                         help="run the paper-claim checklist")
    val.add_argument("--seeds", type=int, default=10)

    fde = sub.add_parser("faults-demo",
                         help="seeded crash-recovery demo per strategy")
    fde.add_argument("--seed", type=int, default=42,
                     help="cluster load seed (also seeds the fault plan)")
    fde.add_argument("--victim", type=int, default=2,
                     help="node crashed mid-loop (1..P-1)")
    fde.add_argument("-P", "--processors", type=int, default=4)
    fde.add_argument("--sweep", action="store_true",
                     help="also run the full robustness sweep "
                          "(scenarios x strategies)")
    fde.add_argument("--sweep-seeds", type=int, default=1,
                     help="seeds per cell in the --sweep table")

    bal = sub.add_parser(
        "balancer",
        help="socket-backend hub: listen and wait for workers")
    bal.add_argument("-P", "--processors", type=int, default=2,
                     help="workers to wait for before the run starts "
                          "(later connections join mid-run)")
    bal.add_argument("--strategy", default="GCDLB",
                     help="NONE, GCDLB, GDDLB, LCDLB, LDDLB")
    bal.add_argument("--host", default="127.0.0.1")
    bal.add_argument("--port", type=int, default=7070)
    bal.add_argument("--size", default="200x200x200",
                     help="MXM RxCxR2 dimensions")
    bal.add_argument("--seed", type=int, default=0)
    bal.add_argument("--max-load", type=int, default=5)
    bal.add_argument("--persistence", type=float, default=5.0)
    bal.add_argument("--group-size", type=int, default=0)
    bal.add_argument("--time-scale", type=float, default=1.0)
    bal.add_argument("--ft-timeout", type=float, default=0.2,
                     help="base request timeout before the first retry")
    bal.add_argument("--ft-retries", type=int, default=5,
                     help="retries before a silent peer is declared dead")

    wrk = sub.add_parser(
        "worker",
        help="socket-backend worker: dial a balancer hub")
    wrk.add_argument("--host", default="127.0.0.1")
    wrk.add_argument("--port", type=int, default=7070)
    wrk.add_argument("--leave-after", type=int, default=None,
                     metavar="N",
                     help="depart cleanly after N iterations, handing "
                          "unfinished work back to the hub")

    trc = sub.add_parser(
        "trace",
        help="summarize a trace file written by 'run --trace'")
    trc.add_argument("path", help=".json (Chrome/Perfetto) or .ndjson "
                                  "trace file")
    trc.add_argument("--limit", type=int, default=12,
                     help="event names listed in the summary")
    trc.add_argument("--width", type=int, default=64,
                     help="columns in the ASCII gantt")
    return parser


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import figures as F
    from .experiments.report import render_bars, render_figure
    config = ExperimentConfig(n_seeds=args.seeds)
    fn = {"2": F.figure2, "4": F.figure4, "5": F.figure5,
          "6": F.figure6, "7": F.figure7, "8": F.figure8,
          "topology": F.figure_topology}[args.number]
    result = fn(config)
    print(render_bars(result) if args.bars else render_figure(result))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .experiments.report import render_table
    from .experiments.tables import table1, table2
    config = ExperimentConfig(n_seeds=args.seeds)
    result = (table1 if args.number == "1" else table2)(config)
    print(render_table(result))
    return 0


def _build_fault_plan(args: argparse.Namespace):
    """Translate the ``run`` command's fault flags into a FaultPlan.

    Returns ``None`` when no fault flag was given, so plain runs keep
    the vanilla (non-hardened) protocol.
    """
    from .faults import (CrashFault, FaultPlan, MessageDropFault,
                         SlowdownFault)
    crashes = []
    for spec in args.crash:
        node, time = spec.split(":")
        crashes.append(CrashFault(node=int(node), time=float(time)))
    slowdowns = []
    for spec in args.freeze:
        node, time, duration = spec.split(":")
        slowdowns.append(SlowdownFault(node=int(node), time=float(time),
                                       duration=float(duration)))
    drops = ()
    if args.drop > 0:
        drops = (MessageDropFault(probability=args.drop,
                                  max_drops=args.max_drops),)
    plan = FaultPlan(crashes=tuple(crashes), slowdowns=tuple(slowdowns),
                     drops=drops, seed=args.fault_seed)
    return None if plan.empty else plan


def _cmd_run(args: argparse.Namespace) -> int:
    from .backend.base import BackendError
    from .backend.capabilities import CAPABILITIES, backends_with
    from .runtime.executor import run_application, run_loop
    from .runtime.options import FaultToleranceConfig, RunOptions
    cluster = ClusterSpec.homogeneous(
        args.processors, max_load=args.max_load,
        persistence=args.persistence, seed=args.seed)
    try:
        fault_plan = _build_fault_plan(args)
    except ValueError as exc:
        print(f"bad fault flag: {exc}", file=sys.stderr)
        return 2
    if fault_plan is not None and args.strategy == "WS":
        print("bad fault flag: the work-stealing baseline has no "
              "timeout/reclaim protocol; fault injection needs a DLB "
              "strategy", file=sys.stderr)
        return 2
    ft = FaultToleranceConfig(request_timeout=args.ft_timeout,
                              max_retries=args.ft_retries)
    recorder = None
    if args.trace:
        from .obs import TraceRecorder
        recorder = TraceRecorder()
    try:
        options = RunOptions(group_size=args.group_size,
                             topology=args.topology,
                             sync_mode=args.sync_mode,
                             sync_period=args.sync_period,
                             fault_tolerance=ft,
                             recorder=recorder)
    except ValueError as exc:
        print(f"bad --topology: {exc}", file=sys.stderr)
        return 2
    backend: object = args.backend
    kernels = CAPABILITIES[args.backend]["kernels"]
    if args.kernel is not None and not kernels:
        print("--kernel applies to the "
              f"{' and '.join(backends_with('kernels'))} backends only",
              file=sys.stderr)
        return 2
    if args.backend != "sim":
        if args.app != "mxm":
            print(f"--backend {args.backend} supports single-loop apps "
                  "only (use --app mxm)", file=sys.stderr)
            return 2
        try:
            if args.backend == "thread":
                from .backend import ThreadBackend
                backend = ThreadBackend(time_scale=args.time_scale,
                                        kernel=args.kernel or kernels[0])
            elif args.backend == "process":
                from .backend import ProcessBackend
                backend = ProcessBackend(time_scale=args.time_scale,
                                         start_method=args.start_method,
                                         kernel=args.kernel or kernels[0])
            else:
                from .backend import SocketBackend
                backend = SocketBackend(time_scale=args.time_scale,
                                        workers=args.workers,
                                        start_method=args.start_method)
        except BackendError as exc:
            print(f"backend error: {exc}", file=sys.stderr)
            return 2
    if args.app == "mxm":
        try:
            r, c, r2 = (int(x) for x in args.size.lower().split("x"))
        except ValueError:
            print(f"bad --size {args.size!r}; expected RxCxR2",
                  file=sys.stderr)
            return 2
        loop = mxm_loop(MxmConfig(r, c, r2), op_seconds=4e-7)
        try:
            stats = run_loop(loop, cluster, args.strategy, options=options,
                             fault_plan=fault_plan, backend=backend)
        except BackendError as exc:
            print(f"backend error: {exc}", file=sys.stderr)
            return 2
        print(stats.summary())
        if args.topology:
            print(f"topology={args.topology}")
        if stats.selected_scheme:
            print(f"customized selection: {stats.selection_report.summary()}")
    else:
        app = trfd_application(TrfdConfig(args.n), op_seconds=3e-7)
        stats = run_application(app, cluster, args.strategy,
                                options=options, fault_plan=fault_plan)
        print(stats.summary())
        if args.topology:
            print(f"topology={args.topology}")
        for ls in stats.loop_stats:
            if ls.selected_scheme:
                print(f"{ls.loop_name} selection: "
                      f"{ls.selection_report.summary()}")
    if recorder is not None:
        from .obs.export import write_trace
        events = recorder.events()
        try:
            write_trace(args.trace, events, dropped=recorder.dropped,
                        meta={"backend": args.backend,
                              "strategy": args.strategy,
                              "app": args.app})
        except OSError as exc:
            print(f"cannot write trace {args.trace}: {exc}",
                  file=sys.stderr)
            return 2
        dropped = f" ({recorder.dropped} dropped)" if recorder.dropped \
            else ""
        print(f"trace: {len(events)} events{dropped} -> {args.trace}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .network import characterize_network, probe_link_parameters
    model = characterize_network(
        proc_counts=tuple(range(2, args.max_procs + 1)),
        probe_bytes=args.probe_bytes,
        topology=args.topology)
    print(f"latency {model.latency * 1e6:.1f} us, "
          f"bandwidth {model.bandwidth / 1e6:.2f} MB/s")
    for pattern in sorted(model.fits):
        fit = model.fits[pattern]
        coeffs = ", ".join(f"{c:.4e}" for c in fit.coefficients)
        print(f"{pattern}: fit [{coeffs}] over "
              f"P=2..{args.max_procs} (rms {fit.residual_rms():.2e} s)")
    if args.probe:
        est = probe_link_parameters(topology=args.topology,
                                    n_hosts=args.max_procs,
                                    seed=args.probe_seed)
        print(f"probe ({len(est.samples)} samples, seed {est.seed}): "
              f"latency {est.latency * 1e6:.1f} us, "
              f"bandwidth {est.bandwidth / 1e6:.2f} MB/s, "
              f"mean hops {est.mean_hops:.2f}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .compiler import compile_source
    try:
        with open(args.path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    program = compile_source(source)
    if args.emit == "analysis":
        for analysis in program.analyses:
            print(analysis.describe())
    elif args.emit == "listing":
        print(program.transformed_source)
    else:
        print(program.module_source)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.sweeps import sweep
    try:
        r, c, r2 = (int(x) for x in args.size.lower().split("x"))
    except ValueError:
        print(f"bad --size {args.size!r}; expected RxCxR2", file=sys.stderr)
        return 2
    loop = mxm_loop(MxmConfig(r, c, r2), op_seconds=4e-7)
    config = ExperimentConfig(n_seeds=args.seeds)
    result = sweep(loop, args.processors, args.knob, args.values,
                   schemes=tuple(args.schemes.split(",")), config=config)
    print(result.render())
    return 0


def _cmd_faults_demo(args: argparse.Namespace) -> int:
    from .apps.workload import LoopSpec
    from .experiments.faults import fault_sweep, render_fault_sweep
    from .faults import FaultPlan
    from .runtime.executor import run_loop
    from .runtime.options import FaultToleranceConfig, RunOptions
    if not 1 <= args.victim < args.processors:
        print(f"--victim must be in 1..{args.processors - 1} "
              "(node 0 is the reliable master)", file=sys.stderr)
        return 2
    loop = LoopSpec(name="mxm-demo", n_iterations=96,
                    iteration_time=0.008, dc_bytes=1600)
    cluster = ClusterSpec.homogeneous(
        args.processors, max_load=3, persistence=0.5, seed=args.seed)
    ft = FaultToleranceConfig(enabled=False, request_timeout=0.08,
                              backoff=2.0, max_retries=4,
                              liveness_timeout=0.24)
    options = RunOptions(fault_tolerance=ft)
    print(f"== fault-injection demo: node {args.victim} of "
          f"{args.processors} crashes at 40% of each run ==")
    for scheme in ("GCDLB", "GDDLB", "LCDLB", "LDDLB"):
        baseline = run_loop(loop, cluster, scheme, options=options)
        plan = FaultPlan.single_crash(node=args.victim,
                                      time=0.4 * baseline.duration)
        stats = run_loop(loop, cluster, scheme, options=options,
                         fault_plan=plan)
        executed = sum(e - s for ranges in stats.executed_by_node.values()
                       for s, e in ranges)
        print(f"{scheme}: {baseline.duration:.3f}s -> "
              f"{stats.duration:.3f}s "
              f"({stats.duration / baseline.duration:.2f}x); "
              f"{executed}/{loop.n_iterations} iterations on survivors, "
              f"reclaimed={stats.reclaimed_iterations} "
              f"retries={stats.fault_retries} "
              f"salvaged={stats.salvaged_iterations} "
              f"declared_dead={list(stats.declared_dead)}")
    if args.sweep:
        seeds = tuple(1000 + i for i in range(args.sweep_seeds))
        result = fault_sweep(n_processors=args.processors, seeds=seeds)
        print()
        print(render_fault_sweep(result))
    return 0


def _cmd_balancer(args: argparse.Namespace) -> int:
    from .backend import SocketBackend
    from .backend.base import BackendError
    from .runtime.options import FaultToleranceConfig, RunOptions
    try:
        r, c, r2 = (int(x) for x in args.size.lower().split("x"))
    except ValueError:
        print(f"bad --size {args.size!r}; expected RxCxR2", file=sys.stderr)
        return 2
    loop = mxm_loop(MxmConfig(r, c, r2), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(
        args.processors, max_load=args.max_load,
        persistence=args.persistence, seed=args.seed)
    ft = FaultToleranceConfig(request_timeout=args.ft_timeout,
                              max_retries=args.ft_retries)
    options = RunOptions(group_size=args.group_size, fault_tolerance=ft)
    backend = SocketBackend(time_scale=args.time_scale, host=args.host)

    def on_ready(port: int) -> None:
        print(f"balancer listening on {args.host}:{port}; waiting for "
              f"{args.processors} workers "
              f"(python -m repro worker --host {args.host} --port {port})",
              flush=True)

    try:
        stats = backend.serve(loop, cluster, args.strategy,
                              options=options, port=args.port,
                              on_ready=on_ready)
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    print(stats.summary())
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .backend.base import BackendError
    from .backend.socket import run_worker
    try:
        reason = run_worker(args.host, args.port,
                            leave_after=args.leave_after)
    except BackendError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 2
    except ConnectionError as exc:
        print(f"cannot reach balancer at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    print(f"worker done: {reason}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.export import (read_trace, render_trace_gantt,
                             render_trace_summary)
    try:
        events = read_trace(args.path)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # JSONDecodeError included
        print(f"not a trace file {args.path}: {exc}", file=sys.stderr)
        return 2
    print(render_trace_summary(events, limit=args.limit))
    print(render_trace_gantt(events, width=args.width))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .experiments.validation import render_validation, validate
    results = validate(ExperimentConfig(n_seeds=args.seeds))
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"figure": _cmd_figure, "table": _cmd_table,
               "run": _cmd_run, "characterize": _cmd_characterize,
               "compile": _cmd_compile, "sweep": _cmd_sweep,
               "validate": _cmd_validate,
               "faults-demo": _cmd_faults_demo,
               "balancer": _cmd_balancer,
               "worker": _cmd_worker,
               "trace": _cmd_trace}[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
