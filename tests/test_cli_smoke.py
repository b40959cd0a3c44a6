"""CLI smoke tests: argument wiring for every execution backend.

These are deliberately shallow — the strategies and backends have their
own suites — but they run the *real* ``main(argv)`` entry point so CI
catches the breakage unit tests cannot: renamed flags, bad defaults,
handler-table typos, backend routing mistakes.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

SMALL_RUN = ["run", "--size", "48x16x16", "-P", "4", "--seed", "1"]


def test_run_backend_sim(capsys):
    assert main(SMALL_RUN + ["--strategy", "GCDLB"]) == 0
    out = capsys.readouterr().out
    assert "mxm [GCDLB]" in out
    assert "backend=" not in out  # sim is the unadorned default


def test_run_backend_thread(capsys):
    assert main(SMALL_RUN + ["--strategy", "GDDLB", "--backend", "thread",
                             "--time-scale", "0.1"]) == 0
    assert "backend=thread" in capsys.readouterr().out


def test_run_backend_process(capsys):
    assert main(SMALL_RUN + ["--strategy", "LDDLB", "--backend", "process",
                             "--time-scale", "0.1"]) == 0
    assert "backend=process" in capsys.readouterr().out


def test_run_backend_socket(capsys):
    assert main(SMALL_RUN + ["--strategy", "GCDLB", "--backend", "socket",
                             "--time-scale", "0.1"]) == 0
    assert "backend=socket" in capsys.readouterr().out


def test_run_backend_process_with_crash(capsys):
    assert main(SMALL_RUN + ["--strategy", "GCDLB", "--backend", "process",
                             "--time-scale", "0.1",
                             "--crash", "1:0.001"]) == 0
    out = capsys.readouterr().out
    assert "backend=process" in out
    assert "crashed=[1]" in out


def test_run_rejects_simulation_only_on_real_backends(capsys):
    # CUSTOM consults the simulated load model: the real backends
    # refuse (exit 2 + diagnostic), they do not silently degrade.
    for backend in ("thread", "process", "socket"):
        code = main(SMALL_RUN + ["--strategy", "CUSTOM",
                                 "--backend", backend,
                                 "--time-scale", "0.1"])
        assert code == 2
        assert "backend error" in capsys.readouterr().err


def test_run_rejects_multiloop_app_on_real_backends(capsys):
    for backend in ("thread", "process", "socket"):
        code = main(["run", "--app", "trfd", "--n", "4",
                     "--backend", backend])
        assert code == 2
        assert "single-loop apps only" in capsys.readouterr().err


def test_run_bad_size_exits_2(capsys):
    assert main(["run", "--size", "not-a-size"]) == 2
    assert "bad --size" in capsys.readouterr().err


def test_run_bad_crash_flag_exits_2(capsys):
    assert main(SMALL_RUN + ["--crash", "zero:way"]) == 2
    assert "bad fault flag" in capsys.readouterr().err


def test_start_method_flag_parses():
    args = build_parser().parse_args(
        SMALL_RUN + ["--backend", "process", "--start-method", "spawn"])
    assert args.start_method == "spawn"
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            SMALL_RUN + ["--start-method", "threads-please"])


def test_unknown_backend_choice_exits():
    with pytest.raises(SystemExit):
        build_parser().parse_args(SMALL_RUN + ["--backend", "mpi"])


def test_balancer_worker_flags_parse():
    args = build_parser().parse_args(
        ["balancer", "-P", "3", "--strategy", "LDDLB", "--port", "7171"])
    assert (args.processors, args.strategy, args.port) == (3, "LDDLB", 7171)
    args = build_parser().parse_args(
        ["worker", "--port", "7171", "--leave-after", "20"])
    assert (args.host, args.port, args.leave_after) == \
        ("127.0.0.1", 7171, 20)


def test_faults_demo(capsys):
    assert main(["faults-demo", "--victim", "1", "-P", "3",
                 "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "fault-injection demo" in out
    assert "LDDLB" in out


def test_faults_demo_bad_victim_exits_2(capsys):
    assert main(["faults-demo", "--victim", "0"]) == 2
    assert "reliable master" in capsys.readouterr().err


# -- kernel flag ---------------------------------------------------------

def test_run_kernel_numpy_thread(capsys):
    assert main(SMALL_RUN + ["--strategy", "GCDLB", "--backend", "thread",
                             "--time-scale", "0.1",
                             "--kernel", "numpy"]) == 2
    err = capsys.readouterr().err
    assert "backend error" in err and "process-only" in err


def test_run_kernel_numpy_process(capsys):
    pytest.importorskip("numpy")
    assert main(SMALL_RUN + ["--strategy", "GDDLB", "--backend", "process",
                             "--time-scale", "0.1",
                             "--kernel", "numpy"]) == 0
    assert "backend=process" in capsys.readouterr().out


def test_run_kernel_ops_thread(capsys):
    assert main(SMALL_RUN + ["--strategy", "GCDLB", "--backend", "thread",
                             "--time-scale", "0.1",
                             "--kernel", "ops"]) == 0
    assert "backend=thread" in capsys.readouterr().out


def test_run_kernel_rejected_without_real_backend(capsys):
    # Both the sim default and the socket backend refuse the flag: a
    # CPU-burn kernel is meaningless there and must not silently no-op.
    assert main(SMALL_RUN + ["--kernel", "numpy"]) == 2
    assert "thread and process backends only" in capsys.readouterr().err
    assert main(SMALL_RUN + ["--backend", "socket", "--time-scale", "0.1",
                             "--kernel", "ops"]) == 2
    assert "thread and process backends only" in capsys.readouterr().err


def test_run_kernel_wall_rejected_on_process(capsys):
    assert main(SMALL_RUN + ["--backend", "process", "--time-scale", "0.1",
                             "--kernel", "wall"]) == 2
    assert "backend error" in capsys.readouterr().err


def test_unknown_kernel_choice_exits():
    with pytest.raises(SystemExit):
        build_parser().parse_args(SMALL_RUN + ["--kernel", "cuda"])


# -- topology flag -------------------------------------------------------

def test_run_topology_sim(capsys):
    assert main(SMALL_RUN + ["--strategy", "GDDLB",
                             "--topology", "ring"]) == 0
    out = capsys.readouterr().out
    assert "mxm [GDDLB]" in out
    assert "topology=ring" in out


def test_run_topology_diffusion_sim(capsys):
    assert main(SMALL_RUN + ["--strategy", "DIFF",
                             "--topology", "torus"]) == 0
    out = capsys.readouterr().out
    assert "mxm [Diffusion]" in out
    assert "topology=torus" in out


def test_run_topology_thread(capsys):
    assert main(SMALL_RUN + ["--strategy", "DIFF", "--topology", "mesh",
                             "--backend", "thread",
                             "--time-scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "backend=thread" in out
    assert "topology=mesh" in out


def test_run_topology_custom_selection(capsys):
    # CUSTOM on a graph considers DIFF as a candidate; the run must
    # complete and report whichever scheme the model picked.
    assert main(SMALL_RUN + ["--strategy", "CUSTOM",
                             "--topology", "ring"]) == 0
    assert "topology=ring" in capsys.readouterr().out


def test_run_topology_file(tmp_path, capsys):
    import json

    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "n_hosts": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    assert main(SMALL_RUN + ["--strategy", "GDDLB",
                             "--topology", f"file:{path}"]) == 0
    assert "topology=file:" in capsys.readouterr().out


def test_run_bad_topology_exits_2(capsys):
    assert main(SMALL_RUN + ["--topology", "hypercube"]) == 2
    assert "bad --topology" in capsys.readouterr().err


def test_run_topology_rejected_on_flat_transports(capsys):
    # The process/socket transports are flat meshes: graph topologies
    # (and DIFF) must refuse loudly, not silently fall back to the bus.
    for backend in ("process", "socket"):
        code = main(SMALL_RUN + ["--strategy", "GDDLB",
                                 "--topology", "ring",
                                 "--backend", backend,
                                 "--time-scale", "0.1"])
        assert code == 2
        assert "backend error" in capsys.readouterr().err


def test_characterize_topology_and_probe(capsys):
    assert main(["characterize", "--max-procs", "6",
                 "--topology", "ring", "--probe",
                 "--probe-seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "NX" in out  # neighbor-exchange fit only exists on graphs
    assert "probe" in out


# -- version flag --------------------------------------------------------

def test_version_flag_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("repro ")


# -- tracing -------------------------------------------------------------

def test_run_trace_writes_perfetto_loadable_json(tmp_path, capsys):
    import json

    path = tmp_path / "out.trace.json"
    assert main(SMALL_RUN + ["--strategy", "GDDLB",
                             "--trace", str(path)]) == 0
    assert f"-> {path}" in capsys.readouterr().out
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"compute", "sync"} <= names


def test_run_trace_ndjson_extension_streams_lines(tmp_path, capsys):
    import json

    path = tmp_path / "out.ndjson"
    assert main(SMALL_RUN + ["--strategy", "GCDLB", "--backend", "thread",
                             "--time-scale", "0.1",
                             "--trace", str(path)]) == 0
    assert "trace:" in capsys.readouterr().out
    lines = path.read_text().strip().splitlines()
    assert lines and all(json.loads(line)["name"] for line in lines)


def test_trace_subcommand_renders_summary(tmp_path, capsys):
    path = tmp_path / "out.trace.json"
    assert main(SMALL_RUN + ["--trace", str(path)]) == 0
    capsys.readouterr()
    assert main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "events" in out
    assert "node0" in out


def test_trace_subcommand_missing_file_exits_2(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
