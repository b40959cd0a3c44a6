"""Unit tests for tools/bench_gate.py (loaded by file path — tools/ is
deliberately not a package), and the guard that keeps the committed
``BENCH_*.json`` deterministic."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_gate", REPO_ROOT / "tools" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)


def _docs(virtual: float = 1.0, ring_gd: float = 0.25) -> dict[str, dict]:
    """One minimal document per gated file; every gated path resolves."""
    return {
        "BENCH_topology.json": {"topologies": {"ring": {"GD": ring_gd}},
                                "scale": {"ring-P64": {"GD": 0.5}}},
        "BENCH_scale.json": {"des": {"bus-P1024-LCDLB": {
            "virtual_duration": virtual, "syncs": 32, "messages": 33792,
            "engine_events": 71776, "resumes": 4225,
            "protocol_turns": 3072}}},
        "BENCH_obs.json": {"des": {"virtual_duration_off": 4.5,
                                   "virtual_duration_on": 4.5}},
    }


def _gate(tmp_path, base: dict | None, fresh: dict | None) -> int:
    for side, docs in (("base", base), ("fresh", fresh)):
        (tmp_path / side).mkdir()
        for name, doc in (docs or {}).items():
            (tmp_path / side / name).write_text(json.dumps(doc))
    return bench_gate.main(["--baseline-dir", str(tmp_path / "base"),
                            "--fresh-dir", str(tmp_path / "fresh")])


def test_resolve_fans_out_wildcards():
    doc = {"strategies": {"A": {"w": 1.5}, "B": {"w": 2.5, "skip": "text"}}}
    assert bench_gate.resolve(doc, "strategies.*.w") == {
        "strategies.A.w": 1.5, "strategies.B.w": 2.5}
    assert bench_gate.resolve(doc, "strategies.B.skip") == {}
    assert bench_gate.resolve(doc, "missing.path") == {}


def test_within_threshold_passes(tmp_path, capsys):
    # +0.05 % is libm noise; a faster simulated time is an improvement
    # whose baseline refresh can follow.
    assert _gate(tmp_path, _docs(virtual=1.0, ring_gd=0.25),
                 _docs(virtual=1.0005, ring_gd=0.20)) == 0
    assert "BENCH_scale.json: ok (6 values)" in capsys.readouterr().out


def test_deterministic_mode_is_tight(tmp_path, capsys):
    # A 2% drift in a virtual duration is a model change, not noise.
    assert _gate(tmp_path, _docs(virtual=1.0), _docs(virtual=1.02)) == 1
    assert "virtual_duration regressed" in capsys.readouterr().err


def test_topology_virtual_seconds_gated(tmp_path, capsys):
    assert _gate(tmp_path, _docs(ring_gd=0.25), _docs(ring_gd=0.40)) == 1
    assert "topologies.ring.GD regressed" in capsys.readouterr().err


def test_engine_counts_gated(tmp_path, capsys):
    # A sender resuming after every hold again is a regression the
    # simulated seconds do not show.
    fresh = _docs()
    fresh["BENCH_scale.json"]["des"]["bus-P1024-LCDLB"]["resumes"] = 36961
    assert _gate(tmp_path, _docs(), fresh) == 1
    assert "bus-P1024-LCDLB.resumes regressed" in capsys.readouterr().err


def test_protocol_turns_gated(tmp_path, capsys):
    # A gather woken once per profile again: the simulated seconds are
    # the same, the pump turns are not.
    fresh = _docs()
    fresh["BENCH_scale.json"]["des"]["bus-P1024-LCDLB"]["protocol_turns"] = 4096
    assert _gate(tmp_path, _docs(), fresh) == 1
    assert "bus-P1024-LCDLB.protocol_turns regressed" in \
        capsys.readouterr().err


def test_missing_baseline_is_tolerated(tmp_path, capsys):
    assert _gate(tmp_path, None, _docs()) == 0
    assert "no baseline" in capsys.readouterr().out


def test_missing_fresh_results_fail(tmp_path, capsys):
    assert _gate(tmp_path, _docs(), None) == 1
    assert "fresh results missing" in capsys.readouterr().err


def test_vanished_key_fails(tmp_path, capsys):
    fresh = _docs()
    del fresh["BENCH_scale.json"]["des"]["bus-P1024-LCDLB"]["syncs"]
    assert _gate(tmp_path, _docs(), fresh) == 1
    assert "bus-P1024-LCDLB.syncs vanished" in capsys.readouterr().err


def test_gate_path_that_matches_nothing_fails(tmp_path, capsys):
    # A key renamed on both sides used to compare zero values and print ok.
    renamed = _docs()
    topology = renamed["BENCH_topology.json"]
    topology["topologies_v2"] = topology.pop("topologies")
    assert _gate(tmp_path, renamed, renamed) == 1
    captured = capsys.readouterr()
    assert "BENCH_topology.json:topologies.*.* matches nothing" in captured.err
    assert "BENCH_topology.json: ok" not in captured.out


def _keys(node: object):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)


def test_committed_documents_hold_only_gated_deterministic_numbers():
    committed = sorted(p.name for p in REPO_ROOT.glob("BENCH_*.json"))
    assert committed == sorted(bench_gate.GATES)
    host_dependent = re.compile(r"wall|cpu_count|speedup|_ns")
    for name, paths in bench_gate.GATES.items():
        doc = json.loads((REPO_ROOT / name).read_text())
        for path in paths:
            assert bench_gate.resolve(doc, path), f"{name}:{path}"
        assert not [k for k in _keys(doc) if host_dependent.search(k)], name


def test_the_bench_tracer_still_finds_every_name_it_wraps():
    """``bench/tracing.py`` wraps layer entry points by name; a renamed
    one fails here, not only in the benchmark's traced pass."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO_ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from repro import ClusterSpec, run_loop
    from repro.apps.workload import LoopSpec
    from repro.simulation import Mailbox

    put = Mailbox.__dict__["put"]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        run_loop(LoopSpec(name="traced", n_iterations=32,
                          iteration_time=0.01, dc_bytes=8),
                 ClusterSpec.homogeneous(4, max_load=3, seed=1), "GDDLB")
    finally:
        tracer.uninstall()
    assert Mailbox.__dict__["put"] is put
    metrics = tracing.layer_metrics(tracer.aggregate(), reps=1)
    assert metrics["mailbox.ops"] > 0 and metrics["protocol.worker_calls"] > 0
