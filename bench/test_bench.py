"""The benchmark's own checks: ``python -m pytest -q bench``.

Outside tier-1 ``testpaths``.  Runs both passes of all eight workloads
once with ``--quick`` (1 repetition, P <= 64, 64 iterations; under a
minute) and checks the output against ``BENCHMARK.json``, then
``compare.py`` against that output and doctored copies of it.
"""

import copy
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

pytestmark = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="run.py refuses < 2 cores")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """(result document path, {trace: contract lines}) of a --quick run."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    lines = {}
    for trace in (0, 1):
        done = run(BENCH / "run.py", "--quick", "--trace", trace,
                   "--out", out)
        assert done.returncode == 0, done.stderr
        lines[trace] = result_lines(done.stdout)
    return out, lines


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(quick, trace, key):
    _, lines = quick
    assert len(lines[trace]) == len(SPEC["workloads"])
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    for line in lines[trace]:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} \
            == expected
        for metric in line["metrics"].values():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], float)
            assert trace == 1 or metric["value"] > 0


def test_document_records_environment_and_known_counts(quick):
    doc = json.loads(quick[0].read_text())
    for env in doc["env"].values():
        assert {"git_commit", "python", "platform", "nproc", "start_method",
                "loadavg_1min", "seed", "seconds"} <= set(env)
    assert list(doc["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    # P = 64 is not cut by --quick: the all-to-all burst is 2 P (P - 1).
    diff = doc["workloads"]["sim_diff_p64"]
    assert diff["counts"]["messages"] == 2 * 64 * 63
    assert diff["layers"]["network.messages"] == 2 * 64 * 63
    assert diff["layers"]["trace.coverage"] >= 0.9
    for record in doc["workloads"].values():
        assert record["e2e"]["failed_frac"]["value"] == 0
        assert record["layers"]["trace.overhead_ratio"] > 0
        assert record["layers"]["runtime.run_loop_calls"] >= 1
    grid = doc["workloads"]["sim_paper_grid"]["e2e"]
    assert 0 <= grid["order_agreement"]["value"] <= 1
    assert "custom_regret" in grid


def test_compare_passes_a_file_against_itself_and_fails_doctored(
        quick, tmp_path):
    out, _ = quick
    assert run(BENCH / "compare.py", out, out).returncode == 0

    doc = json.loads(out.read_text())
    slower = copy.deepcopy(doc)
    wall = slower["workloads"]["socket_skew_p2"]["e2e"]["wall_s"]
    for key in ("value", "q1", "q3"):
        wall[key] *= 1.5
    wall["samples"] = [s * 1.5 for s in wall["samples"]]
    inexact = copy.deepcopy(doc)
    inexact["workloads"]["sim_bus_p1024"]["e2e"]["virtual_s"]["value"] *= \
        1 + 1e-12
    failing = copy.deepcopy(doc)
    failing["workloads"]["thread_skew_p2"]["e2e"]["failed_frac"]["value"] = 0.5
    for name, doctored in (("slower", slower), ("inexact", inexact),
                           ("failing", failing)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doctored))
        done = run(BENCH / "compare.py", out, path)
        assert done.returncode == 1, (name, done.stdout)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(tmp_path / "bench" / "run.py", "--workload", "sim_diff_p64",
               cwd=tmp_path)
    assert done.returncode != 0
    assert not result_lines(done.stdout)


def test_setup_passes_over_a_load_seed_whose_run_does_not_end(monkeypatch):
    """The simulator livelocks on some load realizations (README,
    "Observed, not gated"); here a stand-in spins on one load seed."""
    import workloads

    real = workloads.repro.run_loop

    def run_loop(loop, cluster, strategy, options):
        while cluster.seed == 7000 and strategy == "LC":
            pass
        return real(loop, cluster, strategy, options)

    monkeypatch.setattr(workloads.repro, "run_loop", run_loop)
    monkeypatch.setattr(workloads.PaperGridCase, "LIVELOCK_CPU_S", 1.0)
    case = workloads.PaperGridCase(7, quick=True)
    case.warm_up()
    assert case.config.seeds == (7001,)
