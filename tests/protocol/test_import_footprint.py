"""A backend's transport loads when it runs, not when ``repro`` does.

The socket backend's asyncio (and ssl with it) and the process backend's
multiprocessing are several MiB of resident memory; a simulated or
thread run that never opens a socket or forks a child should not pay
for them.  Each case runs in a fresh interpreter, so whatever an
earlier test imported cannot hide a module-level import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TRANSPORTS = ("asyncio", "ssl", "multiprocessing")

PRELUDE = """
import json, sys
import repro
from repro import ClusterSpec, run_loop
from repro.apps.workload import LoopSpec
from repro.backend import ProcessBackend, SocketBackend, ThreadBackend
from repro.runtime.assignment import check_coverage
from repro.runtime.options import RunOptions

loop = LoopSpec("tiny", 16, 1e-3, dc_bytes=64)
cluster = ClusterSpec.homogeneous(2, max_load=0, seed=7)

def run(backend):
    stats = run_loop(loop, cluster, "GCDLB", RunOptions(), backend=backend)
    check_coverage(stats.executed_by_node, loop.n_iterations)
"""


def _loaded_after(body: str) -> list[str]:
    """The transport modules a fresh interpreter holds after ``body``."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), env.get("PYTHONPATH"))))
    script = PRELUDE + body + (
        f"\nprint(json.dumps([m for m in {TRANSPORTS!r} "
        "if m in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_simulated_and_thread_runs_load_no_transport():
    assert _loaded_after(
        "run(None)\nrun(ThreadBackend(kernel='wall'))\n") == []


def test_a_socket_run_loads_its_transport_and_covers_the_loop():
    assert "asyncio" in _loaded_after("run(SocketBackend())\n")
