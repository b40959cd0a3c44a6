"""A backend's transport, and numpy, load when they run, not when
``repro`` does.

The socket backend's asyncio (and ssl with it) and the process backend's
multiprocessing are several MiB of resident memory; a simulated or
thread run that never opens a socket or forks a child should not pay
for them.  numpy is the largest of all: only the simulator's load
model, the cost model and the ``numpy`` kernel compute with it, so a
thread, process or socket run with the ``wall`` or ``ops`` kernel
never loads it.  Nor does a process run load OpenSSL: its data block
is mapped without ``multiprocessing.shared_memory``.  Each case runs in
a fresh interpreter, so whatever an earlier test imported cannot hide a
module-level import.
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
skew = LoopSpec("skew", 16, tuple(1e-3 * (1 + j / 16) for j in range(16)),
                dc_bytes=64)
cluster = ClusterSpec.homogeneous(2, max_load=0, seed=7)

def run(backend, loop=loop):
    stats = run_loop(loop, cluster, "GCDLB", RunOptions(), backend=backend)
    check_coverage(stats.executed_by_node, loop.n_iterations)
    # What a harness asks of a loop to judge the run: ideal parallel
    # time and mean iteration cost.
    return loop.total_work / 2, loop.mean_iteration_time
"""


def _loaded_after(body: str, watched=TRANSPORTS) -> list[str]:
    """The ``watched`` modules a fresh interpreter holds after ``body``."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), env.get("PYTHONPATH"))))
    script = PRELUDE + body + (
        f"\nprint(json.dumps([m for m in {tuple(watched)!r} "
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


#: What ``multiprocessing.shared_memory`` drags in to draw a block name:
#: ``secrets`` -> ``hmac`` -> ``_hashlib``, which maps OpenSSL's libcrypto.
OPENSSL = ("multiprocessing.shared_memory", "secrets", "hmac", "_hashlib")


def test_a_process_run_loads_no_openssl():
    assert _loaded_after(
        "run(ProcessBackend(kernel='ops'))\n"
        "from repro.backend.process import release_cast\n"
        "release_cast()\n", watched=OPENSSL) == []


def test_the_stdlib_block_does_load_openssl():
    """The control: without it the test above passes vacuously."""
    assert "_hashlib" in _loaded_after(
        "import multiprocessing.shared_memory\n", watched=OPENSSL)


def _numpy_loaded_after(body: str) -> bool:
    return _loaded_after(body, watched=("numpy",)) == ["numpy"]


def test_importing_the_library_loads_no_numpy():
    """``repro.cli`` too: only ``repro compile`` loads the compiler,
    whose array drawing and emitted kernels compute with numpy."""
    assert _loaded_after(
        "import repro.experiments.runner, repro.backend.kernels, repro.cli\n",
        watched=("numpy", "repro.compiler")) == []


def test_real_backend_runs_with_the_wall_and_ops_kernels_load_no_numpy():
    body = "".join(
        f"run({backend}, {loop})\n"
        for loop in ("loop", "skew")
        for backend in ("ThreadBackend(kernel='wall')",
                        "ProcessBackend(kernel='ops')",
                        "SocketBackend(workers='tasks')"))
    assert not _numpy_loaded_after(
        body + "from repro.backend.process import release_cast\n"
        "release_cast()\n")


def test_a_simulated_run_and_the_numpy_kernel_do_load_numpy():
    """The controls: without them the two tests above pass vacuously."""
    assert _numpy_loaded_after("run(None)\n")
    assert _numpy_loaded_after(
        "from repro.backend.kernels import HAVE_NUMPY\n"
        "assert HAVE_NUMPY\n"
        "run(ProcessBackend(kernel='numpy'))\n"
        "from repro.backend.process import release_cast\n"
        "release_cast()\n")
