"""The harness's yardstick for how fast the host is *right now*.

The box this benchmark was sized on has two speeds: a pure-Python spin
loop takes 0.23 s for tens of seconds, then 0.29 s for tens of seconds
(a neighbour on the sibling hyper-thread, presumably), and a 10 s
measuring window can fall wholly into either.  Raw medians of
CPU-bound work therefore come in two clusters 25% apart, which no
amount of repetition inside the window removes.

So every CPU-bound timing is taken between two runs of a fixed
reference spin and scaled to *reference speed*: seconds x
(:data:`NOMINAL_S` / seconds the spin took).  The result reads like
seconds on a host where the spin takes exactly 10 ms, it moves when the
program gets slower, and it does not move when the host does.  The raw
seconds are kept next to it in the output document.

Both the timing and the spin are read off the process's CPU clock
(:func:`time.process_time`): the hypervisor also takes the vCPU away
for milliseconds at a time (``steal`` in /proc/stat), which the wall
clock counts and the CPU clock does not.  The CPU-bound cases are
single-threaded, so on a quiet host the two clocks agree.
"""

from __future__ import annotations

import statistics
from time import process_time

#: Iterations of the reference spin: about 10 ms on the sizing box when
#: it is in its fast state.
REFERENCE_LOOPS = 350_000

#: What the reference spin takes on the host that timings are scaled to.
NOMINAL_S = 0.010


def reference_s() -> float:
    """CPU seconds the fixed reference spin takes at this moment."""
    x = 1.0
    t0 = process_time()
    for _ in range(REFERENCE_LOOPS):
        x = x * 1.0000001 + 1e-9
    return process_time() - t0


def at_reference_speed(seconds: float, *spins: float) -> float:
    """``seconds`` scaled by the host speed its neighbouring spins saw."""
    return seconds * NOMINAL_S / statistics.fmean(spins)
