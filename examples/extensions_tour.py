"""Tour of the extensions beyond the paper's four schemes.

* work stealing (Phish, §2.2) vs. the synchronized strategies,
* periodic vs. interrupt-based synchronization,
* group formation for the local schemes under adversarial load,
* an ASCII Gantt chart of who computed when.

Run with::

    python examples/extensions_tour.py
"""

from repro import ClusterSpec, run_loop
from repro.apps import MxmConfig, mxm_loop
from repro.obs import TraceRecorder
from repro.obs.export import render_trace_gantt, render_trace_summary
from repro.runtime import RunOptions


def main() -> None:
    loop = mxm_loop(MxmConfig(r=240, c=200, r2=200), op_seconds=4e-7)
    cluster = ClusterSpec.homogeneous(4, max_load=5, persistence=5.0,
                                      seed=97)

    print("== work stealing vs synchronized DLB ==")
    for scheme in ("NONE", "WS", "GDDLB"):
        stats = run_loop(loop, cluster, scheme)
        extra = ""
        if scheme == "WS":
            steals = sum(1 for s in stats.syncs if s.reason == "steal")
            extra = f" ({steals} steals)"
        print(f"  {scheme:>6s}: {stats.duration:6.2f}s{extra}")

    print("\n== periodic vs interrupt synchronization ==")
    for label, opts in (
            ("interrupt", RunOptions()),
            ("periodic T=0.5s", RunOptions(sync_mode="periodic",
                                           sync_period=0.5)),
            ("periodic T=4s", RunOptions(sync_mode="periodic",
                                         sync_period=4.0))):
        stats = run_loop(loop, cluster, "GDDLB", options=opts)
        print(f"  {label:>16s}: {stats.duration:6.2f}s "
              f"({stats.n_syncs} syncs)")

    print("\n== group formation under striped load (LDDLB, K=2) ==")
    stripe = ClusterSpec(speeds=(1.0,) * 4, persistence=1000.0,
                         load_traces=((5,), (5,), (0,), (0,)))
    for formation in ("block", "interleaved"):
        opts = RunOptions(group_size=2, group_formation=formation)
        stats = run_loop(loop, stripe, "LDDLB", options=opts)
        print(f"  {formation:>12s}: {stats.duration:6.2f}s")

    print("\n== execution timeline (GDDLB under the striped load) ==")
    recorder = TraceRecorder()
    stats = run_loop(loop, stripe, "GDDLB",
                     options=RunOptions(recorder=recorder))
    events = recorder.events()
    assert {e["track"] for e in events if e["name"] == "compute"} == \
        {f"node{i}" for i in range(4)}
    assert sum(e["name"] == "decision" for e in events) == stats.n_syncs
    print(render_trace_gantt(events))    # #compute  |sync  !fault
    print()
    print(render_trace_summary(events, limit=6))


if __name__ == "__main__":
    main()
