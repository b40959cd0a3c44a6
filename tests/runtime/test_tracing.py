"""A simulated run's timeline, read off its recorded trace.

``runtime/tracing.py`` used to *reconstruct* per-processor timelines
from the run statistics; a run handed a ``TraceRecorder`` now records
them, and ``repro.obs.export`` renders them (README "Tracing",
``examples/extensions_tour.py``).  These are the old module's checks
against the recorded events.
"""

import pytest

from repro.machine.cluster import ClusterSpec
from repro.obs import TraceRecorder
from repro.obs.export import render_trace_gantt, render_trace_summary
from repro.runtime.executor import run_loop


def _traced(loop, cluster, strategy, options):
    recorder = TraceRecorder()
    stats = run_loop(loop, cluster, strategy,
                     options=options.but(recorder=recorder))
    return stats, recorder.events()


def _busy(events):
    """Seconds of ``compute`` span per node track."""
    busy = {}
    for e in events:
        if e["name"] == "compute":
            busy[e["track"]] = busy.get(e["track"], 0.0) + e["dur"]
    return busy


@pytest.fixture
def run(small_loop, cluster4, options):
    return _traced(small_loop, cluster4, "GDDLB", options)


def test_utilization_report_counts(run):
    stats, events = run
    assert set(_busy(events)) == {f"node{i}" for i in range(4)}
    assert all(stats.start_time <= e["ts"]
               and e["ts"] + e.get("dur", 0.0) <= stats.end_time + 1e-9
               for e in events)
    assert 0.0 < sum(_busy(events).values()) / (4 * stats.duration) <= 1.0


def test_utilization_busy_bounded_by_wall(run):
    stats, events = run
    for node, finish in stats.node_finish_times.items():
        assert 0.0 <= _busy(events)[f"node{node}"] \
            <= finish - stats.start_time + 1e-9


def test_no_load_high_utilization(small_loop, options):
    cluster = ClusterSpec.homogeneous(4, max_load=0)
    stats, events = _traced(small_loop, cluster, "NONE", options)
    assert sum(_busy(events).values()) / (4 * stats.duration) > 0.95


def test_summary_text(run):
    _stats, events = run
    text = render_trace_summary(events)
    assert "node0" in text and "busy" in text


def test_gantt_renders_all_nodes(run):
    _stats, events = run
    chart = render_trace_gantt(events, width=40)
    rows = {line.split("|")[0].strip(): line
            for line in chart.splitlines()[1:-1]}
    assert {f"node{i}" for i in range(4)} <= set(rows)
    assert all("#" in rows[f"node{i}"] for i in range(4))
    assert rows["node0"].count("|") > 2  # sync markers inside the frame


def test_gantt_static_has_no_sync_markers(small_loop, options):
    cluster = ClusterSpec.homogeneous(2, max_load=0)
    _stats, events = _traced(small_loop, cluster, "NONE", options)
    chart = render_trace_gantt(events, width=30)
    # Only the frame pipes at the row edges: rows look like |#####|.
    for line in chart.splitlines()[1:3]:
        assert line.startswith("node") and line.count("|") == 2


def test_sync_timeline_lists_records(run):
    stats, events = run
    decisions = [e for e in events if e["name"] == "decision"]
    assert [(e["ts"], e["args"]["epoch"], e["args"]["reason"])
            for e in decisions] == \
        [(s.time, s.epoch, s.reason) for s in stats.syncs]


def test_sync_timeline_limit(run):
    _stats, events = run
    last = render_trace_summary(events, limit=1).splitlines()[-1]
    assert last.startswith("  by name: ") and "," not in last
