"""Integration tests for the run-time executor."""

import pytest

from repro.apps.workload import ApplicationSpec, LoopSpec, SequentialStage
from repro.machine.cluster import ClusterSpec
from repro.protocol import ComputeDone, WorkerProtocol
from repro.runtime.executor import run_application, run_loop


ALL_SCHEMES = ("NONE", "GCDLB", "GDDLB", "LCDLB", "LDDLB")


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_every_iteration_executed_exactly_once(scheme, small_loop, cluster4,
                                               options):
    stats = run_loop(small_loop, cluster4, scheme, options=options)
    total = sum(stats.executed_count(i) for i in range(4))
    assert total == small_loop.n_iterations  # coverage also verified inside


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_all_nodes_finish(scheme, small_loop, cluster4, options):
    stats = run_loop(small_loop, cluster4, scheme, options=options)
    assert len(stats.node_finish_times) == 4
    assert all(t is not None and t <= stats.end_time
               for t in stats.node_finish_times.values())


def test_no_dlb_never_syncs(small_loop, cluster4, options):
    stats = run_loop(small_loop, cluster4, "NONE", options=options)
    assert stats.n_syncs == 0
    assert stats.network_messages == 0


def test_dlb_beats_static_under_imbalanced_load(options, small_loop):
    """With one heavily loaded processor, DLB must win clearly."""
    cluster = ClusterSpec(speeds=(1.0,) * 4, persistence=1000.0,
                          load_traces=((5,), (0,), (0,), (0,)))
    static = run_loop(small_loop, cluster, "NONE", options=options)
    dlb = run_loop(small_loop, cluster, "GDDLB", options=options)
    assert dlb.duration < 0.6 * static.duration


def test_no_load_near_ideal(quiet_cluster4, small_loop, options):
    """Without external load the equal partition is already balanced;
    DLB overhead must be small."""
    static = run_loop(small_loop, quiet_cluster4, "NONE", options=options)
    dlb = run_loop(small_loop, quiet_cluster4, "GDDLB", options=options)
    assert dlb.duration <= static.duration * 1.15


def test_deterministic_replay(small_loop, cluster4, options):
    a = run_loop(small_loop, cluster4, "LDDLB", options=options)
    b = run_loop(small_loop, cluster4, "LDDLB", options=options)
    assert a.duration == b.duration
    assert a.n_syncs == b.n_syncs
    assert a.executed_by_node == b.executed_by_node


def test_different_seeds_differ(small_loop, cluster4, options):
    a = run_loop(small_loop, cluster4, "GDDLB", options=options)
    b = run_loop(small_loop, cluster4.reseeded(43), "GDDLB", options=options)
    assert a.duration != b.duration


def test_single_processor_requires_no_dlb(small_loop, options):
    single = ClusterSpec.homogeneous(1, max_load=0)
    stats = run_loop(small_loop, single, "NONE", options=options)
    assert stats.executed_count(0) == small_loop.n_iterations
    with pytest.raises(ValueError):
        run_loop(small_loop, single, "GDDLB", options=options)


def test_more_processors_than_iterations(options, cluster8):
    tiny = LoopSpec(name="nano", n_iterations=3, iteration_time=0.05,
                    dc_bytes=100)
    stats = run_loop(tiny, cluster8, "GDDLB", options=options)
    total = sum(stats.executed_count(i) for i in range(8))
    assert total == 3


def test_non_uniform_loop_all_schemes(nonuniform_loop, cluster4, options):
    for scheme in ALL_SCHEMES:
        stats = run_loop(nonuniform_loop, cluster4, scheme, options=options)
        assert sum(stats.executed_count(i) for i in range(4)) == 40


def test_group_size_recorded(small_loop, cluster8, options):
    stats = run_loop(small_loop, cluster8, "LDDLB",
                     options=options.but(group_size=4))
    assert stats.group_size == 4
    groups = {s.group for s in stats.syncs}
    assert groups <= {0, 1}


def test_message_tags_accounted(small_loop, cluster4, options):
    stats = run_loop(small_loop, cluster4, "GCDLB", options=options)
    assert stats.messages_by_tag["profile"] > 0
    assert stats.messages_by_tag["instruction"] > 0
    assert stats.messages_by_tag["work"] >= 0
    # Distributed scheme sends no instructions.
    stats = run_loop(small_loop, cluster4, "GDDLB", options=options)
    assert stats.messages_by_tag["instruction"] == 0


def test_on_execute_callback_sees_everything(small_loop, cluster4, options):
    executed = []
    opts = options.but(on_execute=lambda node, ranges:
                       executed.extend(ranges))
    run_loop(small_loop, cluster4, "GDDLB", options=opts)
    assert sum(e - s for s, e in executed) == small_loop.n_iterations


def test_application_pipeline(cluster4, options, tiny_loop):
    app = ApplicationSpec(
        name="two-phase",
        stages=(tiny_loop,
                SequentialStage(name="mid", compute_seconds=0.1),
                LoopSpec(name="second", n_iterations=12,
                         iteration_time=0.01, dc_bytes=50)))
    stats = run_application(app, cluster4, "LDDLB", options=options)
    assert len(stats.stages) == 3
    assert stats.total_duration > 0.1
    assert stats.loop("tiny").n_processors == 4
    assert "second" == stats.loop_stats[1].loop_name


def test_a_finished_stage_leaves_no_interrupt_floor(cluster4, options,
                                                    small_loop, monkeypatch):
    """A host's inbox outlives a loop stage, its epochs do not: the full
    drain at the end of a stage forgets the interrupt floor with the
    flags, so the next stage's epoch-0 interrupt still stops a computing
    node, and the stopped slice names who interrupted it."""
    seen = []
    real = WorkerProtocol.on_event

    def spy(proto, event):
        if isinstance(event, ComputeDone):
            seen.append((proto.table.n, proto.epoch, event))
        return real(proto, event)

    monkeypatch.setattr(WorkerProtocol, "on_event", spy)
    second = LoopSpec(name="second", n_iterations=48, iteration_time=0.01,
                      dc_bytes=50)
    run_application(ApplicationSpec(name="two-loops",
                                    stages=(small_loop, second)),
                    cluster4, "GDDLB", options=options)
    assert max(e for n, e, _ in seen if n == small_loop.n_iterations) >= 1
    stopped = [(e, done.by) for n, e, done in seen
               if n == second.n_iterations and done.status == "interrupted"]
    assert any(e == 0 for e, _ in stopped)
    assert all(by is not None for _, by in stopped)


def test_staging_adds_time(tiny_loop, cluster4, options):
    plain = run_loop(tiny_loop, cluster4, "GDDLB", options=options)
    staged_loop = LoopSpec(name="tiny", n_iterations=16,
                           iteration_time=0.020, dc_bytes=400,
                           input_bytes=4000, result_bytes=4000,
                           replicated_bytes=100_000)
    staged = run_loop(staged_loop, cluster4, "GDDLB",
                      options=options.but(include_staging=True))
    assert staged.duration > plain.duration


def test_summary_mentions_key_numbers(small_loop, cluster4, options):
    stats = run_loop(small_loop, cluster4, "GDDLB", options=options)
    text = stats.summary()
    assert "GDDLB" in text and "syncs=" in text
