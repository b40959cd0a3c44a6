"""Property-based tests of the event kernel: random process trees, and
random schedules against a single heap."""

import heapq

from hypothesis import given, settings, strategies as st

from repro.simulation import AllOf, Environment, Event
from repro.simulation.engine import PRIORITY_NORMAL


@st.composite
def process_trees(draw, depth=0):
    """A tree: each node waits some delay, then spawns children and
    joins them."""
    delay = draw(st.floats(min_value=0.0, max_value=2.0))
    n_children = 0 if depth >= 3 else draw(st.integers(0, 3))
    children = [draw(process_trees(depth=depth + 1))
                for _ in range(n_children)]
    return (delay, children)


@given(process_trees())
@settings(max_examples=60, deadline=None)
def test_join_time_is_critical_path(tree):
    """A parent's completion time equals its delay plus the max child
    completion (the critical path) — events never fire early or late."""
    env = Environment()

    def expected(node):
        delay, children = node
        return delay + max((expected(c) for c in children), default=0.0)

    def runner(node):
        delay, children = node
        yield env.timeout(delay)
        procs = [env.process(runner(c)) for c in children]
        if procs:
            yield AllOf(env, procs)
        return env.now

    proc = env.process(runner(tree))
    finish = env.run(proc)
    assert abs(finish - expected(tree)) < 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1,
                max_size=40))
@settings(max_examples=60, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def worker(d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(worker(d))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=3.0),
                          st.floats(min_value=0.0, max_value=3.0)),
                min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_resource_conservation_under_contention(jobs):
    """With a resource (a FIFO mutex), total busy time is the sum of holds
    and at most one job holds it at any instant."""
    from repro.simulation import Resource
    env = Environment()
    res = Resource(env)
    intervals = []

    def worker(arrive, hold):
        yield env.timeout(arrive)
        req = res.request()
        yield req
        start = env.now
        yield env.timeout(hold)
        res.release(req)
        intervals.append((start, env.now))

    for arrive, hold in jobs:
        env.process(worker(arrive, hold))
    env.run()
    assert len(intervals) == len(jobs)
    intervals.sort()
    for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
        assert s2 >= e1 - 1e-12  # no overlap


@st.composite
def schedules(draw, depth=0):
    """A tree of scheduling operations: a node is scheduled when its
    parent fires (the roots before the run), ``amount`` after that
    instant — as a delay at some priority, or as an absolute time.  Few
    distinct amounts, zero among them, so ties are the common case."""
    kind = draw(st.sampled_from(["delay", "at"]))
    priority = draw(st.integers(0, 2))
    amount = draw(st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75]))
    children = [] if depth >= 3 else draw(
        st.lists(schedules(depth=depth + 1), max_size=3))
    return (kind, priority, amount, children)


@given(st.lists(schedules(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_buckets_heap_and_absolute_entries_fire_as_a_single_heap(roots):
    """Zero-delay buckets, delayed heap entries and ``schedule_at``
    entries together fire in the order of one heap keyed ``(time,
    priority, schedule order)``, at the same instants."""
    env = Environment()
    fired = []

    def schedule(node, label):
        kind, priority, amount, children = node

        def fire(_event):
            fired.append((env.now, label))
            for k, child in enumerate(children):
                schedule(child, label + (k,))

        event = Event(env)
        event.callbacks.append(fire)
        if kind == "at":
            env.schedule_at(event, env.now + amount)
        else:
            env.schedule(event, priority, amount)

    for k, root in enumerate(roots):
        schedule(root, (k,))
    env.run()

    heap, expected, now = [], [], 0.0

    def push(node, label):
        kind, priority, amount, children = node
        heapq.heappush(heap, (
            now + amount, PRIORITY_NORMAL if kind == "at" else priority,
            len(expected) + len(heap), label, children))

    for k, root in enumerate(roots):
        push(root, (k,))
    while heap:
        now, _priority, _order, label, children = heapq.heappop(heap)
        expected.append((now, label))
        for k, child in enumerate(children):
            push(child, label + (k,))
    assert fired == expected
