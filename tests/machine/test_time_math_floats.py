"""The §4.1 time math answers in built-in floats, bit for bit.

:class:`~repro.machine.load.LoadFunction` and
:class:`~repro.apps.workload.WorkTable` keep their prefix sums as lists
of Python floats and bisect them.  Their answers become the simulated
clock, so these tests pin two things: every answer is a built-in
``float`` / ``int``, down to the clock of a whole run, and every answer
equals, with ``==``, what the ndarray formulation they replaced gives.
That formulation is kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterSpec, run_loop
from repro.apps.trfd import TrfdConfig, trfd_loop1
from repro.apps.workload import WorkTable
from repro.faults.plan import FaultPlan
from repro.machine.load import ConstantLoad, DiscreteRandomLoad, TraceLoad
from repro.runtime.options import RunOptions
from repro.simulation.engine import Environment


class _ArrayTable:
    """Reference: the prefix sum as an ndarray, queried by searchsorted."""

    def __init__(self, costs):
        self._cum = np.concatenate([[0.0], np.cumsum(np.asarray(costs))])

    def range_work(self, start, end):
        return float(self._cum[end] - self._cum[start])

    def max_cost(self, start, end):
        return float(np.diff(self._cum[start:end + 1]).max())

    def count_for_work(self, start, work, end=None, round_up=True):
        limit = (len(self._cum) - 1 if end is None else end) - start
        if work <= 0:
            return 0
        target = self._cum[start] + work
        eps = 1e-12 * max(1.0, abs(target))
        if round_up:
            idx = int(np.searchsorted(self._cum, target - eps, side="left"))
            k = idx - start
        else:
            idx = int(np.searchsorted(self._cum, target + eps, side="right"))
            k = idx - 1 - start
        return min(max(k, 0), limit)


class _ArrayLoad:
    """Reference: :class:`DiscreteRandomLoad` on ndarrays, grown in the
    same batches from the same generator."""

    def __init__(self, max_load, persistence, seed):
        self.persistence = persistence
        self._max_load = max_load
        self._rng = np.random.default_rng(seed)
        self._levels = np.empty(0)
        self._cum = np.zeros(1)

    def _ensure(self, k):
        need = k + 1 - len(self._levels)
        if need <= 0:
            return
        grow = max(need, len(self._levels), 64)
        new = self._rng.integers(0, self._max_load + 1, size=grow,
                                 dtype=np.int64).astype(np.float64)
        self._levels = np.concatenate([self._levels, new])
        self._cum = np.concatenate(
            [self._cum, self._cum[-1] + np.cumsum(1.0 / (new + 1.0))])

    def integral(self, t):
        if t == 0:
            return 0.0
        k = int(t // self.persistence)
        self._ensure(k)
        frac = t - k * self.persistence
        return float(self._cum[k] * self.persistence
                     + frac / (self._levels[k] + 1.0))

    def inverse_integral(self, target):
        if target == 0:
            return 0.0
        while self._cum[-1] * self.persistence < target:
            self._ensure(2 * max(len(self._levels), 64))
        scaled = target / self.persistence
        k = int(np.searchsorted(self._cum, scaled, side="right") - 1)
        k = min(max(k, 0), len(self._levels) - 1)
        remainder = target - self._cum[k] * self.persistence
        return float(k * self.persistence
                     + remainder * (self._levels[k] + 1.0))


_LOADS = {
    "constant": lambda: ConstantLoad(1.5, persistence=0.5),
    "random": lambda: DiscreteRandomLoad(max_load=5, persistence=0.5, seed=3),
    "trace": lambda: TraceLoad([0, 2, 5], persistence=0.5),
}


@pytest.mark.parametrize("kind", sorted(_LOADS))
def test_load_queries_return_builtin_float(kind):
    load = _LOADS[kind]()
    answers = [load.level(0.7), load.window_level(3), load.integral(0.0),
               load.integral(2.3), load.integral(90.0),
               load.inverse_integral(0.0), load.inverse_integral(1.9),
               load.inverse_integral(60.0), load.effective_load(0.4, 0.4),
               load.effective_load(0.4, 7.9),
               load.effective_load_windows(0, 3), load.mean_inverse_factor()]
    assert [type(a) for a in answers] == [float] * len(answers)


@pytest.mark.parametrize("costs", [0.5, [1.0, 2.0, 3.0, 4.0]],
                         ids=["uniform", "tabled"])
def test_work_table_queries_return_builtin_types(costs):
    table = WorkTable(costs, 4) if np.isscalar(costs) else WorkTable(costs)
    floats = [table.total_work, table.cost(1), table.range_work(1, 3),
              table.max_cost(0, 4)]
    ints = [table.count_for_work(1, 2.5),
            table.count_for_work(0, 3.0, end=3, round_up=False)]
    assert [type(x) for x in floats] == [float] * len(floats)
    assert [type(x) for x in ints] == [int] * len(ints)


def test_a_loaded_run_keeps_a_float_clock(monkeypatch):
    """Every instant the engine schedules from, and every time the run
    reports, is a built-in float: no numpy scalar reaches the clock."""
    seen = []
    schedule = Environment._schedule

    def spy(env, event, priority, delay):
        seen.append((env.now, delay))
        schedule(env, event, priority, delay)

    monkeypatch.setattr(Environment, "_schedule", spy)
    stats = run_loop(trfd_loop1(TrfdConfig(30)),
                     ClusterSpec.homogeneous(16, max_load=5, seed=7),
                     "GCDLB", RunOptions())
    assert len(seen) > 100 and stats.syncs
    assert [x for pair in seen for x in pair
            if isinstance(x, np.generic)] == []
    assert type(stats.duration) is float
    assert {type(s.time) for s in stats.syncs} == {float}
    assert {type(t) for t in stats.node_finish_times.values()} == {float}
    # A node that crashed while its block was being staged never ran:
    # it has no finish time at all (it used to report ``None``).
    staged = run_loop(trfd_loop1(TrfdConfig(30)),
                      ClusterSpec.homogeneous(16, max_load=5, seed=7),
                      "GCDLB", RunOptions(include_staging=True),
                      fault_plan=FaultPlan.single_crash(2, 0.0))
    assert staged.crashed_nodes == (2,)
    assert sorted(staged.node_finish_times) == [
        n for n in range(16) if n != 2]
    assert {type(t) for t in staged.node_finish_times.values()} == {float}


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1,
                max_size=60),
       st.data())
@settings(max_examples=200, deadline=None)
def test_work_table_equals_the_array_reference(costs, data):
    table, ref = WorkTable(np.array(costs)), _ArrayTable(costs)
    n = len(costs)
    start = data.draw(st.integers(0, n - 1))
    end = data.draw(st.integers(start + 1, n))
    # Half the works end on an iteration boundary (up to rounding): the
    # ties the eps tie-break is there for.
    work = data.draw(st.one_of(
        st.floats(min_value=-1.0, max_value=700.0),
        st.integers(start, n).map(lambda k: ref.range_work(start, k))))
    assert table.range_work(start, end) == ref.range_work(start, end)
    assert table.max_cost(start, end) == ref.max_cost(start, end)
    for stop in (None, end):
        for round_up in (True, False):
            assert (table.count_for_work(start, work, stop, round_up)
                    == ref.count_for_work(start, work, stop, round_up))


@given(st.floats(min_value=0.001, max_value=10.0),
       st.integers(min_value=1, max_value=200),
       st.floats(min_value=-1.0, max_value=2500.0))
@settings(max_examples=200, deadline=None)
def test_uniform_counts_equal_the_array_reference(cost, n, work):
    table = WorkTable(cost, n)
    expected = ([0, 0] if work <= 0 else
                [min(max(int(np.ceil(work / cost - 1e-12)), 0), n),
                 min(max(int(np.floor(work / cost + 1e-12)), 0), n)])
    assert [table.count_for_work(0, work),
            table.count_for_work(0, work, round_up=False)] == expected


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.lists(st.tuples(st.booleans(),
                          st.floats(min_value=0.0, max_value=300.0)),
                min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_load_integral_equals_the_array_reference(seed, queries):
    """Same queries in the same order grow both in the same batches; the
    closing two reach far past the first 64-window batch."""
    load = DiscreteRandomLoad(max_load=5, persistence=0.5, seed=seed)
    ref = _ArrayLoad(max_load=5, persistence=0.5, seed=seed)
    for inverse, x in queries + [(True, 150.0), (False, 700.0)]:
        if inverse:
            assert load.inverse_integral(x) == ref.inverse_integral(x)
        else:
            assert load.integral(x) == ref.integral(x)
    assert load.window_level(1000) == ref._levels[1000]
