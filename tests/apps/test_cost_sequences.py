"""Per-iteration cost sequences: what a :class:`LoopSpec` accepts and
what its :class:`WorkTable` computes from them.

A loop's ``iteration_time`` may be a scalar or a sequence of length
``n_iterations`` (tuple, list or 1-D array); the spec stores a sequence
as a tuple of Python floats, so it runs on every backend and stays
hashable.  The work table prefix-sums without numpy; its answers must
equal, bit for bit, the ``numpy.cumsum`` prefix sum it replaced.  The
loop's ``total_work`` sums pairwise without numpy, and must equal
``numpy.sum`` bit for bit.  A cost that is not positive and finite is
refused when the loop or the table is built.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ClusterSpec, run_loop
from repro.apps.workload import LoopSpec, WorkTable
from repro.backend import ProcessBackend, SocketBackend, ThreadBackend
from repro.runtime.assignment import check_coverage
from repro.runtime.options import RunOptions

N = 12
COSTS = tuple(1e-3 * (1.0 + j / N) for j in range(N))

BACKENDS = {
    "sim": lambda: None,
    "thread": lambda: ThreadBackend(kernel="wall"),
    "process": lambda: ProcessBackend(kernel="ops"),
    "socket": lambda: SocketBackend(),
}

#: The sequence kinds a cost may come as, each built from a tuple.
KINDS = {"tuple": tuple, "list": list, "ndarray": np.array}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["list", "ndarray"])
def test_a_list_or_array_cost_loop_runs_on_every_backend(kind, backend):
    loop = LoopSpec("seq", N, KINDS[kind](COSTS), dc_bytes=64)
    assert loop.iteration_time == COSTS
    assert {type(c) for c in loop.iteration_time} == {float}
    stats = run_loop(loop, ClusterSpec.homogeneous(2, max_load=0, seed=7),
                     "GCDLB", RunOptions(), backend=BACKENDS[backend]())
    check_coverage(stats.executed_by_node, N)


def test_an_array_cost_loop_compares_and_hashes_as_its_tuple_twin():
    a = LoopSpec("seq", N, np.array(COSTS), dc_bytes=64)
    b = LoopSpec("seq", N, np.array(COSTS), dc_bytes=64)
    twin = LoopSpec("seq", N, COSTS, dc_bytes=64)
    assert a == b == twin
    assert hash(a) == hash(b) == hash(twin)


@pytest.mark.parametrize("length", [N - 1, N + 1])
@pytest.mark.parametrize("kind", KINDS)
def test_a_cost_sequence_of_the_wrong_length_is_refused(kind, length):
    costs = KINDS[kind]((1e-3,) * length)
    with pytest.raises(ValueError, match="iteration costs for"):
        LoopSpec("seq", N, costs, dc_bytes=64)


@pytest.mark.parametrize("scalar", [np.float64(2e-3), np.float32(2e-3),
                                    np.int64(2), 2, 2e-3])
def test_numpy_and_python_scalars_are_uniform(scalar):
    loop = LoopSpec("u", N, scalar, dc_bytes=0)
    assert loop.uniform
    table = loop.work_table()
    assert table.uniform and table.n == N
    assert table.uniform_cost == float(scalar)
    assert WorkTable(scalar, N).uniform


# -- bit identity with the numpy prefix sum ---------------------------------

class _CumsumReference:
    """The numpy formulation the work table replaced: the same checks,
    the prefix sum from ``np.cumsum``, counts from ``np.searchsorted``."""

    def __init__(self, costs, n_iterations=None):
        arr = np.asarray(costs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("costs must be a non-empty 1-D array")
        if (arr <= 0).any():
            raise ValueError("iteration costs must be positive")
        if n_iterations is not None and n_iterations != arr.size:
            raise ValueError("n_iterations disagrees with costs array")
        self.cum = [0.0] + np.cumsum(arr).tolist()

    def cost(self, j):
        return self.cum[j + 1] - self.cum[j]

    def max_cost(self, start, end):
        return max(self.cost(j) for j in range(start, end))

    def count_for_work(self, start, work, round_up):
        if work <= 0:
            return 0
        cum = np.array(self.cum)
        target = self.cum[start] + work
        eps = 1e-12 * max(1.0, abs(target))
        if round_up:
            k = int(np.searchsorted(cum, target - eps, side="left")) - start
        else:
            k = int(np.searchsorted(cum, target + eps,
                                    side="right")) - 1 - start
        return min(max(k, 0), len(self.cum) - 1 - start)


@given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1,
                max_size=80),
       st.sampled_from(sorted(KINDS)), st.data())
@settings(max_examples=300, deadline=None)
def test_work_table_equals_the_numpy_cumsum_bit_for_bit(costs, kind, data):
    table, ref = WorkTable(KINDS[kind](costs)), _CumsumReference(costs)
    n = len(costs)
    assert table._cum == ref.cum
    assert table.total_work == ref.cum[-1]
    j = data.draw(st.integers(0, n - 1))
    assert table.cost(j) == ref.cost(j)
    start = data.draw(st.integers(0, n - 1))
    end = data.draw(st.integers(start + 1, n))
    assert table.max_cost(start, end) == ref.max_cost(start, end)
    # Half the works end on an iteration boundary: the eps tie-break.
    work = data.draw(st.one_of(
        st.floats(min_value=-1.0, max_value=1e5),
        st.integers(start, n).map(lambda k: ref.cum[k] - ref.cum[start])))
    for round_up in (True, False):
        assert (table.count_for_work(start, work, round_up=round_up)
                == ref.count_for_work(start, work, round_up))


@pytest.mark.parametrize("n", [30, 60, 100])
def test_trfd_loop2_table_equals_the_numpy_cumsum(n):
    from repro.apps.trfd import TrfdConfig, trfd_loop2
    loop = trfd_loop2(TrfdConfig(n))
    assert loop.work_table()._cum == _CumsumReference(loop.iteration_time).cum


@pytest.mark.parametrize("costs, n_iterations", [
    ([], None), ((), None), (np.array([]), None),          # empty
    (np.ones((2, 3)), None), ([[1.0, 2.0], [3.0, 4.0]], None),  # 2-D
    (np.array(1.5), None),                                  # 0-D array
    ([1.0, 0.0], None), ((2.0, -1.0), None),                # not positive
    (np.array([0.0]), None),
    (COSTS, N + 1), (list(COSTS), N - 1),                   # mismatch
    (np.array(COSTS), N + 1),
])
def test_work_table_refuses_what_the_numpy_formulation_refused(
        costs, n_iterations):
    with pytest.raises(ValueError) as ref_error:
        _CumsumReference(costs, n_iterations)
    with pytest.raises(ValueError) as error:
        WorkTable(costs, n_iterations)
    assert str(error.value) == str(ref_error.value)


# -- bit identity with numpy's pairwise sum ---------------------------------

def _magnitudes(n, seed):
    """``n`` seeded costs spread over 12 decades (1e-6 s to 1e6 s)."""
    rng = np.random.default_rng(seed)
    return tuple((10.0 ** rng.uniform(-6, 6, n)).tolist())


def _skew_costs(n=256, seed=7):
    """A skewed loop shaped like the benchmark's: cost rises 15x."""
    rng = np.random.default_rng(seed)
    return tuple((0.2e-3 + 2.8e-3 * j / n) * rng.uniform(0.8, 1.2)
                 for j in range(n))


@pytest.mark.parametrize("n", [*range(1, 301), 8191, 8192, 8193, 20_000])
def test_total_work_equals_the_numpy_sum_bit_for_bit(n):
    """Every length to 300 crosses the 7/8/9 and 127/128/129 edges of
    the pairwise blocks; the long ones cross numpy's 8192 buffer."""
    costs = _magnitudes(n, seed=n)
    loop = LoopSpec("pw", n, costs, dc_bytes=0)
    assert loop.total_work == float(np.sum(costs))
    assert type(loop.total_work) is float


def test_the_repos_own_cost_tuples_sum_as_numpy_sums_them():
    from repro.apps.trfd import TrfdConfig, trfd_loop2
    trfd = trfd_loop2(TrfdConfig(30))
    skew = LoopSpec("skew", 256, _skew_costs(), dc_bytes=4096)
    for loop in (trfd, skew):
        assert loop.total_work == float(np.sum(loop.iteration_time))
        assert (loop.mean_iteration_time
                == float(np.sum(loop.iteration_time)) / loop.n_iterations)
    # The pairwise and the left-to-right sum part in the last bit here,
    # so a prefix-sum shortcut would not pass.
    assert trfd.total_work != trfd.work_table().total_work


# -- costs that are not positive and finite ---------------------------------

@pytest.mark.parametrize("cost, message", [
    (0.0, "positive"), (-1.0, "positive"), (np.float64(0.0), "positive"),
    (float("-inf"), "positive"), (float("nan"), "finite"),
    (float("inf"), "finite"), (np.float64("nan"), "finite"),
])
@pytest.mark.parametrize("shape", ["uniform", "in a tuple"])
def test_a_bad_cost_is_refused_when_the_loop_is_built(cost, message, shape):
    costs = cost if shape == "uniform" else (1e-3, cost, 1e-3)
    n = 1 if shape == "uniform" else 3
    with pytest.raises(ValueError, match=f"iteration costs must be {message}"):
        LoopSpec("x", n, costs, 0)
    with pytest.raises(ValueError, match=f"iteration costs must be {message}"):
        WorkTable(costs, n)
