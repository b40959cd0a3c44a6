"""The §4.1 load's random levels are numpy's, drawn without numpy.

``machine/load.py`` copies ``SeedSequence(seed).spawn(P)`` and
``default_rng(seed).integers(0, m_l + 1, dtype=int64)`` (PCG64 and the
32-bit Lemire draw, whose spare half-word carries across calls) word for
word, and shares one drawn realization between the loads that replay it.
Its :class:`Shuffler` is the same generator's ``shuffle`` /
``permutation``: work stealing's victim order and the random group
formation.  Each test here holds those copies to ``numpy.random``
itself; CI's ``numpy-floor`` job runs them under numpy 1 too.
"""

import math
import random
import sys
import threading

import numpy as np
import pytest

from repro.machine.cluster import ClusterSpec, build_groups
from repro.machine.load import (
    ConstantLoad,
    DiscreteRandomLoad,
    Shuffler,
    TraceLoad,
    _child_seeds,
    _draw_levels,
    _entropy_words,
    _Stream,
    _stream,
)

from .test_time_math_floats import _ArrayLoad

#: 300 seeds: small ones, a spread of 32-bit ones, and seeds of one to
#: five 32-bit words (2**32 and 2**64 and above, and the 2**96 and
#: 2**128 ones whose words overflow SeedSequence's four-word pool).
_rng = random.Random(20240601)
SEEDS = (list(range(100))
         + [_rng.randrange(2 ** 32) for _ in range(100)]
         + [2 ** 32, 2 ** 32 - 1, 2 ** 64, 2 ** 64 - 1, 2 ** 96, 2 ** 128]
         + [_rng.randrange(2 ** 32, 2 ** 160) for _ in range(94)])

#: The paper's range of m_l, and one far enough into 32 bits that a
#: third of the draws are rejected and redrawn.
MAX_LOADS = (1, 2, 3, 4, 5, 6, 7, 2 ** 31 + 11)


def _numpy_levels(seed, max_load, size):
    return np.random.default_rng(seed).integers(
        0, max_load + 1, size=size, dtype=np.int64).astype(float).tolist()


def _draw(seed, max_load, size):
    draws = _draw_levels(_entropy_words(seed), max_load)
    return [next(draws) for _ in range(size)]


def test_enough_seeds_and_words():
    assert len(set(SEEDS)) >= 300
    assert max(SEEDS).bit_length() > 128
    assert len([s for s in SEEDS if s >= 2 ** 64]) > 50


def test_child_seeds_are_seed_sequence_spawns():
    for seed in SEEDS:
        expected = [int(c.generate_state(1)[0])
                    for c in np.random.SeedSequence(seed).spawn(5)]
        assert list(_child_seeds(seed, 5)) == expected, seed


@pytest.mark.parametrize("max_load", MAX_LOADS)
def test_levels_are_numpys_integers(max_load):
    for seed in SEEDS:
        assert _draw(seed, max_load, 70) == \
            _numpy_levels(seed, max_load, 70), seed


def test_the_rejection_path_is_reached():
    """``2**31 + 11`` rejects about a third of the 32-bit draws, so the
    test above covers the redraw."""
    excl = 2 ** 31 + 12
    threshold = 2 ** 32 % excl
    generator = np.random.default_rng(3).bit_generator
    words = generator.random_raw(200)
    halves = [w & 0xFFFF_FFFF for w in words] + [w >> 32 for w in words]
    assert sum((h * excl) & 0xFFFF_FFFF < threshold for h in halves) > 50


@pytest.mark.parametrize("max_load", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3])
def test_ranges_outside_the_32_bit_lemire_draw(max_load):
    """A one-value range draws nothing; a full 32-bit range takes the
    half-word as it is; a wider one draws whole 64-bit words."""
    for seed in SEEDS[::10]:
        assert _draw(seed, max_load, 40) == \
            _numpy_levels(seed, max_load, 40), seed


@pytest.mark.parametrize("max_load", [1, 5, 2 ** 31 + 11])
def test_uneven_chunks_carry_the_spare_half_word(max_load):
    """Odd batch sizes end a call on the low half of a 64-bit word; the
    next call must start on its high half, as numpy's does."""
    chunks = [1, 3, 64, 7, 128, 5, 1, 300]
    for seed in SEEDS[::7]:
        generator = np.random.default_rng(seed)
        stream = _Stream(seed, max_load)
        start = 0
        for size in chunks:
            expected = generator.integers(0, max_load + 1, size=size,
                                          dtype=np.int64)
            assert stream.take(start, size) == \
                expected.astype(float).tolist(), (seed, size)
            start += size


def test_a_memo_hit_replays_the_miss():
    _stream.cache_clear()
    first = DiscreteRandomLoad(max_load=5, persistence=0.5, seed=123)
    miss = [first.window_level(k) for k in range(300)]
    assert _stream.cache_info().misses == 1
    second = DiscreteRandomLoad(max_load=5, persistence=0.5, seed=123)
    hit = [second.window_level(k) for k in range(300)]
    assert _stream.cache_info().hits == 1
    assert second._stream is first._stream
    assert hit == miss == _numpy_levels(123, 5, 300)
    # Another m_l is another stream.
    other = DiscreteRandomLoad(max_load=4, persistence=0.5, seed=123)
    assert other._stream is not first._stream
    assert [other.window_level(k) for k in range(300)] == \
        _numpy_levels(123, 4, 300)


def test_two_loads_on_one_stream_in_different_orders():
    """Each load prefix-sums in its own batches, so each equals the
    ndarray reference queried in its order, whoever drew first."""
    _stream.cache_clear()
    queries = {"forward": [0.3, 20.0, 45.0, 150.0, 700.0],
               "backward": [700.0, 150.0, 45.0, 20.0, 0.3]}
    loads = {name: DiscreteRandomLoad(max_load=5, persistence=0.5, seed=77)
             for name in queries}
    refs = {name: _ArrayLoad(5, 0.5, 77) for name in queries}
    assert loads["forward"]._stream is loads["backward"]._stream
    for step in range(5):
        for name, order in queries.items():
            x = order[step]
            assert loads[name].integral(x) == refs[name].integral(x)
            assert loads[name].inverse_integral(x) == \
                refs[name].inverse_integral(x)
    for name in queries:
        assert loads[name].window_level(1500) == refs[name]._levels[1500]


def test_a_stream_extended_from_two_threads():
    """Concurrent readers extend one stream: no draw is skipped or made
    twice, and each reader sees numpy's levels at its positions."""
    stream = _Stream(2024, 5)
    expected = _numpy_levels(2024, 5, 20_000)
    errors = []
    barrier = threading.Barrier(2)

    def reader(seed):
        rng = random.Random(seed)
        barrier.wait()
        start = 0
        try:
            while start < 20_000:
                size = min(rng.randint(1, 97), 20_000 - start)
                if stream.take(start, size) != expected[start:start + size]:
                    errors.append((seed, start, size))
                start += size
        except Exception as exc:  # e.g. "generator already executing"
            errors.append((seed, start, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(s,)) for s in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert stream.levels == expected


def test_an_unseeded_load_is_fresh_and_not_memoized():
    _stream.cache_clear()
    a = DiscreteRandomLoad(max_load=5, seed=None)
    b = DiscreteRandomLoad(max_load=5, seed=None)
    levels = [[load.window_level(k) for k in range(200)] for load in (a, b)]
    assert levels[0] != levels[1]
    assert _stream.cache_info().currsize == 0
    assert set(levels[0]) <= {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        DiscreteRandomLoad(max_load=5, seed=-1)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        ClusterSpec.homogeneous(4, max_load=5, seed=-3).build()
    with pytest.raises(ValueError):  # numpy refuses it alike
        np.random.default_rng(-1)


def test_a_cluster_builds_numpys_realization():
    """``ClusterSpec.build``: processor ``i``'s levels are those of
    ``default_rng`` seeded with the ``i``-th spawned child."""
    spec = ClusterSpec.homogeneous(6, max_load=3, persistence=1.0,
                                   seed=2 ** 64 + 9)
    children = np.random.SeedSequence(spec.seed).spawn(6)
    for station, child in zip(spec.build(), children):
        seed = int(child.generate_state(1)[0])
        assert station.load.seed == seed
        assert [station.load.window_level(k) for k in range(130)] == \
            _numpy_levels(seed, 3, 130)


_NON_FINITE = [math.nan, math.inf]


@pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan", "inf"])
def test_a_non_finite_level_is_refused_when_built(bad):
    with pytest.raises(ValueError, match="load levels must be finite"):
        ConstantLoad(bad)
    with pytest.raises(ValueError, match="load levels must be finite"):
        TraceLoad([0, 2, bad])
    with pytest.raises(ValueError, match="load levels must be finite"):
        ClusterSpec(speeds=(1.0, 1.0), load_traces=((0, 1), (bad, 2)))


def test_a_negative_level_is_refused_when_built():
    with pytest.raises(ValueError, match="load levels must be non-negative"):
        ConstantLoad(-1.0)
    with pytest.raises(ValueError, match="load levels must be non-negative"):
        TraceLoad([1, -2, math.nan])
    with pytest.raises(ValueError, match="load levels must be non-negative"):
        ClusterSpec(speeds=(1.0,), load_traces=((-0.5,),))


def test_too_wide_a_range_is_refused():
    with pytest.raises(ValueError, match="max_load"):
        DiscreteRandomLoad(max_load=2 ** 63)
    with pytest.raises(ValueError):  # numpy refuses it alike
        np.random.default_rng(0).integers(0, 2 ** 63 + 1, dtype=np.int64)


# -- shuffles ------------------------------------------------------------

def test_permutations_are_numpys():
    for seed in SEEDS:
        for n in range(2, 65):
            assert Shuffler(seed).permutation(n) == \
                np.random.default_rng(seed).permutation(n).tolist()


def test_shuffles_carry_the_spare_half_word_across_calls():
    """A work-stealing thief shuffles its victims once per round, on one
    generator: an odd number of 32-bit draws leaves a high half-word
    that the next round's first draw takes."""
    lengths = (3, 1, 0, 17, 2, 64, 9, 5, 33, 2)
    for seed in SEEDS[::10] + [7 * 65_537 + 3]:
        ours, theirs = Shuffler(seed), np.random.default_rng(seed)
        for n in lengths * 3:
            a, b = [f"v{i}" for i in range(n)], [f"v{i}" for i in range(n)]
            ours.shuffle(a)
            theirs.shuffle(b)
            assert a == b


@pytest.mark.parametrize("n,k", [(8, 3), (13, 4), (64, 8)])
def test_random_group_formation_is_numpys_permutation(n, k):
    for seed in range(50):
        order = np.random.default_rng(seed).permutation(n).tolist()
        expected = [sorted(order[i:i + k]) for i in range(0, n, k)]
        if len(expected[-1]) == 1:
            last = expected.pop()
            expected[-1] = sorted(expected[-1] + last)
        assert build_groups(n, k, "random", seed) == expected
