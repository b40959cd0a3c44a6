"""External load functions (paper §4.1, Figure 2).

The paper models multi-user interference as a *discrete random load*: each
processor ``i`` has an independent load function ``l_i`` that holds an
integer level drawn uniformly from ``{0, ..., m_l}`` for a *duration of
persistence* ``t_l`` before the next draw.  A processor of speed ``S``
under load level ``l`` delivers an effective speed ``S / (l + 1)``.

The central quantity everything else consumes is the *inverse-load
integral*::

    F(t) = integral_0^t  dt' / (l(t') + 1)

so that the work (in base-processor seconds) a processor can perform in
``[t0, t1]`` is ``S * (F(t1) - F(t0))``, and the paper's *effective load*
``mu`` over a window is ``(t1 - t0) / (F(t1) - F(t0))``.  ``F`` is
piecewise linear; we keep a prefix sum of per-window inverse factors,
extended one batch of windows at a time.  Queries bisect a list of
Python floats, so ``F`` and its inverse are O(log W) and every answer is
a built-in ``float`` (the simulated clock is built from them).

The random levels are numpy's, drawn without numpy: :func:`_child_seeds`
is ``SeedSequence(seed).spawn(P)`` and :func:`_draw_levels` is
``default_rng(seed).integers(0, m_l + 1, dtype=int64)`` (PCG64 and the
32-bit Lemire draw), word for word, so every level and every bit of
``F`` is what numpy 1 and 2 give.  The paper replays one realization
under every scheme, so each realization is drawn once per process and
shared (:func:`_stream`).  :class:`Shuffler` is the same generator's
``shuffle`` / ``permutation``, for the schemes that order hosts at
random.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, islice, repeat
from operator import index
from threading import Lock
from typing import Iterator, Optional, Sequence

from ..apps.workload import _pairwise_sum

__all__ = ["LoadFunction", "DiscreteRandomLoad", "ConstantLoad", "TraceLoad"]

_M32 = 0xFFFF_FFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def _entropy_words(n: int) -> list[int]:
    """An entropy integer as ``SeedSequence`` reads it: 32-bit words,
    least significant first."""
    if n < 0:
        raise ValueError("seed must be non-negative")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _seed_state(entropy: list[int], n_words: int) -> list[int]:
    """``SeedSequence``'s pool mixed from ``entropy``, then
    ``generate_state(n_words)`` as 32-bit words."""
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_const = [], 0x8B51F9DD
    for i in range(n_words):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return out


@lru_cache(maxsize=64)
def _child_seeds(seed: int, n: int) -> tuple[int, ...]:
    """``[c.generate_state(1)[0] for c in SeedSequence(seed).spawn(n)]``:
    one independent 32-bit load seed per processor."""
    run = _entropy_words(seed)
    run += [0] * (4 - len(run))  # padded so no seed aliases a spawn key
    return tuple(_seed_state(run + _entropy_words(i), 1)[0]
                 for i in range(n))


def _pcg64(entropy: list[int]) -> Iterator[int]:
    """The 64-bit outputs of ``default_rng(seed)`` for the seed whose
    words are ``entropy``: PCG64 XSL-RR over the 128-bit LCG."""
    w = _seed_state(entropy, 8)
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _M128 | 1
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128  # srandom_r
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        yield (x >> rot | x << 64 - rot) & _M64


def _draw_levels(entropy: list[int], max_load: int) -> Iterator[float]:
    """``default_rng(seed).integers(0, max_load + 1, dtype=int64)`` for
    the seed whose words are ``entropy``,
    level by level: Lemire's draw over PCG64, each 64-bit word
    split into two 32-bit draws (low half first; the high one waits for
    the next draw) while the range fits in 32 bits."""
    if max_load == 0:  # numpy draws nothing for a one-value range
        yield from repeat(0.0)
    excl = max_load + 1
    bits = 32 if excl <= 1 << 32 else 64
    mask = (1 << bits) - 1
    threshold = (1 << bits) % excl  # a draw below it would bias the level
    for x in _pcg64(entropy):
        for word in (x & _M32, x >> 32) if bits == 32 else (x,):
            m = word * excl
            if m & mask >= threshold:
                yield float(m >> bits)


class Shuffler:
    """``numpy.random.default_rng(seed)``'s ``shuffle`` and
    ``permutation``, without numpy, for fewer than ``2**32`` items.

    Fisher–Yates from the last position down; each swap partner is
    numpy's ``random_interval``: a 32-bit draw masked to the smallest
    all-ones mask over the position, drawn again while it exceeds it.
    The 32-bit draws are the PCG64 words split low half first, the high
    half kept for the next draw, across calls too.
    """

    def __init__(self, seed: int) -> None:
        self._draws = (half for x in _pcg64(_entropy_words(index(seed)))
                       for half in (x & _M32, x >> 32))

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        draws = self._draws
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = next(draws) & mask
            while j > i:
                j = next(draws) & mask
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        """``0 .. n-1`` in shuffled order."""
        order = list(range(n))
        self.shuffle(order)
        return order


class _Stream:
    """One realization's levels, drawn once and read by every load that
    replays it; the draw starts at the first read."""

    __slots__ = ("levels", "_entropy", "_max_load", "_draws")

    def __init__(self, seed: int, max_load: int) -> None:
        self.levels: list[float] = []
        self._entropy, self._max_load = _entropy_words(seed), max_load
        self._draws: Optional[Iterator[float]] = None

    def take(self, start: int, count: int) -> list[float]:
        levels = self.levels
        if len(levels) < start + count:
            with _DRAW_LOCK:
                if self._draws is None:
                    self._draws = _draw_levels(self._entropy, self._max_load)
                levels.extend(islice(self._draws,
                                     max(start + count - len(levels), 0)))
        return levels[start:start + count]


_DRAW_LOCK = Lock()


@lru_cache(maxsize=4096)
def _stream(seed: int, max_load: int) -> _Stream:
    """The shared levels of ``seed``: a cluster's P loads, across every
    run of the same realization, cost one draw each."""
    return _Stream(seed, max_load)


def _check_levels(levels: Sequence[float]) -> None:
    """Refuse a load level that is negative or not finite (NaN included)."""
    if not all(0.0 <= v < math.inf for v in levels):
        bad = "non-negative" if any(v < 0 for v in levels) else "finite"
        raise ValueError(f"load levels must be {bad}")


class LoadFunction:
    """Piecewise-constant load over fixed-width persistence windows.

    Subclasses supply window levels through :meth:`_generate`; this base
    class implements the integral machinery.  Window ``k`` covers
    ``[k * persistence, (k+1) * persistence)``.
    """

    def __init__(self, persistence: float) -> None:
        if persistence <= 0:
            raise ValueError("persistence must be positive")
        self.persistence = float(persistence)
        self._levels: list[float] = []
        # _cum[k] = sum_{j<k} 1/(levels[j]+1); len == len(_levels)+1
        self._cum: list[float] = [0.0]

    # -- window generation ------------------------------------------------
    def _generate(self, count: int) -> list[float]:
        """Return the next ``count`` window levels, each a non-negative
        finite float (subclass hook)."""
        raise NotImplementedError

    def _ensure(self, k: int) -> None:
        """Ensure window indices ``0..k`` exist."""
        need = k + 1 - len(self._levels)
        if need <= 0:
            return
        new = self._generate(max(need, len(self._levels), 64))
        # The previous total is added to each partial sum of the batch,
        # not carried through one running sum: that association is what
        # fixes every bit of F.
        total = self._cum[-1]
        self._levels.extend(new)
        self._cum.extend([total + s for s in
                          accumulate([1.0 / (x + 1.0) for x in new])])

    # -- queries ------------------------------------------------------------
    def level(self, t: float) -> float:
        """Load level ``l(t)`` at time ``t >= 0``."""
        if t < 0:
            raise ValueError("time must be non-negative")
        k = int(t // self.persistence)
        self._ensure(k)
        return self._levels[k]

    def window_level(self, k: int) -> float:
        """Load level during persistence window ``k`` (0-based)."""
        if k < 0:
            raise ValueError("window index must be non-negative")
        self._ensure(k)
        return self._levels[k]

    def integral(self, t: float) -> float:
        """``F(t) = integral_0^t dt' / (l(t') + 1)``."""
        if t < 0:
            raise ValueError("time must be non-negative")
        if t == 0:
            return 0.0
        k = int(t // self.persistence)
        self._ensure(k)
        frac = t - k * self.persistence
        return (self._cum[k] * self.persistence
                + frac / (self._levels[k] + 1.0))

    def inverse_integral(self, target: float) -> float:
        """Return the time ``t`` with ``F(t) == target`` (F is increasing)."""
        if target < 0:
            raise ValueError("target must be non-negative")
        if target == 0:
            return 0.0
        cum = self._cum  # _ensure extends it in place
        # Grow windows until the cumulative integral covers the target.
        while cum[-1] * self.persistence < target:
            self._ensure(2 * max(len(self._levels), 64))
        k = bisect_right(cum, target / self.persistence) - 1
        k = min(max(k, 0), len(self._levels) - 1)
        remainder = target - cum[k] * self.persistence
        return k * self.persistence + remainder * (self._levels[k] + 1.0)

    def effective_load(self, t0: float, t1: float) -> float:
        """The paper's ``mu`` over ``[t0, t1]``: mean of ``l+1`` weighted so
        that effective speed is ``S / mu`` (harmonic over elapsed time)."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t1 == t0:
            return float(self.level(t0) + 1)
        area = self.integral(t1) - self.integral(t0)
        return (t1 - t0) / area

    def effective_load_windows(self, a: int, b: int) -> float:
        """Paper §4.2 discrete form: ``(b-a+1) / sum_{k=a}^{b} 1/(l_k+1)``."""
        if b < a:
            raise ValueError("b must be >= a")
        self._ensure(b)
        inv = [1.0 / (x + 1.0) for x in self._levels[a:b + 1]]
        return (b - a + 1) / _pairwise_sum(inv, 0, len(inv))

    def mean_inverse_factor(self) -> float:
        """``E[1/(l+1)]`` over the generated prefix (statistical summary)."""
        self._ensure(0)
        inv = [1.0 / (x + 1.0) for x in self._levels]
        return _pairwise_sum(inv, 0, len(inv)) / len(inv)


class DiscreteRandomLoad(LoadFunction):
    """The paper's load generator: uniform integer levels in ``[0, m_l]``.

    Parameters
    ----------
    max_load:
        ``m_l`` — the paper's experiments use 5.
    persistence:
        ``t_l`` — the duration each level persists, in seconds.  A small
        value is a rapidly-changing load, a large one a stable load.
    seed:
        Seed for the per-processor generator; runs are reproducible, and
        loads with the same seed and ``max_load`` share one drawn
        realization.  ``None`` draws a fresh realization of its own.
    """

    def __init__(self, max_load: int = 5, persistence: float = 2.0,
                 seed: Optional[int] = None) -> None:
        if not 0 <= max_load < 1 << 63:  # numpy's int64 range
            raise ValueError("max_load must be non-negative and below 2**63")
        super().__init__(persistence)
        self.max_load = int(max_load)
        self.seed = seed
        if seed is None:
            self._stream = _Stream(int.from_bytes(os.urandom(16), "little"),
                                   self.max_load)
        else:
            self._stream = _stream(index(seed), self.max_load)

    def _generate(self, count: int) -> list[float]:
        return self._stream.take(len(self._levels), count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DiscreteRandomLoad(max_load={self.max_load}, "
                f"persistence={self.persistence}, seed={self.seed})")


class ConstantLoad(LoadFunction):
    """A fixed load level — no-load baselines, tests, and model forecasts.

    The level may be fractional: the run-time decision process forecasts
    each processor's future load as its *measured* effective load
    ``mu - 1``, which is rarely an integer.
    """

    def __init__(self, level: float = 0.0, persistence: float = 1.0) -> None:
        super().__init__(persistence)
        self._level = float(level)
        _check_levels((self._level,))

    def _generate(self, count: int) -> list[float]:
        return [self._level] * count


class TraceLoad(LoadFunction):
    """Replays an explicit sequence of levels, then repeats the last one.

    Useful for constructing adversarial or hand-crafted load scenarios in
    tests ("group one is heavily loaded, group two idle").
    """

    def __init__(self, levels: Sequence[float], persistence: float = 1.0) -> None:
        if len(levels) == 0:
            raise ValueError("trace must contain at least one level")
        super().__init__(persistence)
        self._trace = [float(x) for x in levels]
        _check_levels(self._trace)

    def _generate(self, count: int) -> list[float]:
        out = self._trace[len(self._levels):len(self._levels) + count]
        return out + [self._trace[-1]] * (count - len(out))
