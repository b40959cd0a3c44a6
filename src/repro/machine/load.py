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
piecewise linear; we keep a prefix sum of per-window inverse factors.
numpy draws and prefix-sums each batch of windows; queries bisect a list
of Python floats, so ``F`` and its inverse are O(log W) and every answer
is a built-in ``float`` (the simulated clock is built from them).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["LoadFunction", "DiscreteRandomLoad", "ConstantLoad", "TraceLoad"]


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
    def _generate(self, count: int) -> np.ndarray:
        """Return the next ``count`` window levels (subclass hook)."""
        raise NotImplementedError

    def _ensure(self, k: int) -> None:
        """Ensure window indices ``0..k`` exist."""
        need = k + 1 - len(self._levels)
        if need <= 0:
            return
        import numpy as np
        grow = max(need, len(self._levels), 64)
        new = np.asarray(self._generate(grow), dtype=np.float64)
        if new.shape != (grow,):
            raise ValueError("_generate returned wrong shape")
        if (new < 0).any():
            raise ValueError("load levels must be non-negative")
        # The previous total is added to each partial sum of the batch,
        # not carried through one running sum: that association is what
        # fixes every bit of F.
        self._levels.extend(new.tolist())
        self._cum.extend(
            (self._cum[-1] + np.cumsum(1.0 / (new + 1.0))).tolist())

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
        import numpy as np
        self._ensure(b)
        inv = 1.0 / (np.array(self._levels[a:b + 1]) + 1.0)
        return (b - a + 1) / float(inv.sum())

    def mean_inverse_factor(self) -> float:
        """``E[1/(l+1)]`` over the generated prefix (statistical summary)."""
        import numpy as np
        self._ensure(0)
        return float((1.0 / (np.array(self._levels) + 1.0)).mean())


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
        Seed for the per-processor generator; runs are reproducible.
    """

    def __init__(self, max_load: int = 5, persistence: float = 2.0,
                 seed: Optional[int] = None) -> None:
        if max_load < 0:
            raise ValueError("max_load must be non-negative")
        super().__init__(persistence)
        self.max_load = int(max_load)
        self.seed = seed
        import numpy as np
        self._rng = np.random.default_rng(seed)

    def _generate(self, count: int) -> np.ndarray:
        import numpy as np
        return self._rng.integers(0, self.max_load + 1, size=count,
                                  dtype=np.int64)

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
        if level < 0:
            raise ValueError("level must be non-negative")
        super().__init__(persistence)
        self._level = float(level)

    def _generate(self, count: int) -> np.ndarray:
        import numpy as np
        return np.full(count, self._level, dtype=np.float64)


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
        if any(x < 0 for x in self._trace):
            raise ValueError("levels must be non-negative")
        self._pos = 0

    def _generate(self, count: int) -> np.ndarray:
        import numpy as np
        out = np.empty(count, dtype=np.float64)
        for i in range(count):
            if self._pos < len(self._trace):
                out[i] = self._trace[self._pos]
                self._pos += 1
            else:
                out[i] = self._trace[-1]
        return out
