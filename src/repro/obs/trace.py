"""Ring-buffered trace recording with a zero-cost disabled default.

Two recorder classes share one interface:

* :class:`NullRecorder` — every method is a no-op ``pass``.  The module
  singleton :data:`NULL_RECORDER` is what every instrumentation site
  holds by default, so a run that never asked for tracing pays one
  attribute load per *potential* event and nothing else
  (``benchmarks/test_bench_obs.py`` measures exactly this).
* :class:`TraceRecorder` — appends plain JSON-clean event dicts to a
  bounded ``collections.deque``.  Appends are atomic under the GIL, so
  one shared recorder serves all threads of the thread backend; the
  process and socket backends give each worker its own recorder and
  merge the buffers at shutdown (:meth:`TraceRecorder.to_payload` /
  :meth:`TraceRecorder.merge_payload`).

Clock domains
-------------
The recorder never reads a clock of its own choosing: the backend
injects one via ``set_clock`` (or the constructor).  The simulation
backend injects ``lambda: env.now`` — **virtual seconds**, so recording
cannot perturb the event schedule — while thread/process/socket inject
a zero-based ``perf_counter`` (measured from the same ``t0`` their
statistics already use).  Event timestamps are therefore always
"seconds since the run started" in the producing backend's own time
domain; see docs/OBSERVABILITY.md.

Event shape
-----------
Every event is a dict: ``{"name", "ph", "ts", "track", "args"}`` plus
``"dur"`` on complete spans.  ``ph`` follows the Chrome trace-event
phase letters the exporters emit verbatim: ``"X"`` (complete span) and
``"i"`` (instant).  ``track`` names the timeline row — ``node3``,
``balancer``, ``link:0-1``, ``faults`` — one Perfetto thread each.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Optional

__all__ = ["DEFAULT_CAPACITY", "NULL_RECORDER", "NullRecorder",
           "TraceRecorder"]

#: Ring-buffer size: events beyond this drop the oldest (counted in
#: ``dropped``, reported by the exporters — never a hard failure).
DEFAULT_CAPACITY = 65536


class _NullSpan:
    """Context manager that measures nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    Instrumentation sites test ``recorder.enabled`` before building
    event arguments that cost anything (string formatting, tuple
    copies); the methods themselves are safe to call unconditionally.
    """

    __slots__ = ()

    enabled = False
    dropped = 0

    def set_clock(self, clock: Callable[[], float]) -> None:
        pass

    def event(self, name: str, track: str = "run", **args) -> None:
        pass

    def complete(self, name: str, ts: float, dur: float,
                 track: str = "run", **args) -> None:
        pass

    def span(self, name: str, track: str = "run", **args) -> _NullSpan:
        return _NULL_SPAN

    def events(self) -> list:
        return []

    def to_payload(self) -> dict:
        return {"events": [], "dropped": 0}

    def merge_payload(self, payload: dict) -> None:
        pass


#: The shared disabled recorder every instrumentation point defaults to.
NULL_RECORDER = NullRecorder()


class _Span:
    """Measures one ``with recorder.span(...)`` block as a complete
    event; the timestamp/duration come from the recorder's clock."""

    __slots__ = ("_recorder", "_name", "_track", "_args", "_t0")

    def __init__(self, recorder: "TraceRecorder", name: str, track: str,
                 args: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._track = track
        self._args = args

    def __enter__(self) -> "_Span":
        self._t0 = self._recorder._clock()
        return self

    def __exit__(self, *exc) -> bool:
        rec = self._recorder
        rec.complete(self._name, self._t0, rec._clock() - self._t0,
                     track=self._track, **self._args)
        return False


class TraceRecorder(NullRecorder):
    """Record spans and instants into a bounded ring buffer."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if clock is None:
            t0 = time.perf_counter()
            clock = lambda: time.perf_counter() - t0  # noqa: E731
        self._clock = clock
        self._buf: deque = deque(maxlen=capacity)
        self.capacity = capacity
        self.dropped = 0

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the time source (e.g. the sim's ``env.now``)."""
        self._clock = clock

    # -- recording -------------------------------------------------------
    def _push(self, event: dict) -> None:
        buf = self._buf
        if len(buf) == buf.maxlen:
            self.dropped += 1
        buf.append(event)

    def event(self, name: str, track: str = "run", *,
              ts: Optional[float] = None, **args) -> None:
        """One instant event at the current clock reading — or at
        ``ts``, for an instant that is only known in full after the
        fact (:meth:`events` orders by timestamp, not by insertion)."""
        self._push({"name": name, "ph": "i",
                    "ts": self._clock() if ts is None else ts,
                    "track": track, "args": args})

    def complete(self, name: str, ts: float, dur: float,
                 track: str = "run", **args) -> None:
        """One complete span with caller-supplied timestamps — the form
        the simulation uses, where start/end are already known from the
        event schedule and the recorder must not read any clock."""
        self._push({"name": name, "ph": "X", "ts": ts, "dur": dur,
                    "track": track, "args": args})

    def span(self, name: str, track: str = "run", **args) -> _Span:
        """Measure a ``with`` block against the recorder's clock."""
        return _Span(self, name, track, args)

    # -- reading / merging ----------------------------------------------
    def events(self) -> list:
        """All buffered events in timestamp order (merged buffers from
        several workers interleave, so insertion order is not enough)."""
        return sorted(self._buf, key=lambda e: e.get("ts", 0.0))

    def to_payload(self) -> dict:
        """JSON-clean snapshot for shipping over a queue or TRACE frame."""
        return {"events": list(self._buf), "dropped": self.dropped}

    def merge_payload(self, payload: dict) -> None:
        """Fold another recorder's :meth:`to_payload` into this buffer."""
        for event in payload.get("events", ()):
            self._push(event)
        self.dropped += int(payload.get("dropped", 0))
