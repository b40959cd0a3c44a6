"""Span wrappers around the layers' entry points, installed from here.

Nothing in ``repro`` knows about this module.  :class:`Tracer` replaces
a function (wherever its name is bound) or a method (on its class) with
a wrapper that pushes a frame on a per-thread call stack, so a span's
*self* time is its duration minus the spans it contains.  Spans are
aggregated in memory as ``(span, parent) -> calls, total_s, self_s,
units``; the first :data:`RAW_CAP` are also kept raw.  The catalogue of
what gets wrapped, and how the aggregate turns into the per-layer
metrics of ``BENCHMARK.json``, is at the bottom.
"""

from __future__ import annotations

import inspect
import sys
import threading
from time import perf_counter

#: Raw spans kept per trace file; the aggregate is never capped.
RAW_CAP = 2000

#: Parent name of a span entered with an empty stack.
ROOT = "(root)"

#: Parent name of coroutine intervals, which sit outside the span stack.
ASYNC = "(async)"


class _ThreadState:
    """One thread's open-span stack and its share of the aggregate."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        # frame = [span name, seconds spent in child spans so far]
        self.stack: list[list] = [[ROOT, 0.0]]
        # (span, parent) -> [calls, total_s, self_s, units]
        self.agg: dict[tuple[str, str], list] = {}


class Tracer:
    """Installs span wrappers, aggregates what they see, restores."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.raw: list[tuple[str, str, float, float]] = []
        self.origin = perf_counter()

    # -- per-thread state ----------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _close(self, state: _ThreadState, frame: list, t0: float,
               calls: int, units: float) -> None:
        """Pop ``frame`` (entered at ``t0``) and book it."""
        dt = perf_counter() - t0
        stack = state.stack
        stack.pop()
        parent = stack[-1]
        parent[1] += dt
        key = (frame[0], parent[0])
        rec = state.agg.get(key)
        if rec is None:
            rec = state.agg[key] = [0, 0.0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += dt
        rec[2] += dt - frame[1]
        rec[3] += units
        if len(self.raw) < RAW_CAP:
            self.raw.append((frame[0], parent[0], t0 - self.origin, dt))

    # -- wrappers ------------------------------------------------------------
    def _wrap_call(self, span: str, fn, units=None):
        """Plain function: one span per call.

        ``units(args, result)`` adds to the span's ``units`` column
        (bytes encoded, nominal seconds requested, ...).
        """
        get_state, close = self._state, self._close

        def wrapper(*args, **kwargs):
            state = get_state()
            frame = [span, 0.0]
            state.stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(state, frame, t0, 1,
                      units(args, result) if units is not None else 0.0)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, span: str, fn, units=None):
        """Generator function: one call, a span slice per resumption.

        The simulator's ``transmit``/``send`` are generators driven by
        ``yield from``; only the time between a resume and the next
        yield belongs to the layer.  The wrapper forwards sends, throws
        and close exactly as ``yield from`` would, so the simulated
        schedule is untouched (``virtual_s`` is checked to be identical
        with and without tracing).
        """
        get_state, close = self._state, self._close

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            calls = 1
            extra = units(args, None) if units is not None else 0.0
            resume, payload = gen.send, None
            while True:
                state = get_state()
                frame = [span, 0.0]
                state.stack.append(frame)
                t0 = perf_counter()
                try:
                    item = resume(payload)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(state, frame, t0, calls, extra)
                    calls, extra = 0, 0.0
                try:
                    payload = yield item
                    resume = gen.send
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded, as yield from does
                    resume, payload = gen.throw, exc

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_coroutine(self, span: str, fn, units=None):
        """Coroutine function: elapsed time only, no stack frame.

        asyncio tasks interleave at every ``await``, so a coroutine
        cannot own a slot on the thread's span stack; it is booked as a
        flat interval under :data:`ASYNC`.
        """
        get_state = self._state

        async def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec = get_state().agg.setdefault((span, ASYNC),
                                                 [0, 0.0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt
                rec[3] += units(args, None) if units is not None else 0.0

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrapper_for(self, span: str, fn, units):
        if inspect.iscoroutinefunction(fn):
            return self._wrap_coroutine(span, fn, units)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(span, fn, units)
        return self._wrap_call(span, fn, units)

    # -- installing ------------------------------------------------------------
    def wrap_method(self, span: str, cls: type, name: str, units=None) -> None:
        """Replace ``cls.name``; instances look methods up on the class."""
        fn = cls.__dict__[name]
        self._undo.append((cls, name, fn))
        setattr(cls, name, self._wrapper_for(span, fn, units))

    def wrap_public_methods(self, span: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if not name.startswith("_") and inspect.isfunction(attr):
                self.wrap_method(span, cls, name)

    def wrap_function(self, span: str, fn, units=None) -> None:
        """Replace ``fn`` in every ``repro`` module that binds it.

        ``from .kernels import burn_ops`` copies the binding into the
        importing module, so the function has to be patched where it is
        *looked up*, not only where it is defined.
        """
        wrapper = self._wrapper_for(span, fn, units)
        for module in list(sys.modules.values()):
            if module is None or not getattr(
                    module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, name, fn))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------
    def aggregate(self) -> dict[tuple[str, str], list]:
        """``(span, parent) -> [calls, total_s, self_s, units]``, all threads."""
        merged: dict[tuple[str, str], list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, rec in state.agg.items():
                into = merged.setdefault(key, [0, 0.0, 0.0, 0.0])
                for i, value in enumerate(rec):
                    into[i] += value
        return merged

    def root_seconds(self, thread_name: str) -> float:
        """Seconds ``thread_name`` spent inside any top-level span."""
        with self._lock:
            states = [s for s in self._states if s.thread_name == thread_name]
        return sum(rec[1] for s in states for (_span, parent), rec
                   in s.agg.items() if parent == ROOT)


# ---------------------------------------------------------------------------
# What gets wrapped.  Span names are ``<layer metric prefix>.<entry point>``;
# layers are repro's sub-packages.  Three private names are wrapped because
# they are where a layer's work actually happens under the event loop:
# ``Environment._schedule`` (the push half of the event queue),
# ``Process._resume`` (the engine handing control to runtime generator code)
# and the ``_Carry`` callbacks (the network's store-and-forward stages).
# ---------------------------------------------------------------------------

def _arg0(args, _result) -> float:
    return float(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed in bench/README.md."""
    import repro.backend.kernels as kernels
    import repro.backend.socket as socket_backend
    import repro.core.diffusion as diffusion
    import repro.core.model.predictor as predictor
    import repro.core.redistribution as redistribution
    import repro.message.frames as frames
    import repro.runtime.executor as executor
    from repro.machine.load import LoadFunction
    from repro.message.pvm import VirtualMachine
    from repro.network.graph import GraphNetwork, _Carry
    from repro.protocol import BalancerProtocol, WorkerProtocol
    from repro.simulation import Environment, Mailbox, Process, Resource

    # simulation
    tracer.wrap_method("engine.step", Environment, "step")
    tracer.wrap_method("engine.run", Environment, "run")
    tracer.wrap_method("engine.schedule", Environment, "_schedule")
    for name in ("put", "get", "take", "drain"):
        tracer.wrap_method(f"mailbox.{name}", Mailbox, name)
    for name in ("request", "release"):
        tracer.wrap_method(f"resources.{name}", Resource, name)
    # network
    for name in ("transmit", "post"):
        tracer.wrap_method(f"network.{name}", GraphNetwork, name)
    for name in ("_start", "_begin", "_acquired", "_release"):
        tracer.wrap_method("network.carry", _Carry, name)
    # message
    tracer.wrap_method("pvm.send", VirtualMachine, "send")
    for name in ("multicast", "recv", "poll", "drain"):
        tracer.wrap_method(f"pvm.{name}", VirtualMachine, name)
    tracer.wrap_function("frames.encode", frames.encode_frame,
                         units=lambda args, data: len(data or b""))
    tracer.wrap_method("frames.decode", frames.FrameDecoder, "feed",
                       units=lambda args, _result: len(args[1]))
    tracer.wrap_function("frames.to_wire", frames.message_to_wire)
    tracer.wrap_function("frames.from_wire", frames.message_from_wire)
    # protocol
    tracer.wrap_public_methods("protocol.worker", WorkerProtocol)
    tracer.wrap_public_methods("protocol.balancer", BalancerProtocol)
    # core
    tracer.wrap_function("planner.eq3", redistribution.plan_redistribution)
    tracer.wrap_function("planner.diffusion", diffusion.plan_diffusion)
    tracer.wrap_function("predictor.predict", predictor.predict_strategy)
    # machine
    for name in ("level", "integral", "inverse_integral", "effective_load"):
        tracer.wrap_method(f"load.{name}", LoadFunction, name)
    # runtime
    tracer.wrap_function("runtime.run_loop", executor.run_loop)
    tracer.wrap_method("runtime.resume", Process, "_resume")
    # backend: the in-process compute kernels (deadline spin on threads,
    # sliced sleep in socket tasks); units = nominal seconds asked for
    tracer.wrap_function("kernels.burn_wall", kernels.burn_wall, units=_arg0)
    tracer.wrap_function("kernels.sleep", socket_backend._client_burn,
                         units=_arg0)


def layer_metrics(agg: dict[tuple[str, str], list], reps: int) -> dict:
    """Per-repetition layer metrics from an aggregate over ``reps`` runs."""

    def column(prefix: str, index: int) -> float:
        return sum(rec[index] for (span, _parent), rec in agg.items()
                   if span == prefix or span.startswith(prefix + ".")) / reps

    def calls(prefix: str) -> float:
        return column(prefix, 0)

    def self_s(prefix: str) -> float:
        return column(prefix, 2)

    events = calls("engine.step")
    frame_bytes = column("frames.encode", 3) + column("frames.decode", 3)
    frames_s = self_s("frames")
    return {
        "engine.events": events,
        "engine.self_s": self_s("engine"),
        "engine.ns_per_event":
            self_s("engine") / events * 1e9 if events else 0.0,
        "mailbox.ops": calls("mailbox"),
        "mailbox.self_s": self_s("mailbox"),
        "resources.ops": calls("resources"),
        "resources.self_s": self_s("resources"),
        "network.transmits":
            calls("network.transmit") + calls("network.post"),
        "network.self_s": self_s("network"),
        "pvm.sends": calls("pvm.send"),
        "pvm.self_s": self_s("pvm"),
        "frames.encoded_bytes": column("frames.encode", 3),
        "frames.decoded_bytes": column("frames.decode", 3),
        "frames.self_s": frames_s,
        "frames.mb_per_s": frame_bytes / frames_s / 1e6 if frames_s else 0.0,
        "protocol.worker_calls": calls("protocol.worker"),
        "protocol.worker_self_s": self_s("protocol.worker"),
        "protocol.balancer_calls": calls("protocol.balancer"),
        "protocol.balancer_self_s": self_s("protocol.balancer"),
        "planner.calls": calls("planner"),
        "planner.self_s": self_s("planner"),
        "predictor.calls": calls("predictor"),
        "predictor.self_s": self_s("predictor"),
        "load.calls": calls("load"),
        "load.self_s": self_s("load"),
        "runtime.run_loop_calls": calls("runtime.run_loop"),
        "runtime.self_s": self_s("runtime"),
        "kernels.calls": calls("kernels"),
        "kernels.busy_s": column("kernels", 1),
    }


def trace_document(tracer: Tracer, workload: str, reps: int) -> dict:
    """What ``bench/out/trace-<workload>.json`` holds."""
    rows = [{"span": span, "parent": parent, "calls": rec[0],
             "total_s": rec[1], "self_s": rec[2], "units": rec[3]}
            for (span, parent), rec in sorted(tracer.aggregate().items())]
    return {"workload": workload, "repetitions": reps, "spans": rows,
            "raw_cap": RAW_CAP,
            "raw": [{"span": s, "parent": p, "start_s": t, "duration_s": d}
                    for s, p, t, d in tracer.raw]}
