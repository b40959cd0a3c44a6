"""Execution backends for the DLB protocol core.

The protocol layer (:mod:`repro.protocol`) is pure; a backend decides
what clock, timers, transport, and compute mean.  :class:`SimBackend`
is the deterministic discrete-event kernel (the default);
:class:`ThreadBackend`, :class:`ProcessBackend` and
:class:`SocketBackend` run the same state machines on real threads,
processes and TCP sockets through one shared driver.  What each one is,
and which feature runs on which, is in ``docs/ARCHITECTURE.md``.

Select one via ``run_loop(..., backend="process")`` or the CLI's
``python -m repro run --backend process``.
"""

from .base import BackendError, ExecutionBackend, get_backend
from .process import ProcessBackend
from .sim import SimBackend
from .socket import SocketBackend
from .thread import ThreadBackend

__all__ = [
    "BackendError",
    "ExecutionBackend",
    "ProcessBackend",
    "SimBackend",
    "SocketBackend",
    "ThreadBackend",
    "get_backend",
]
