"""Pluggable execution engines for filter-chain runtimes.

This package owns *how* a proxy's filter chains execute, behind the same
registry pattern as the GF(256) backends (:mod:`repro.fec.backend`):

* :class:`ThreadedEngine` — thread per chain element (the paper's model,
  and the default);
* :class:`EventEngine` — one cooperative scheduler thread pumping filters
  on DIS readiness callbacks, for proxies with very many streams;
* :class:`AsyncioEngine` — the same scheduler woken by an ``asyncio``
  event loop, for proxies embedded in asyncio applications (the
  :mod:`repro.ingress` HTTP/WebSocket front door runs on it).

Both cooperative engines are :class:`~repro.runtime.cooperative.
CooperativeEngine` plus a wake-up driver.

Select with ``ControlThread(..., engine=...)`` / ``Proxy(..., engine=...)``
(name or instance), the ``REPRO_ENGINE`` environment variable, or
:func:`set_default_engine`.
"""

from .base import (
    ENGINE_ENV_VAR,
    EngineError,
    ExecutionEngine,
    available_engines,
    get_engine,
    register_engine,
    resolve_engine,
    set_default_engine,
)
from .asyncio_engine import AsyncioEngine
from .event import EventEngine
from .threaded import ThreadedEngine

register_engine(ThreadedEngine.name, ThreadedEngine, make_default=True)
register_engine(EventEngine.name, EventEngine)
register_engine(AsyncioEngine.name, AsyncioEngine)

__all__ = [
    "ENGINE_ENV_VAR",
    "EngineError",
    "ExecutionEngine",
    "ThreadedEngine",
    "EventEngine",
    "AsyncioEngine",
    "register_engine",
    "available_engines",
    "get_engine",
    "resolve_engine",
    "set_default_engine",
]
