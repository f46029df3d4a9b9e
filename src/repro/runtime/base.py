"""The execution-engine interface and registry.

An :class:`ExecutionEngine` owns *how* the elements of a filter chain run —
it decouples the composition layer (:mod:`repro.core.control_thread`) from
the concurrency model, exactly as :mod:`repro.fec.backend` decouples the
erasure code from its field algebra.  Three engines ship with the repo:

* :class:`~repro.runtime.threaded.ThreadedEngine` — one worker thread per
  chain element, the paper's original model, blocking inside the same
  ``Filter.pump`` step the cooperative engines call;
* :class:`~repro.runtime.event.EventEngine` — a single-threaded cooperative
  scheduler that pumps filters only when their DIS reports readiness, for
  proxies hosting hundreds of concurrent streams;
* :class:`~repro.runtime.asyncio_engine.AsyncioEngine` — the same
  scheduler (:mod:`repro.runtime.cooperative`) woken by an ``asyncio``
  event loop, for proxies embedded in asyncio applications.

Engines are held in a process-wide :class:`~repro.registry.Registry` of
factories.  Selection, in priority order:

1. an explicit ``engine=`` argument (name or instance) on ``ControlThread``
   / ``Proxy`` / the composed proxies,
2. the ``REPRO_ENGINE`` environment variable,
3. the registry default (threaded).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ..registry import Registry

#: Environment variable consulted by :func:`get_engine` when no explicit
#: engine is requested.
ENGINE_ENV_VAR = "REPRO_ENGINE"


class EngineError(ValueError):
    """Raised for unknown engine names or invalid engine operations."""


class ExecutionEngine(ABC):
    """Interface for filter-chain execution strategies.

    An engine is handed chain elements (:class:`~repro.core.filter.Filter`
    instances, including EndPoints) one at a time by the ControlThread; it
    decides whether each runs on a dedicated thread or is pumped
    cooperatively.  One engine instance may serve many streams — sharing an
    instance across a proxy's streams is what lets the event engine
    multiplex hundreds of chains onto one scheduler thread.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    @abstractmethod
    def start_element(self, element) -> None:
        """Begin executing ``element`` (exactly once per element)."""

    def stop_element(self, element, timeout: float = 5.0) -> None:
        """Stop ``element`` and wait up to ``timeout`` for it to finish."""
        element.stop(timeout=timeout)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Release engine-wide resources.

        Idempotent; elements must already be stopped by their
        ControlThreads.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


_ENGINES: Registry[ExecutionEngine] = Registry(
    "engine", ExecutionEngine, ENGINE_ENV_VAR, EngineError, factories=True)

#: ``register_engine(name, factory, make_default=False)`` and friends: the
#: registry's own methods are the public functions.
register_engine = _ENGINES.register
available_engines = _ENGINES.available
set_default_engine = _ENGINES.set_default
resolve_engine = _ENGINES.resolve


def get_engine(name: Optional[str] = None) -> ExecutionEngine:
    """Instantiate an engine by name, environment variable, or default.

    ``None`` consults ``REPRO_ENGINE`` and falls back to the registry
    default (threaded).  Unknown names raise :class:`EngineError` so typos
    never silently select the wrong runtime.  Each call returns a *fresh*
    engine instance; share the instance explicitly (e.g. one per Proxy) to
    multiplex streams onto it.
    """
    return _ENGINES.get(name)
