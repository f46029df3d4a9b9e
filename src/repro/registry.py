"""The name → implementation registry behind every pluggable layer.

GF(256) backends (:mod:`repro.fec.backend`), execution engines
(:mod:`repro.runtime`) and transports (:mod:`repro.transport`) are each
selected the same way, in priority order:

1. an explicit argument (a name or an instance),
2. the layer's environment variable,
3. the registry default (the first registered entry unless another is
   made the default).

Entries are either shared instances (backends are stateless) or factories
called once per lookup (an engine or a transport owns threads and sockets).
Unknown names raise the layer's own error class, naming what is available,
so a typo never silently selects the wrong implementation.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Generic, List, Optional, Type, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Named implementations of ``base``, a default and an env override."""

    def __init__(self, kind: str, base: type, env_var: str,
                 error: Type[Exception], factories: bool) -> None:
        """Describe one layer's selection: its name, type, env var, error."""
        self.kind = kind
        self.base = base
        self.env_var = env_var
        self.error = error
        self.factories = factories
        self.default: Optional[str] = None
        self._entries: Dict[str, object] = {}

    def register(self, name: str, entry, make_default: bool = False) -> None:
        """Add ``entry`` under ``name`` (replacing any same name)."""
        if not name:
            raise self.error(f"{self.kind} must have a non-empty name")
        self._entries[name] = entry
        if make_default or self.default is None:
            self.default = name

    def available(self) -> List[str]:
        """Return the names of every registered entry."""
        return sorted(self._entries)

    def set_default(self, name: str):
        """Make ``name`` the process-wide default and return its entry."""
        entry = self.lookup(name)
        self.default = name
        return entry

    def lookup(self, name: str):
        """Return the registered entry (instance or factory) for ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.available())}") from None

    def choose(self, name: Optional[str] = None) -> str:
        """Return ``name``, else the environment variable, else the default."""
        if name is None:
            name = os.environ.get(self.env_var) or self.default
        if name is None:
            raise self.error(f"no {self.kind} registered")
        return name

    def get(self, name: Optional[str] = None) -> T:
        """Return the implementation ``name`` selects (see :meth:`choose`)."""
        entry = self.lookup(self.choose(name))
        return entry() if self.factories else entry

    def resolve(self, value, get: Optional[Callable[..., T]] = None) -> T:
        """Normalise an argument that may be an instance, a name or None."""
        get = get or self.get
        if value is None:
            return get()
        if isinstance(value, self.base):
            return value
        if isinstance(value, str):
            return get(value)
        raise self.error(f"{self.kind} must be a name, "
                         f"{self.base.__name__}, or None: {value!r}")
