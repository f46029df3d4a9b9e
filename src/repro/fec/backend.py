"""Pluggable GF(256) linear-algebra backends.

The erasure code is, at its core, three linear-algebra operations over
GF(2^8): matrix-matrix products (code construction), matrix-vector products
(per-element algebra) and matrix-*batch* products (the per-packet hot path,
where one coefficient matrix multiplies a 2D ``uint8`` array whose rows are
equal-length packet blocks).  This module isolates those operations behind a
small backend interface so the implementation can be swapped:

* :class:`PurePythonGFBackend` — the original scalar triple loop.  Slow, but
  dependency-free and trivially auditable; it is the reference oracle the
  equivalence tests compare every other backend against.
* :class:`NumpyGFBackend` — vectorised with the precomputed 256x256
  :data:`~repro.fec.gf256.MUL_TABLE`: a single fancy-indexing gather produces
  every coefficient-times-byte product, and an XOR reduction collapses them.
  This is the default and is orders of magnitude faster on packet batches.

Backends are held in a process-wide registry.  Selection, in priority order:

1. an explicit ``backend=`` argument (name or instance) on the FEC classes,
2. the ``REPRO_FEC_BACKEND`` environment variable,
3. the registry default (numpy).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from ..registry import Registry
from .gf256 import MUL_TABLE, gf_mul

#: Environment variable consulted by :func:`get_backend` when no explicit
#: backend is requested.
BACKEND_ENV_VAR = "REPRO_FEC_BACKEND"


class GFBackendError(ValueError):
    """Raised for unknown backend names or invalid backend inputs."""


class GFBackend(ABC):
    """Interface for GF(256) linear algebra implementations.

    Coefficient matrices are passed as sequences of equal-length rows of
    ints in ``[0, 255]``; packet batches are 2D ``uint8`` numpy arrays with
    one block per row.  Implementations must be pure functions of their
    inputs (no aliasing of returned arrays with arguments).
    """

    #: Registry key; subclasses must override.
    name: str = ""

    @abstractmethod
    def matmul(
        self, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """Matrix product ``a @ b`` over GF(256), as lists of int rows."""

    @abstractmethod
    def matvec(self, rows: Sequence[Sequence[int]], vector: Sequence[int]) -> List[int]:
        """Matrix-vector product over GF(256)."""

    @abstractmethod
    def apply_matrix(
        self, rows: Sequence[Sequence[int]], data: np.ndarray
    ) -> np.ndarray:
        """Multiply an (m, k) coefficient matrix into a (k, L) block batch.

        Returns an (m, L) ``uint8`` array: output row i is the GF(256) linear
        combination of the data rows with coefficients ``rows[i]``.  This is
        the encode/decode hot path.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


def _check_apply_inputs(rows: Sequence[Sequence[int]], data: np.ndarray) -> np.ndarray:
    if not len(rows):
        raise GFBackendError("coefficient matrix must have at least one row")
    data = np.asarray(data)
    if data.dtype != np.uint8:
        raise GFBackendError(f"block batch must be uint8, got {data.dtype}")
    if data.ndim != 2:
        raise GFBackendError(f"block batch must be 2D, got shape {data.shape}")
    if len(rows[0]) != data.shape[0]:
        raise GFBackendError(
            f"matrix width {len(rows[0])} does not match batch rows {data.shape[0]}"
        )
    return data


class PurePythonGFBackend(GFBackend):
    """Scalar reference implementation (the seed repo's original loops)."""

    name = "python"

    def matmul(
        self, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        inner = len(b)
        width = len(b[0])
        result: List[List[int]] = []
        for row in a:
            out_row = []
            for j in range(width):
                acc = 0
                for k in range(inner):
                    acc ^= gf_mul(row[k], b[k][j])
                out_row.append(acc)
            result.append(out_row)
        return result

    def matvec(self, rows: Sequence[Sequence[int]], vector: Sequence[int]) -> List[int]:
        out = []
        for row in rows:
            acc = 0
            for coefficient, value in zip(row, vector):
                acc ^= gf_mul(coefficient, value)
            out.append(acc)
        return out

    def apply_matrix(
        self, rows: Sequence[Sequence[int]], data: np.ndarray
    ) -> np.ndarray:
        data = _check_apply_inputs(rows, data)
        columns = data.shape[1]
        result = np.zeros((len(rows), columns), dtype=np.uint8)
        blocks = [bytes(data[i]) for i in range(data.shape[0])]
        for i, row in enumerate(rows):
            acc = bytearray(columns)
            for coefficient, block in zip(row, blocks):
                if coefficient == 0:
                    continue
                for position in range(columns):
                    acc[position] ^= gf_mul(coefficient, block[position])
            result[i] = np.frombuffer(bytes(acc), dtype=np.uint8)
        return result


class NumpyGFBackend(GFBackend):
    """Vectorised backend: MUL_TABLE fancy-indexing + XOR reduction.

    For an (m, k) coefficient matrix and a (k, L) batch, a single gather
    ``MUL_TABLE[matrix.T]`` pulls the 256-entry product row for every
    coefficient — one table lookup per coefficient row instead of one per
    byte.  Each source row j then contributes ``lut[j][:, data[j]]`` (an
    (m, L) C-speed gather through those product rows), and an in-place XOR
    accumulates the contributions into the result.
    """

    name = "numpy"

    def matmul(
        self, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        b_array = np.asarray([[int(v) for v in row] for row in b], dtype=np.uint8)
        product = self.apply_matrix(a, b_array)
        return [[int(v) for v in row] for row in product]

    def matvec(self, rows: Sequence[Sequence[int]], vector: Sequence[int]) -> List[int]:
        column = np.asarray([[int(v)] for v in vector], dtype=np.uint8)
        return [int(v) for v in self.apply_matrix(rows, column)[:, 0]]

    def apply_matrix(
        self, rows: Sequence[Sequence[int]], data: np.ndarray
    ) -> np.ndarray:
        data = _check_apply_inputs(rows, data)
        try:
            lut = _lut_for(rows)
        except TypeError:  # unhashable rows (lists): key on their values
            lut = _lut_for(tuple(map(tuple, rows)))
        result = lut[0].take(data[0], axis=1)
        for j in range(1, len(lut)):
            result ^= lut[j].take(data[j], axis=1)
        return result


@lru_cache(maxsize=128)
def _lut_for(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """lut[j] is the (m, 256) block of product rows for source row j,
    contiguous so the per-row take gathers stream through it.

    Encoders and decoders apply the same small coefficient matrix to every
    group and hold it as a tuple of tuples, so the matrix is resolved to its
    gather through MUL_TABLE once, keyed on the rows themselves."""
    matrix = np.asarray([[int(v) for v in row] for row in rows], dtype=np.uint8)
    return MUL_TABLE[matrix.T]


_BACKENDS: Registry[GFBackend] = Registry(
    "GF backend", GFBackend, BACKEND_ENV_VAR, GFBackendError, factories=False
)

#: ``available_backends()`` and friends: the registry's own methods are the
#: public functions.
available_backends = _BACKENDS.available
set_default_backend = _BACKENDS.set_default
resolve_backend = _BACKENDS.resolve


def register_backend(backend: GFBackend, make_default: bool = False) -> GFBackend:
    """Add a backend to the registry (replacing any same-named backend)."""
    _BACKENDS.register(backend.name, backend, make_default)
    return backend


def get_backend(name: Optional[str] = None) -> GFBackend:
    """Resolve a backend by name, environment variable, or default.

    ``None`` consults ``REPRO_FEC_BACKEND`` and falls back to the registry
    default (numpy).  Unknown names raise :class:`GFBackendError` so typos
    never silently select the wrong engine.
    """
    return _BACKENDS.get(name)


register_backend(PurePythonGFBackend())
register_backend(NumpyGFBackend(), make_default=True)
