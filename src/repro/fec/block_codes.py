"""(n, k) block erasure encoder/decoder.

This is the workhorse behind the paper's FEC proxy: ``k`` equal-sized source
blocks go in, ``n`` encoded blocks come out (the first ``k`` are verbatim
copies of the sources because the code is systematic), and *any* ``k`` of
the ``n`` encoded blocks reconstruct the sources.

Variable-length packets are handled one level up (see
:mod:`repro.fec.group`), which pads payloads to a common block size; this
module deals purely in equal-length byte blocks.  The field algebra runs on
a pluggable :mod:`repro.fec.backend` (vectorised numpy by default), and the
``encode_batch``/``decode_batch`` methods expose the whole code word as a
handful of array operations for the hot paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .backend import GFBackend, resolve_backend
from .matrix import GFMatrix
from .vandermonde import (
    _repair_rows,
    systematic_generator_matrix,
    validate_parameters,
)


class FecCodingError(ValueError):
    """Raised for invalid encode/decode inputs (wrong counts, lengths,
    duplicate indices, or too few blocks to reconstruct)."""


def _as_batch(blocks: Sequence[bytes]) -> np.ndarray:
    """Stack equal-length byte blocks into a (len(blocks), L) uint8 array."""
    length = len(blocks[0])
    for index, block in enumerate(blocks):
        if len(block) != length:
            raise FecCodingError(
                f"block {index} has length {len(block)}, expected {length}"
            )
    joined = b"".join(bytes(block) for block in blocks)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(blocks), length)


class BlockErasureCode:
    """A systematic (n, k) erasure code over GF(256).

    Parameters
    ----------
    k:
        Number of source blocks per group.
    n:
        Total number of encoded blocks per group (``n - k`` parity blocks).
    backend:
        GF(256) engine to run the block algebra on — a backend name, a
        :class:`~repro.fec.backend.GFBackend` instance, or ``None`` for the
        process default (see :func:`repro.fec.backend.get_backend`).

    The paper's audio proxy uses ``BlockErasureCode(k=4, n=6)`` — written
    FEC(6, 4) in the paper — chosen small "so as to minimise jitter".
    """

    def __init__(
        self, k: int, n: int, backend: Union[str, GFBackend, None] = None
    ) -> None:
        validate_parameters(k, n)
        self.k = k
        self.n = n
        self.backend = resolve_backend(backend)
        self._generator: GFMatrix = systematic_generator_matrix(k, n)
        # A tuple of tuples: the backend resolves it to its lookup table once.
        self._parity_rows = tuple(tuple(self._generator.row(i)) for i in range(k, n))

    # ------------------------------------------------------------ properties

    @property
    def parity_count(self) -> int:
        """Number of parity blocks produced per group (n - k)."""
        return self.n - self.k

    @property
    def overhead(self) -> float:
        """Relative redundancy added by the code: (n - k) / k."""
        return (self.n - self.k) / self.k

    @property
    def rate(self) -> float:
        """Code rate k / n (fraction of transmitted bytes that are data)."""
        return self.k / self.n

    @property
    def generator_matrix(self) -> GFMatrix:
        """The systematic n x k generator matrix."""
        return self._generator

    # -------------------------------------------------------------- encoding

    def encode(self, source_blocks: Sequence[bytes]) -> List[bytes]:
        """Encode ``k`` equal-length source blocks into ``n`` encoded blocks.

        The first ``k`` returned blocks are byte-for-byte the source blocks;
        the remaining ``n - k`` are parity blocks.
        """
        if len(source_blocks) != self.k:
            raise FecCodingError(
                f"expected {self.k} source blocks, got {len(source_blocks)}"
            )
        if not source_blocks[0]:
            raise FecCodingError("blocks must be non-empty")
        batch = _as_batch(source_blocks)
        encoded: List[bytes] = [bytes(block) for block in source_blocks]
        if self._parity_rows:
            parity = self.backend.apply_matrix(self._parity_rows, batch)
            encoded.extend(parity[i].tobytes() for i in range(parity.shape[0]))
        return encoded

    def encode_parity(self, source_blocks: Sequence[bytes]) -> List[bytes]:
        """Return only the ``n - k`` parity blocks for the group."""
        return self.encode(source_blocks)[self.k :]

    def encode_batch(self, source: np.ndarray) -> np.ndarray:
        """Encode a (k, L) ``uint8`` batch into the full (n, L) code word.

        Row i of the result is encoded block i: the first ``k`` rows are the
        source rows verbatim, the rest are parity.  The whole code word is
        produced by a single backend matrix-batch product.
        """
        source = np.asarray(source)
        parity = self.encode_parity_batch(source)
        encoded = np.empty((self.n, source.shape[1]), dtype=np.uint8)
        encoded[: self.k] = source
        encoded[self.k :] = parity
        return encoded

    def encode_parity_batch(self, source: np.ndarray) -> np.ndarray:
        """The (n - k, L) parity rows for a (k, L) ``uint8`` source batch.

        Like :meth:`encode_batch` but without materialising the verbatim
        source rows — the hot path for callers that already hold the source
        blocks (see :class:`repro.fec.group.FecGroupEncoder`).
        """
        source = np.asarray(source)
        if source.dtype != np.uint8:
            raise FecCodingError(f"source batch must be uint8, got {source.dtype}")
        if source.ndim != 2 or source.shape[0] != self.k:
            raise FecCodingError(
                f"source batch must have shape ({self.k}, L), got {source.shape}"
            )
        if source.shape[1] == 0:
            raise FecCodingError("blocks must be non-empty")
        if not self._parity_rows:
            return np.empty((0, source.shape[1]), dtype=np.uint8)
        return self.backend.apply_matrix(self._parity_rows, source)

    # -------------------------------------------------------------- decoding

    def decode(self, received: Dict[int, bytes]) -> List[bytes]:
        """Reconstruct the ``k`` source blocks from any ``k`` received blocks.

        ``received`` maps encoded-block index (0-based, < n) to payload.  If
        more than ``k`` blocks are supplied, data blocks are preferred (they
        are free to use) and the lowest-index parity blocks fill the gaps.

        Raises :class:`FecCodingError` when fewer than ``k`` blocks are
        available or indices are invalid.
        """
        if len(received) < self.k:
            raise FecCodingError(
                f"need at least k={self.k} blocks to decode, got {len(received)}"
            )
        for index in received:
            if not 0 <= index < self.n:
                raise FecCodingError(f"block index {index} outside [0, {self.n})")

        data_indices = sorted(i for i in received if i < self.k)
        parity_indices = sorted(i for i in received if i >= self.k)

        # Fast path: every source block arrived — no algebra needed.
        if len(data_indices) == self.k:
            return [bytes(received[i]) for i in range(self.k)]

        chosen = (data_indices + parity_indices)[: self.k]
        chosen.sort()
        batch = _as_batch([received[i] for i in chosen])

        sources: List[Optional[bytes]] = [None] * self.k
        # Received source blocks are already correct; only reconstruct the
        # missing ones (each missing source is one row of the decode matrix).
        for i in chosen:
            if i < self.k:
                sources[i] = bytes(received[i])
        missing, rows = _repair_rows(self.k, self.n, tuple(chosen))
        if missing:
            recovered = self.backend.apply_matrix(rows, batch)
            for slot, source_index in enumerate(missing):
                sources[source_index] = recovered[slot].tobytes()
        return [block for block in sources if block is not None]

    def decode_batch(self, indices: Sequence[int], blocks: np.ndarray) -> np.ndarray:
        """Reconstruct the (k, L) source batch from any ``k`` encoded rows.

        ``blocks`` is a (k, L) ``uint8`` array whose row j is the encoded
        block with index ``indices[j]``.  Returns the source blocks in source
        order; rows that arrived verbatim are copied, the rest come from one
        backend product with the relevant decode-matrix rows.
        """
        blocks = np.asarray(blocks)
        if blocks.dtype != np.uint8:
            raise FecCodingError(f"block batch must be uint8, got {blocks.dtype}")
        if blocks.ndim != 2 or blocks.shape[0] != self.k:
            raise FecCodingError(
                f"block batch must have shape ({self.k}, L), got {blocks.shape}"
            )
        order = [int(i) for i in indices]
        if len(order) != self.k:
            raise FecCodingError(
                f"exactly k={self.k} indices are required, got {len(order)}"
            )
        if len(set(order)) != len(order):
            raise FecCodingError("received indices must be distinct")
        for index in order:
            if not 0 <= index < self.n:
                raise FecCodingError(f"block index {index} outside [0, {self.n})")

        sources = np.empty((self.k, blocks.shape[1]), dtype=np.uint8)
        for slot, index in enumerate(order):
            if index < self.k:
                sources[index] = blocks[slot]
        missing, rows = _repair_rows(self.k, self.n, tuple(sorted(order)))
        if missing:
            # The decode matrix expects its input rows in sorted-index order.
            sort_order = np.argsort(order, kind="stable")
            sorted_batch = np.ascontiguousarray(blocks[sort_order])
            recovered = self.backend.apply_matrix(rows, sorted_batch)
            for slot, source_index in enumerate(missing):
                sources[source_index] = recovered[slot]
        return sources

    def can_decode(self, received_indices: Sequence[int]) -> bool:
        """True when the given set of received indices suffices to decode."""
        unique = {i for i in received_indices if 0 <= i < self.n}
        return len(unique) >= self.k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockErasureCode(k={self.k}, n={self.n}, "
            f"backend={self.backend.name!r})"
        )


def encode_blocks(
    source_blocks: Sequence[bytes],
    k: int,
    n: int,
    backend: Union[str, GFBackend, None] = None,
) -> List[bytes]:
    """One-shot convenience wrapper around :meth:`BlockErasureCode.encode`."""
    return BlockErasureCode(k, n, backend=backend).encode(source_blocks)


def decode_blocks(
    received: Dict[int, bytes],
    k: int,
    n: int,
    backend: Union[str, GFBackend, None] = None,
) -> List[bytes]:
    """One-shot convenience wrapper around :meth:`BlockErasureCode.decode`."""
    return BlockErasureCode(k, n, backend=backend).decode(received)
