"""Systematic Vandermonde generator matrices (Rizzo-style erasure codes).

An (n, k) block erasure code converts k source packets into n encoded
packets such that *any* k of the n suffice to reconstruct the sources.  The
paper uses these codes (citing Rizzo [20]) for its FEC audio proxy.

The construction here follows Rizzo's: start from an n x k Vandermonde
matrix V with V[i][j] = alpha^(i*j) (rows are guaranteed to be pairwise
linearly independent), then post-multiply by the inverse of its top k x k
block so the first k rows become the identity.  The resulting *systematic*
generator matrix G has the properties we need:

* encoded packet i (< k) is literally source packet i — receivers that lose
  nothing never run the decoder;
* any k rows of G form an invertible matrix, so any k received packets can
  reconstruct the sources.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from .gf256 import FIELD_SIZE, gf_pow
from .matrix import GFMatrix

#: The largest supported number of encoded packets per group.  The
#: Vandermonde construction needs n distinct powers of alpha, which caps n
#: at the size of the multiplicative group.
MAX_GROUP_SIZE = FIELD_SIZE - 1


def validate_parameters(k: int, n: int) -> None:
    """Validate (n, k) code parameters, raising ``ValueError`` otherwise."""
    if k < 1:
        raise ValueError(f"k must be >= 1 (got {k})")
    if n < k:
        raise ValueError(f"n must be >= k (got n={n}, k={k})")
    if n > MAX_GROUP_SIZE:
        raise ValueError(f"n must be <= {MAX_GROUP_SIZE} (got {n})")


def vandermonde_matrix(k: int, n: int) -> GFMatrix:
    """The raw n x k Vandermonde matrix with entries alpha^(i*j)."""
    validate_parameters(k, n)
    return GFMatrix([[gf_pow(_alpha_for_row(i), j) for j in range(k)]
                     for i in range(n)])


def _alpha_for_row(i: int) -> int:
    """The evaluation point used for encoded packet ``i``.

    Row i evaluates the data polynomial at alpha^i; using i = 0..n-1 keeps
    the points distinct for all supported n.
    """
    return gf_pow(2, i) if i > 0 else 1


def systematic_generator_matrix(k: int, n: int) -> GFMatrix:
    """Return the systematic n x k generator matrix for an (n, k) code.

    The first k rows are the identity; the remaining n - k rows produce the
    parity packets.  Results are cached because proxies repeatedly encode
    with the same (n, k); the returned matrix is a private copy (GFMatrix is
    mutable, and the memoised instance must stay pristine).
    """
    return GFMatrix(_systematic_generator_matrix_cached(k, n).rows())


@lru_cache(maxsize=None)
def _systematic_generator_matrix_cached(k: int, n: int) -> GFMatrix:
    """Memoised construction; read-only internal callers use this directly."""
    validate_parameters(k, n)
    vand = vandermonde_matrix(k, n)
    top = vand.submatrix(range(k))
    systematic = vand.multiply(top.inverse())
    # Sanity check the construction: the data rows must be the identity.
    if not systematic.submatrix(range(k)).is_identity():
        raise AssertionError("systematic construction failed to yield identity rows")
    return systematic


def parity_rows(k: int, n: int) -> List[List[int]]:
    """The n - k parity rows of the systematic generator matrix."""
    generator = _systematic_generator_matrix_cached(k, n)
    return [generator.row(i) for i in range(k, n)]


def decoding_matrix(k: int, n: int, received_indices: List[int]) -> GFMatrix:
    """Matrix that reconstructs the k source packets from the given rows.

    ``received_indices`` identifies which k of the n encoded packets were
    received (in the order their payloads will be supplied).  The returned
    k x k matrix, multiplied by the received payload vector, yields the
    original source packets.
    """
    validate_parameters(k, n)
    if len(received_indices) != k:
        raise ValueError(
            f"exactly k={k} received indices are required (got {len(received_indices)})")
    if len(set(received_indices)) != len(received_indices):
        raise ValueError("received indices must be distinct")
    for index in received_indices:
        if not 0 <= index < n:
            raise ValueError(f"index {index} outside [0, {n})")
    cached = _decoding_matrix_cached(k, n, tuple(received_indices))
    # Defensive copy: GFMatrix is mutable, and handing out the memoised
    # instance would let a caller poison every future decode of the pattern.
    return GFMatrix(cached.rows())


@lru_cache(maxsize=4096)
def _decoding_matrix_cached(k: int, n: int, received_indices: "tuple[int, ...]"
                            ) -> GFMatrix:
    """The Gauss–Jordan inversion is O(k^3) scalar field ops; streams decode
    the same erasure patterns over and over, so the result is memoised.

    Internal callers that only *read* the matrix may use this directly to
    skip the defensive copy made by :func:`decoding_matrix`."""
    generator = _systematic_generator_matrix_cached(k, n)
    return generator.submatrix(received_indices).inverse()


@lru_cache(maxsize=4096)
def _repair_rows(k: int, n: int, chosen: "tuple[int, ...]"
                 ) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """The source indices missing from the sorted received ``chosen`` and
    the decode-matrix rows that rebuild them, as one tuple of tuples — the
    hashable form a backend resolves to its lookup table once per
    pattern."""
    matrix = _decoding_matrix_cached(k, n, chosen)
    missing = tuple(i for i in range(k) if i not in chosen)
    return missing, tuple(tuple(matrix.row(i)) for i in missing)
