"""Matrix fingerprints: cache keys for tuned SpMV plans.

SMAT's decision is a function of the matrix alone, so a serving layer can
key "decision + converted matrix" by a digest of the matrix.  The
fingerprint has two parts:

* cheap scalars (shape, nnz, dtype) that reject most non-matches without
  hashing anything, and
* a BLAKE2b digest over the CSR arrays — the row pointer (structure), the
  column indices (pattern) and the value bytes.

Values are included deliberately: the cache stores the *converted matrix*,
so two matrices with identical structure but different values must not
collide (they would silently serve each other's products).  Hashing runs at
memory bandwidth, a fraction of one feature-extraction pass — see
DESIGN.md's plan-cache section for the cost accounting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.formats.csr import CSRMatrix

#: Digest size in bytes.  16 bytes (128 bits) makes accidental collisions
#: astronomically unlikely at any realistic cache population.
_DIGEST_SIZE = 16


@dataclass(frozen=True)
class StructureKey:
    """Tier-2 cache key: the identity of a sparsity *structure*.

    Two matrices share a StructureKey exactly when they have the same
    shape, dtype and ptr/indices arrays — the case where a cached tuning
    decision carries over and only the value arrays need refreshing.
    """

    shape: Tuple[int, int]
    nnz: int
    dtype: str
    digest: str

    def __str__(self) -> str:
        m, n = self.shape
        return f"{m}x{n}/{self.nnz}nnz/{self.dtype}/~{self.digest[:10]}"


@dataclass(frozen=True)
class Fingerprint:
    """A compact, hashable identity for one CSR matrix."""

    shape: Tuple[int, int]
    nnz: int
    dtype: str
    digest: str
    #: Structure-only digest (ptr + indices, no values); empty for
    #: fingerprints minted before the two-tier cache existed.
    structural: str = ""

    @property
    def structure_key(self) -> Optional[StructureKey]:
        """The tier-2 key this fingerprint belongs under, if known."""
        if not self.structural:
            return None
        return StructureKey(self.shape, self.nnz, self.dtype, self.structural)

    def __str__(self) -> str:
        m, n = self.shape
        return f"{m}x{n}/{self.nnz}nnz/{self.dtype}/{self.digest[:10]}"


def fingerprint(matrix: CSRMatrix) -> Fingerprint:
    """Fingerprint a CSR matrix (one streaming pass over its arrays).

    The structural digest comes for free: the hash state after ptr and
    indices is forked before the value bytes are folded in, so one pass
    yields both the value-inclusive tier-1 key and the structure-only
    tier-2 key.
    """
    h = _structure_hash(matrix)
    structural = h.copy()
    h.update(np.ascontiguousarray(matrix.data))
    return Fingerprint(
        shape=matrix.shape,
        nnz=matrix.nnz,
        dtype=str(matrix.dtype),
        digest=h.hexdigest(),
        structural=structural.hexdigest(),
    )


def structural_digest(matrix: CSRMatrix) -> str:
    """Digest of the sparsity structure only (ptr + indices, no values).

    Two matrices with the same structural digest get the same tuning
    decision even when their values differ — the structure-keyed tier of
    the plan cache shares decisions across exactly this equivalence, and
    :func:`fingerprint` computes the identical digest as a by-product
    (``fingerprint(m).structural == structural_digest(m)``).
    """
    return _structure_hash(matrix).hexdigest()


def _structure_hash(matrix: CSRMatrix) -> "hashlib.blake2b":
    """BLAKE2b state after ptr and indices.

    The arrays reach the hash through the buffer protocol, so a
    contiguous array (the canonical CSR case) is read in place rather
    than copied by ``.tobytes()``; only a strided view is compacted
    first.  The bytes hashed, and so the digests, are the same.
    """
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(np.ascontiguousarray(matrix.ptr))
    h.update(np.ascontiguousarray(matrix.indices))
    return h
