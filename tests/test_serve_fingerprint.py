"""Fingerprint tests: identity, sensitivity, structural digests."""

from __future__ import annotations

import numpy as np

from repro.formats import CSRMatrix
from repro.serve import fingerprint, structural_digest

from tests.conftest import random_csr


class TestFingerprint:
    def test_deterministic(self, rng) -> None:
        matrix = random_csr(rng)
        assert fingerprint(matrix) == fingerprint(matrix)

    def test_equal_for_identical_copies(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense)
        b = CSRMatrix.from_dense(paper_dense.copy())
        assert fingerprint(a) == fingerprint(b)
        assert hash(fingerprint(a)) == hash(fingerprint(b))

    def test_value_change_changes_digest(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense)
        changed = paper_dense.copy()
        changed[0, 0] = 42.0
        b = CSRMatrix.from_dense(changed)
        # Same structure, different values: scalars agree, digest differs.
        assert fingerprint(a).shape == fingerprint(b).shape
        assert fingerprint(a).nnz == fingerprint(b).nnz
        assert fingerprint(a) != fingerprint(b)

    def test_structure_change_changes_digest(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense)
        moved = paper_dense.copy()
        moved[0, 1] = 0.0
        moved[0, 2] = 5.0  # same value set, different column
        b = CSRMatrix.from_dense(moved)
        assert fingerprint(a) != fingerprint(b)

    def test_dtype_distinguishes(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense.astype(np.float64))
        b = CSRMatrix.from_dense(paper_dense.astype(np.float32))
        assert fingerprint(a) != fingerprint(b)

    def test_distinct_across_random_pool(self, rng) -> None:
        prints = {
            fingerprint(random_csr(rng, n_rows=30 + i)) for i in range(25)
        }
        assert len(prints) == 25

    def test_is_usable_as_dict_key(self, rng) -> None:
        matrix = random_csr(rng)
        table = {fingerprint(matrix): "plan"}
        assert table[fingerprint(matrix)] == "plan"

    def test_str_is_compact(self, paper_csr) -> None:
        text = str(fingerprint(paper_csr))
        assert "4x4" in text and "9nnz" in text


class TestStructuralDigest:
    def test_values_do_not_matter(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense)
        scaled = CSRMatrix.from_dense(paper_dense * 3.5)
        assert structural_digest(a) == structural_digest(scaled)
        assert fingerprint(a) != fingerprint(scaled)

    def test_structure_matters(self, paper_dense) -> None:
        a = CSRMatrix.from_dense(paper_dense)
        moved = paper_dense.copy()
        moved[3, 0] = 1.0
        b = CSRMatrix.from_dense(moved)
        assert structural_digest(a) != structural_digest(b)


def _tobytes_digests(matrix: CSRMatrix) -> tuple:
    """(value digest, structural digest) through ``.tobytes()`` copies —
    the byte stream the buffer-protocol hashing must reproduce."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(matrix.ptr).tobytes())
    h.update(np.ascontiguousarray(matrix.indices).tobytes())
    structural = h.hexdigest()
    h.update(np.ascontiguousarray(matrix.data).tobytes())
    return h.hexdigest(), structural


class TestCopyFreeHashing:
    def test_digests_match_tobytes(self, rng) -> None:
        for matrix in (
            random_csr(rng, n_rows=60, n_cols=50),
            random_csr(rng, n_rows=7, n_cols=9, dtype=np.float32),
            CSRMatrix.from_dense(np.zeros((3, 4))),
        ):
            digest, structural = _tobytes_digests(matrix)
            fp = fingerprint(matrix)
            assert fp.digest == digest
            assert fp.structural == structural == structural_digest(matrix)

    def test_non_contiguous_views_hash_their_values(self, rng) -> None:
        base = random_csr(rng, n_rows=30, n_cols=30)
        # Every array a strided view into a twice-as-long buffer.
        def strided(a: np.ndarray) -> np.ndarray:
            wide = np.zeros(2 * a.shape[0], dtype=a.dtype)
            wide[::2] = a
            return wide[::2]

        view = CSRMatrix._from_validated(
            strided(base.ptr), strided(base.indices), strided(base.data),
            base.shape,
        )
        assert not view.data.flags.c_contiguous
        assert fingerprint(view) == fingerprint(base)
        digest, structural = _tobytes_digests(view)
        assert fingerprint(view).digest == digest
        assert structural_digest(view) == structural
