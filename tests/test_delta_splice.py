"""Touched-row splice, running diagonal census and DIA geometry checks.

:func:`apply_delta` searches only the rows a delta names, and
:class:`DeltaFeatures` / the DIA patcher keep their diagonal censuses
current from the delta's own edits.  Each case here is pinned against a
from-scratch answer: the spliced CSR must be bitwise equal to a
:meth:`CSRMatrix.from_triplets` rebuild, the maintained step-one
features equal to a fresh extraction, and the DIA patcher must fall back
to a rebuild exactly when a diagonal appears or vanishes.  Values are
small integers, so every sum is exact on both sides.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.collection import generate_collection
from repro.collection.banded import banded_matrix
from repro.errors import FormatError
from repro.features.extract import (
    TRUE_DIAGONAL_THRESHOLD,
    extract_features,
    extract_structure_features,
)
from repro.features.incremental import DeltaFeatures
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.formats.delta import StructureDelta, apply_delta, patch_operand
from repro.formats.dia import DIAMatrix
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.serve import ServeConfig, ServingEngine
from repro.serve.faults import FaultPlan, FaultRule, InjectedFatalFault
from repro.tuner import SMAT
from repro.types import INDEX_DTYPE, FormatName, Precision

from tests.test_delta_formats import _random_delta
from tests.test_properties_differential import (
    _structure_for,
    with_dyadic_data,
)


def _delta(inserts=(), deletes=()) -> StructureDelta:
    """A delta from ``[(row, col, value)]`` inserts and ``[(row, col)]``
    deletes."""
    ins = np.asarray(inserts, dtype=np.float64).reshape(-1, 3)
    dels = np.asarray(deletes, dtype=INDEX_DTYPE).reshape(-1, 2)
    return StructureDelta(
        insert_rows=ins[:, 0].astype(INDEX_DTYPE),
        insert_cols=ins[:, 1].astype(INDEX_DTYPE),
        insert_vals=ins[:, 2].copy(),
        delete_rows=dels[:, 0].copy(),
        delete_cols=dels[:, 1].copy(),
    )


def _rebuild(base: CSRMatrix, delta: StructureDelta) -> CSRMatrix:
    """The post-delta matrix from triplets: survivors plus inserts."""
    rows = np.repeat(np.arange(base.n_rows, dtype=INDEX_DTYPE),
                     base.row_degrees())
    gone = set(zip(delta.delete_rows.tolist(), delta.delete_cols.tolist()))
    keep = np.array(
        [(r, c) not in gone for r, c in zip(rows.tolist(),
                                            base.indices.tolist())],
        dtype=bool,
    )
    return CSRMatrix.from_triplets(
        np.concatenate([rows[keep], delta.insert_rows]),
        np.concatenate([base.indices[keep], delta.insert_cols]),
        np.concatenate([base.data[keep], delta.insert_vals]),
        base.shape,
    )


def _assert_spliced(base: CSRMatrix, delta: StructureDelta) -> CSRMatrix:
    new_csr, effect = apply_delta(base, delta)
    expected = _rebuild(base, delta)
    for name in ("ptr", "indices", "data"):
        got, want = getattr(new_csr, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
        # The new matrix owns its arrays: no aliasing into the base.
        assert not np.shares_memory(got, getattr(base, name)), name
    assert (
        new_csr.nnz
        == base.nnz + effect.added_rows.shape[0] - effect.removed_rows.shape[0]
    )
    return new_csr


def _small() -> CSRMatrix:
    """5x6, row 2 empty, every other row non-empty."""
    dense = np.array(
        [
            [1, 0, 2, 0, 0, 0],
            [0, 3, 0, 4, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [5, 0, 0, 6, 0, 7],
            [0, 8, 0, 0, 9, 0],
        ],
        dtype=np.float64,
    )
    return CSRMatrix.from_dense(dense)


class TestSplice:
    def test_insert_into_empty_row(self) -> None:
        _assert_spliced(_small(), _delta(inserts=[(2, 4, 10)]))

    def test_insert_after_row_end_before_untouched_rows(self) -> None:
        # Row 1 ends at column 3; rows 2-4 are untouched (2 empty,
        # 3 and 4 not) and must shift intact.
        _assert_spliced(_small(), _delta(inserts=[(1, 5, 10)]))

    def test_inserts_at_first_and_last_coordinate(self) -> None:
        base = _small()
        m, n = base.shape
        # (0, 0) is stored already (a collision that sums); (m-1, n-1)
        # is not (a fresh entry after the last stored one).
        new_csr = _assert_spliced(
            base, _delta(inserts=[(0, 0, 10), (m - 1, n - 1, 11)])
        )
        assert new_csr.data[0] == 11 and new_csr.indices[-1] == n - 1
        # A fresh entry between a row's first and second entries.
        new_csr = _assert_spliced(base, _delta(inserts=[(0, 1, 3)]))
        assert new_csr.indices[:3].tolist() == [0, 1, 2]

    def test_delete_every_entry_of_a_row(self) -> None:
        new_csr = _assert_spliced(
            _small(), _delta(deletes=[(3, 0), (3, 3), (3, 5)])
        )
        assert new_csr.row_degrees()[3] == 0

    def test_delete_and_reinsert_same_coordinate(self) -> None:
        base = _small()
        new_csr = _assert_spliced(
            base, _delta(inserts=[(3, 3, 20)], deletes=[(3, 3)])
        )
        assert new_csr.to_dense()[3, 3] == 20
        _, effect = apply_delta(
            base, _delta(inserts=[(3, 3, 20)], deletes=[(3, 3)])
        )
        assert effect.removed_rows.tolist() == [3]
        assert effect.added_rows.tolist() == [3]
        assert effect.updated_rows.size == 0

    def test_duplicate_inserts_sum(self) -> None:
        base = _small()
        new_csr = _assert_spliced(
            base,
            _delta(inserts=[(2, 1, 1), (2, 1, 2), (4, 4, 5), (4, 4, 6)]),
        )
        dense = new_csr.to_dense()
        assert dense[2, 1] == 3 and dense[4, 4] == 9 + 5 + 6

    def test_empty_delta(self) -> None:
        base = _small()
        new_csr = _assert_spliced(base, StructureDelta())
        assert new_csr.nnz == base.nnz

    def test_zero_nnz_matrix(self) -> None:
        empty = CSRMatrix.from_dense(np.zeros((4, 3)))
        assert _assert_spliced(empty, StructureDelta()).nnz == 0
        assert DeltaFeatures(empty).structure_snapshot() == (
            extract_structure_features(empty)
        )
        grown = _assert_spliced(
            empty, _delta(inserts=[(3, 2, 1), (0, 0, 2), (3, 2, 4)])
        )
        assert grown.nnz == 2

    def test_missing_delete_raises_with_coordinate(self) -> None:
        with pytest.raises(
            FormatError,
            match=r"^delete targets a missing entry at \(row=2, col=4\)$",
        ):
            apply_delta(_small(), _delta(deletes=[(3, 3), (2, 4)]))
        with pytest.raises(FormatError, match=r"\(row=0, col=0\)"):
            apply_delta(
                CSRMatrix.from_dense(np.zeros((2, 2))), _delta(deletes=[(0, 0)])
            )

    @pytest.mark.parametrize("seed", range(40))
    def test_random_deltas_match_triplet_rebuild(self, seed: int) -> None:
        rng = np.random.default_rng(50_000 + seed)
        structure = _structure_for(seed)
        base = CSRMatrix(
            structure.ptr,
            structure.indices,
            rng.integers(1, 9, size=structure.nnz).astype(np.float64),
            structure.shape,
        )
        kind = ("insert", "delete", "mixed")[seed % 3]
        _assert_spliced(base, _random_delta(base, rng, kind))


# ---------------------------------------------------------------------------
# Running diagonal census and DIA geometry
# ---------------------------------------------------------------------------
def _diagonal(m: int, offset: int, rows) -> list:
    return [(r, r + offset) for r in rows if 0 <= r + offset < m]


def _check_step(feats, operand, matrix, delta):
    """Apply one delta; check the census and the DIA patch decision."""
    new_csr, effect = apply_delta(matrix, delta)
    feats.apply(effect)
    assert feats.structure_snapshot() == extract_structure_features(new_csr)
    changed = not np.array_equal(
        matrix.diagonal_offsets(), new_csr.diagonal_offsets()
    )
    result = patch_operand(operand, new_csr, effect)
    assert result.mode == ("rebuilt" if changed else "patched")
    rebuilt, _ = convert(new_csr, FormatName.DIA, fill_budget=None)
    assert np.array_equal(result.matrix.offsets, rebuilt.offsets)
    assert np.array_equal(result.matrix.data, rebuilt.data)
    assert result.matrix.entry_counts.dtype == rebuilt.entry_counts.dtype
    assert np.array_equal(result.matrix.entry_counts, rebuilt.entry_counts)
    return new_csr, result.matrix, changed


def test_census_crosses_threshold_and_diagonals_come_and_go() -> None:
    m = 20
    matrix = CSRMatrix.from_triplets(
        np.arange(m), np.arange(m), np.ones(m), (m, m)
    )
    feats = DeltaFeatures(matrix)
    operand, _ = convert(matrix, FormatName.DIA, fill_budget=None)
    # Offset +3 has 17 slots: 11 entries = 0.647 (true), 10 = 0.588.
    length = m - 3
    assert 10 / length < TRUE_DIAGONAL_THRESHOLD <= 11 / length
    steps = [
        # A new diagonal, born below the threshold.
        _delta(inserts=[(r, c, 1) for r, c in _diagonal(m, 3, range(4))]),
        # Grows across the threshold (4 -> 11 of 17: true).
        _delta(inserts=[(r, c, 2) for r, c in _diagonal(m, 3, range(4, 11))]),
        # Value-only edit: no structure moves, patched in place.
        _delta(inserts=[(0, 3, 5)]),
        # Drops back under (11 -> 10) while offset -5 is born.
        _delta(inserts=[(5, 0, 1)], deletes=_diagonal(m, 3, [10])),
        # Back over (10 -> 11) with a delete on the main diagonal: no
        # diagonal appears or vanishes.
        _delta(inserts=[(10, 13, 1)], deletes=[(0, 0)]),
        # Empties the +3 and -5 diagonals entirely.
        _delta(deletes=_diagonal(m, 3, range(11)) + [(5, 0)]),
    ]
    ntrue = []
    changes = []
    for delta in steps:
        matrix, operand, changed = _check_step(feats, operand, matrix, delta)
        ntrue.append(feats.structure_snapshot()["ntdiags_ratio"])
        changes.append(changed)
    # The sequence really exercised both threshold directions and both
    # geometry changes (birth and death of a diagonal).
    assert any(b > a for a, b in zip(ntrue, ntrue[1:]))
    assert any(b < a for a, b in zip(ntrue, ntrue[1:]))
    assert changes == [True, False, False, True, False, True]
    assert feats.structure_snapshot()["ndiags"] == 1
    assert feats.snapshot() == extract_features(matrix)


@pytest.mark.parametrize("seed", range(0, 48, 3))
def test_random_sequences_keep_census_and_geometry(seed: int) -> None:
    rng = np.random.default_rng(60_000 + seed)
    matrix = with_dyadic_data(_structure_for(seed), rng)
    feats = DeltaFeatures(matrix)
    operand, _ = convert(matrix, FormatName.DIA, fill_budget=None)
    for step in range(5):
        kind = ("insert", "delete", "mixed")[(seed + step) % 3]
        delta = _random_delta(matrix, rng, kind)
        matrix, operand, _ = _check_step(feats, operand, matrix, delta)


def test_dia_without_entry_counts_is_rebuilt() -> None:
    base = banded_matrix(40, 3, seed=1)
    converted, _ = convert(base, FormatName.DIA, fill_budget=None)
    bare = DIAMatrix(converted.offsets, converted.data, converted.shape)
    assert bare.entry_counts is None
    rng = np.random.default_rng(3)
    new_csr, effect = apply_delta(base, _random_delta(base, rng, "delete"))
    result = patch_operand(bare, new_csr, effect)
    assert result.mode == "rebuilt"
    assert result.matrix.entry_counts is not None


def test_value_refresh_keeps_entry_counts() -> None:
    base = banded_matrix(40, 3, seed=2)
    dia, _ = convert(base, FormatName.DIA, fill_budget=None)
    doubled = CSRMatrix(base.ptr, base.indices, base.data * 2, base.shape)
    refreshed = dia.refresh_values(doubled)
    assert np.array_equal(refreshed.entry_counts, dia.entry_counts)


# ---------------------------------------------------------------------------
# Allocation guard
# ---------------------------------------------------------------------------
def test_apply_delta_allocates_under_two_and_a_half_matrices() -> None:
    """A 0.2%-of-nnz delta on a ~200k-nnz banded matrix must not build
    nnz-length key or index arrays: the traced peak stays within 2.5x
    the new CSR's own bytes (the new arrays are part of the peak)."""
    base = banded_matrix(22_000, 9, seed=7)
    assert 180_000 <= base.nnz <= 220_000
    rng = np.random.default_rng(7)
    edits = max(2, base.nnz // 500)
    row_of = np.repeat(np.arange(base.n_rows), base.row_degrees())
    picks = rng.choice(base.nnz, size=edits // 2, replace=False)
    delta = StructureDelta(
        insert_rows=rng.integers(0, base.n_rows, edits // 2).astype(INDEX_DTYPE),
        insert_cols=rng.integers(0, base.n_cols, edits // 2).astype(INDEX_DTYPE),
        insert_vals=rng.standard_normal(edits // 2),
        delete_rows=row_of[picks].astype(INDEX_DTYPE),
        delete_cols=base.indices[picks].copy(),
    )
    del row_of, picks
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        new_csr, _ = apply_delta(base, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    new_bytes = new_csr.ptr.nbytes + new_csr.indices.nbytes + new_csr.data.nbytes
    assert peak <= 2.5 * new_bytes, (peak, new_bytes, peak / new_bytes)


# ---------------------------------------------------------------------------
# A failed delta leaves the caller's features on the pre-delta matrix
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def smat() -> SMAT:
    backend = SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)
    return SMAT.train(
        generate_collection(scale=0.04, size_scale=0.3, seed=78),
        backend=backend,
    )


def test_failed_delta_does_not_advance_features(smat) -> None:
    matrix = banded_matrix(300, 5, seed=11)
    rng = np.random.default_rng(11)
    delta = _random_delta(matrix, rng, "mixed")
    feats = DeltaFeatures(matrix)
    before = feats.snapshot()
    faults = FaultPlan(
        [FaultRule(site="decide", kind="fatal", start=0, stop=1)],
        sleep=lambda _: None,
    )
    with ServingEngine(smat, ServeConfig(workers=1), faults=faults) as engine:
        # No resident plan, so the delta retunes and the retune's
        # decision fails.
        with pytest.raises(InjectedFatalFault):
            engine.apply_structure_delta(matrix, delta, features=feats)
        assert feats.snapshot() == before == extract_features(matrix)
        # The rolled-back features still follow the next delta exactly.
        outcome = engine.apply_structure_delta(matrix, delta, features=feats)
    assert feats.snapshot() == extract_features(outcome.matrix)
