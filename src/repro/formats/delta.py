"""Structure deltas: incremental edits to a CSR matrix and its operands.

SMAT's premise is that format choice follows structure, but real
workloads — dynamic graphs, AMG hierarchies under remeshing — mutate that
structure incrementally.  This module is the storage half of the delta
path: :func:`apply_delta` splices an edge insert/delete schedule into a
canonical CSR matrix without re-sorting the untouched entries, and
:func:`patch_operand` carries the same edit into an already-converted
operand (ELL, DIA, ...) in place of a from-scratch reconversion.

Two invariants anchor everything downstream:

* **Bitwise equality.**  A patched operand must be indistinguishable from
  ``convert(new_csr, fmt)`` — same arrays, same padding zeros, same
  dtypes.  The differential sweep in ``tests/test_delta_formats.py``
  asserts this across every format and 200 seeds, so the serving layer
  may treat "patched" and "rebuilt" plans as the same object.
* **Exact effect accounting.**  The :class:`DeltaEffect` returned with
  the new matrix lists exactly which stored entries appeared, vanished,
  or changed value — the O(delta) feed for
  :class:`repro.features.incremental.DeltaFeatures` and for the per-row
  operand patchers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import FormatError
from repro.formats.base import SparseMatrix
from repro.formats.convert import convert, csr_to_coo
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.types import INDEX_DTYPE, FormatName
from repro.util.events import EventCounter

#: Ticks once per in-place operand patch (rebuild fallbacks do not count;
#: they tick ``CONVERSION_EVENTS`` instead).  The serving layer reads this
#: meter to prove the migration policy actually avoided reconversions.
PATCH_EVENTS = EventCounter("operand_patches")


@dataclass(frozen=True)
class StructureDelta:
    """One batch of structural edits against a fixed-shape CSR matrix.

    Deletions name stored entries by coordinate and MUST exist in the
    base matrix (a missing coordinate raises :class:`FormatError` — a
    silent no-op would let the feature maintenance drift).  Insertions
    at a coordinate that survives deletion *sum* into the stored value,
    mirroring the duplicate-summing of :meth:`CSRMatrix.from_triplets`;
    a coordinate both deleted and inserted ends up holding exactly the
    inserted value.
    """

    insert_rows: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE)
    )
    insert_cols: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE)
    )
    insert_vals: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    delete_rows: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE)
    )
    delete_cols: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE)
    )

    @property
    def size(self) -> int:
        """Edit count: inserted plus deleted coordinates."""
        return int(self.insert_rows.shape[0] + self.delete_rows.shape[0])


@dataclass(frozen=True)
class DeltaEffect:
    """Exactly which stored entries a delta created, destroyed, or changed.

    ``added_*`` lists genuinely-new stored entries (insertions that did
    not collide with a surviving entry), ``removed_*`` lists entries that
    existed before and do not after, and ``updated_*`` lists entries that
    exist on both sides with a different value (insertion summed into a
    survivor).  Feature maintenance consumes added/removed (updates do
    not move any structural parameter); operand patchers consume all
    three.
    """

    shape: Tuple[int, int]
    added_rows: np.ndarray
    added_cols: np.ndarray
    removed_rows: np.ndarray
    removed_cols: np.ndarray
    updated_rows: np.ndarray
    updated_cols: np.ndarray

    @property
    def size(self) -> int:
        return int(
            self.added_rows.shape[0]
            + self.removed_rows.shape[0]
            + self.updated_rows.shape[0]
        )

    @property
    def structural_size(self) -> int:
        """Entries that appeared or vanished (what migration policy keys on)."""
        return int(self.added_rows.shape[0] + self.removed_rows.shape[0])

    def added_offsets(self) -> np.ndarray:
        """Diagonal offsets (col - row) of the genuinely-new entries."""
        return self.added_cols.astype(np.int64) - self.added_rows.astype(
            np.int64
        )

    def removed_offsets(self) -> np.ndarray:
        """Diagonal offsets (col - row) of the removed entries."""
        return self.removed_cols.astype(np.int64) - self.removed_rows.astype(
            np.int64
        )

    def inverse(self) -> "DeltaEffect":
        """The effect that undoes this one (added and removed swapped;
        value updates carry no structure, so they stay as they are)."""
        return replace(
            self,
            added_rows=self.removed_rows,
            added_cols=self.removed_cols,
            removed_rows=self.added_rows,
            removed_cols=self.added_cols,
        )

    def touched_rows(self) -> np.ndarray:
        """Sorted distinct rows whose stored content changed in any way."""
        return np.unique(
            np.concatenate(
                [self.added_rows, self.removed_rows, self.updated_rows]
            )
        )


def apply_delta(
    matrix: CSRMatrix, delta: StructureDelta
) -> Tuple[CSRMatrix, DeltaEffect]:
    """Splice a delta into a canonical CSR matrix without re-sorting it.

    Only the rows the delta names are searched: their stored entries are
    found through ``ptr`` and keyed ``row * n + col`` (already sorted,
    since the rows are canonical), so deletions, collisions and insert
    points are binary searches over those rows alone.  The untouched
    entries are carried over byte-for-byte through one-byte masks, and
    ``ptr`` shifts by the per-row count changes.  Work is ``O(delta log
    delta + touched-row entries)`` plus that masked copy and the
    ``O(m)`` pointer shift; no ``nnz``-length key or index array is
    built, so the transient peak stays below the new matrix's own size.
    """
    m, n = matrix.shape
    ins_rows = np.asarray(delta.insert_rows, dtype=INDEX_DTYPE)
    ins_cols = np.asarray(delta.insert_cols, dtype=INDEX_DTYPE)
    ins_vals = np.asarray(delta.insert_vals, dtype=matrix.dtype)
    del_rows = np.asarray(delta.delete_rows, dtype=INDEX_DTYPE)
    del_cols = np.asarray(delta.delete_cols, dtype=INDEX_DTYPE)
    for name, idx, bound in (
        ("insert_rows", ins_rows, m),
        ("insert_cols", ins_cols, n),
        ("delete_rows", del_rows, m),
        ("delete_cols", del_cols, n),
    ):
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= bound):
            raise FormatError(
                f"{name} out of range for shape {matrix.shape}"
            )
    if ins_rows.shape[0] != ins_cols.shape[0] or ins_rows.shape[0] != ins_vals.shape[0]:
        raise FormatError("insert rows/cols/vals must have equal lengths")
    if del_rows.shape[0] != del_cols.shape[0]:
        raise FormatError("delete rows/cols must have equal lengths")

    with obs.span(
        "delta.apply", nnz=int(matrix.nnz), edits=int(delta.size)
    ):
        return _apply_delta(matrix, ins_rows, ins_cols, ins_vals,
                            del_rows, del_cols)


def _row_entries(
    matrix: CSRMatrix, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys, storage positions and per-row start offsets of the entries
    stored in ``rows`` (sorted, distinct).

    ``keys`` is ``row * n + col`` for every entry of those rows in
    storage order — ascending, because the rows are sorted and each row
    is canonical — and ``pos[i]`` is where entry ``i`` sits in
    ``indices``/``data``.  ``local_start[j]`` is where row ``rows[j]``
    begins within ``keys``.
    """
    starts = matrix.ptr[rows]
    degrees = matrix.ptr[rows + 1] - starts
    local_start = np.cumsum(degrees) - degrees
    pos = np.repeat(starts - local_start, degrees) + np.arange(
        int(degrees.sum()), dtype=INDEX_DTYPE
    )
    keys = np.repeat(rows * np.int64(matrix.n_cols), degrees) + (
        matrix.indices[pos]
    )
    return keys, pos, local_start


def _lookup(
    keys: np.ndarray, want: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(pos, hit)``: where each of ``want`` would sit in sorted ``keys``
    and whether it is actually there."""
    pos = np.searchsorted(keys, want)
    hit = np.zeros(want.shape[0], dtype=bool)
    in_range = pos < keys.shape[0]
    hit[in_range] = keys[pos[in_range]] == want[in_range]
    return pos, hit


def _splice(
    old: np.ndarray,
    dropped: np.ndarray,
    before: np.ndarray,
    inserted: np.ndarray,
) -> np.ndarray:
    """A new array: ``old`` without the positions ``dropped``, and with
    ``inserted[k]`` in front of old position ``before[k]`` (both
    ascending).

    The masks are one byte per entry; the only other full-width
    allocation besides the result is the compacted survivors, and only
    when entries are both dropped and inserted.
    """
    kept = old
    if dropped.size:
        keep = np.ones(old.shape[0], dtype=bool)
        keep[dropped] = False
        kept = old[keep]
    if not before.size:
        return old.copy() if kept is old else kept
    # Final positions: shifted back by the drops in front, forward by
    # the earlier inserts.
    at = (
        before
        - np.searchsorted(dropped, before)
        + np.arange(before.shape[0])
    )
    out = np.empty(kept.shape[0] + at.shape[0], dtype=old.dtype)
    slot = np.ones(out.shape[0], dtype=bool)
    slot[at] = False
    out[at] = inserted
    out[slot] = kept
    return out


def _apply_delta(matrix, ins_rows, ins_cols, ins_vals, del_rows, del_cols):
    m, n = matrix.shape
    span = np.int64(n)
    del_keys = np.unique(del_rows.astype(np.int64) * span + del_cols)
    ins_keys = ins_rows.astype(np.int64) * span + ins_cols
    uniq_ins, inverse = np.unique(ins_keys, return_inverse=True)
    summed = np.zeros(uniq_ins.shape[0], dtype=matrix.dtype)
    np.add.at(summed, inverse, ins_vals)

    # -- the touched rows' stored entries, found through ptr -------------
    rows = np.unique(np.concatenate([del_keys // span, uniq_ins // span]))
    keys, pos, local_start = _row_entries(matrix, rows)

    # -- deletions: binary-search each (deduplicated) coordinate ----------
    dpos, valid = _lookup(keys, del_keys)
    if not np.all(valid):
        missing = del_keys[~valid][0] if del_keys.size else -1
        raise FormatError(
            f"delete targets a missing entry at "
            f"(row={int(missing // span)}, col={int(missing % span)})"
        )
    dropped = pos[dpos]  # ascending: keys and positions sort together
    keep = np.ones(keys.shape[0], dtype=bool)
    keep[dpos] = False
    kept_keys = keys[keep]
    kept_pos = pos[keep]

    # -- insertions: duplicates already summed; collide or splice ---------
    cpos, collide = _lookup(kept_keys, uniq_ins)
    survivor = kept_pos[cpos[collide]]

    fresh_keys = uniq_ins[~collide]
    fresh_vals = summed[~collide]
    fresh_rows = fresh_keys // span
    # Old storage position each fresh entry goes in front of: its rank
    # among its own row's entries (deleted ones included), from the row
    # start in ``ptr``.
    local = np.searchsorted(keys, fresh_keys) - local_start[
        np.searchsorted(rows, fresh_rows)
    ]
    before = matrix.ptr[fresh_rows] + local

    indices = _splice(matrix.indices, dropped, before, fresh_keys % span)
    data = _splice(matrix.data, dropped, before, fresh_vals)
    # Collisions sum into their survivors, found at their new positions:
    # shifted back by the drops and forward by the inserts in front.
    data[
        survivor
        - np.searchsorted(dropped, survivor)
        + np.searchsorted(before, survivor, side="right")
    ] += summed[collide]
    change = np.zeros(m + 1, dtype=INDEX_DTYPE)
    np.subtract.at(change, del_keys // span + 1, 1)
    np.add.at(change, fresh_rows + 1, 1)
    ptr = matrix.ptr + np.cumsum(change)
    new_csr = CSRMatrix._from_validated(ptr, indices, data, (m, n))

    effect = DeltaEffect(
        shape=(m, n),
        added_rows=fresh_rows.astype(INDEX_DTYPE),
        added_cols=(fresh_keys % span).astype(INDEX_DTYPE),
        removed_rows=(del_keys // span).astype(INDEX_DTYPE),
        removed_cols=(del_keys % span).astype(INDEX_DTYPE),
        updated_rows=(uniq_ins[collide] // span).astype(INDEX_DTYPE),
        updated_cols=(uniq_ins[collide] % span).astype(INDEX_DTYPE),
    )
    return new_csr, effect


@dataclass(frozen=True)
class PatchResult:
    """One patched (or rebuilt) operand plus how it was produced."""

    matrix: SparseMatrix
    #: ``"patched"`` — edited in O(delta rows) without reconversion;
    #: ``"rebuilt"`` — reconverted from the new CSR (fallback).
    mode: str


def patch_operand(
    operand: SparseMatrix,
    new_csr: CSRMatrix,
    effect: DeltaEffect,
) -> PatchResult:
    """Carry a structure delta into an already-converted operand.

    CSR adopts the new arrays directly; ELL and DIA are patched row- and
    coordinate-wise when their padded geometry survives the delta (same
    width, same diagonal set); every other format — and any geometry
    change — falls back to a from-scratch reconversion through CSR.
    Either way the result is bitwise-identical to
    ``convert(new_csr, operand.format_name)``.
    """
    fmt = operand.format_name
    if fmt is FormatName.CSR:
        PATCH_EVENTS.increment()
        return PatchResult(new_csr, "patched")
    if fmt is FormatName.COO:
        # The expansion is one repeat + two copies — already O(nnz) with
        # a constant far below any reconversion, so "patching" COO is
        # simply re-expanding the spliced CSR arrays.
        PATCH_EVENTS.increment()
        coo, _ = csr_to_coo(new_csr)
        return PatchResult(coo, "patched")
    if fmt is FormatName.ELL and isinstance(operand, ELLMatrix):
        patched = _patch_ell(operand, new_csr, effect)
        if patched is not None:
            PATCH_EVENTS.increment()
            return PatchResult(patched, "patched")
    if fmt is FormatName.DIA and isinstance(operand, DIAMatrix):
        patched = _patch_dia(operand, new_csr, effect)
        if patched is not None:
            PATCH_EVENTS.increment()
            return PatchResult(patched, "patched")
    rebuilt, _ = convert(new_csr, fmt, fill_budget=None)
    return PatchResult(rebuilt, "rebuilt")


def _patch_ell(
    operand: ELLMatrix, new_csr: CSRMatrix, effect: DeltaEffect
) -> Optional[ELLMatrix]:
    """Re-pack only the touched rows; None when the width changed.

    ELL slot positions depend only on each row's own entry order, so an
    untouched row's columns are already bitwise-correct; touched rows are
    zeroed and re-scattered exactly as :func:`csr_to_ell` would lay them
    out.
    """
    degrees = new_csr.row_degrees()
    max_rd = int(degrees.max()) if new_csr.n_rows and new_csr.nnz else 0
    if max_rd != operand.indices.shape[0]:
        return None
    touched = effect.touched_rows()
    indices = operand.indices.copy()
    data = operand.data.copy()
    if touched.size:
        indices[:, touched] = 0
        data[:, touched] = 0
        deg = degrees[touched]
        row_rep = np.repeat(touched, deg)
        starts = np.cumsum(deg) - deg
        slot = np.arange(row_rep.shape[0], dtype=INDEX_DTYPE) - np.repeat(
            starts, deg
        )
        src = np.repeat(new_csr.ptr[touched], deg) + slot
        indices[slot, row_rep] = new_csr.indices[src]
        data[slot, row_rep] = new_csr.data[src]
    return ELLMatrix._from_validated(
        indices, data, new_csr.shape, new_csr.nnz
    )


def _patch_dia(
    operand: DIAMatrix, new_csr: CSRMatrix, effect: DeltaEffect
) -> Optional[DIAMatrix]:
    """Overwrite only the touched coordinates; None when the diagonal set
    changed (a vanished or newborn diagonal reshapes the dense store) or
    the operand carries no per-diagonal entry counts to prove it did not.

    The proof is the conversion's census moved by the effect: an added
    entry on an unstored diagonal is a newborn one, and a count that
    reaches zero is a vanished one.  Final values come from the new CSR's
    touched rows alone (0 where an entry vanished).
    """
    counts = operand.entry_counts
    if counts is None:
        return None
    offsets = operand.offsets
    added_slot, known = _lookup(offsets, effect.added_offsets())
    if not np.all(known):
        return None
    removed_slot, known = _lookup(offsets, effect.removed_offsets())
    if not np.all(known):
        return None
    k = offsets.shape[0]
    new_counts = (
        counts
        + np.bincount(added_slot, minlength=k)
        - np.bincount(removed_slot, minlength=k)
    )
    if k and int(new_counts.min()) <= 0:
        return None
    rows = np.concatenate(
        [effect.added_rows, effect.removed_rows, effect.updated_rows]
    )
    cols = np.concatenate(
        [effect.added_cols, effect.removed_cols, effect.updated_cols]
    )
    data = operand.data.copy()
    if rows.size:
        diag_slot = np.searchsorted(
            offsets, cols.astype(np.int64) - rows.astype(np.int64)
        )
        keys, pos, _ = _row_entries(new_csr, effect.touched_rows())
        at, hit = _lookup(
            keys, rows.astype(np.int64) * np.int64(new_csr.n_cols) + cols
        )
        values = np.zeros(rows.shape[0], dtype=new_csr.dtype)
        values[hit] = new_csr.data[pos[at[hit]]]
        data[diag_slot, rows] = values
    return DIAMatrix._from_validated(
        offsets.copy(), data, new_csr.shape, new_counts
    )


def rebuild_operand(
    new_csr: CSRMatrix, fmt: FormatName
) -> SparseMatrix:
    """From-scratch reconversion (the reference the sweep compares against)."""
    rebuilt, _ = convert(new_csr, fmt, fill_budget=None)
    return rebuilt
