"""Seeded inputs for the serving benchmark.

Everything a workload sends is generated here, before the clock starts:
matrices, operand vectors, request schedules and whole structure-delta
sequences.  The program under test only ever receives the generated
arrays.  The same ``seed`` gives the same inputs.

Structure deltas are replayed through :func:`repro.formats.delta.apply_delta`
while they are generated (each delta is drawn against the matrix the
previous one produced), and every forward delta carries its exact
inverse.  A client walks a sequence forward and then back ("ping-pong"),
so a run of any length needs only ``len(forward)`` generated deltas and
every visited structure is one of ``len(forward) + 1`` known versions.

:func:`rebuilt_digests` rebuilds each of those versions with plain NumPy
(delete by key, append, sort), independent of ``apply_delta``, so the
post-delta matrices the program returns can be checked against them
outside the timer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.collection import banded, graphs, grids, random_sparse
from repro.formats.csr import CSRMatrix
from repro.formats.delta import StructureDelta, apply_delta
from repro.serve.workload import evolving_graph_delta

FAMILIES = ("banded", "grid", "powerlaw", "random")

#: Share of a matrix's nnz one structure delta edits (half inserts, half
#: deletes).
DELTA_FRACTION = 0.002

#: Size classes.  ``tiny`` exists for the self-test: every workload runs
#: end to end in a few seconds.
SIZES = {
    "full": {
        # hot-zipf pool, in Zipf rank order (rank 1 first).  The four
        # small matrices take ranks 1-4 (79% of the requests), so the
        # median request falls inside their latencies and p90 inside the
        # large ones'.  With grid-200k at rank 1, the median's spread over
        # ten seeds was 0.17 (interquartile range over median).
        "pool": (
            ("random", 48_000), ("grid", 45_000), ("powerlaw", 44_000),
            ("banded", 60_000), ("grid", 200_000), ("powerlaw", 150_000),
            ("random", 180_000), ("banded", 225_000),
        ),
        "graph_powerlaw_nodes": 15_000,
        "graph_banded_rows": 25_000,
        "forward_deltas": 24,
        "write_nnz": 225_000,
        "write_forward_deltas": 8,
        "write_deltas": 200,
        "schedule_len": 50_000,
    },
    "tiny": {
        "pool": (
            ("random", 3_000), ("grid", 3_000), ("powerlaw", 3_000),
            ("banded", 3_000), ("grid", 8_000), ("powerlaw", 6_000),
            ("random", 6_000), ("banded", 9_000),
        ),
        "graph_powerlaw_nodes": 1_500,
        "graph_banded_rows": 2_000,
        "forward_deltas": 4,
        "write_nnz": 9_000,
        "write_forward_deltas": 2,
        "write_deltas": 16,
        "schedule_len": 2_000,
    },
}

#: Operand vectors per served matrix.
OPERANDS_PER_MATRIX = 4

ZIPF_SKEW = 1.1


def family_matrix(
    family: str, nnz: int, rng: np.random.Generator, grid_side: int = 0
) -> CSRMatrix:
    """One matrix of ``family`` with about ``nnz`` stored entries."""
    seed = int(rng.integers(0, 2**31 - 1))
    if family == "banded":
        # A few holes inside the band give deltas room for in-band
        # inserts, which keep the operator's diagonal set.
        return banded.banded_matrix(
            max(int(nnz / 8.5), 16), 9, occupancy=0.95, seed=seed
        )
    if family == "grid":
        side = grid_side or max(int(np.sqrt(nnz / 5.0)), 4)
        return grids.laplacian_5pt(side)
    if family == "powerlaw":
        return graphs.power_law_graph(
            max(int(nnz / 2.9), 32), exponent=2.2, seed=seed
        )
    if family == "random":
        n = max(nnz // 6, 16)
        return random_sparse.uniform_random(n, n, 6.0, seed=seed)
    raise ValueError(f"unknown family {family!r}")


def operands(
    matrix: CSRMatrix, count: int, rng: np.random.Generator
) -> List[np.ndarray]:
    return [
        rng.standard_normal(matrix.n_cols).astype(matrix.dtype)
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# Structure deltas
# ---------------------------------------------------------------------------

def _keys(matrix: CSRMatrix) -> np.ndarray:
    rows = np.repeat(
        np.arange(matrix.n_rows, dtype=np.int64), matrix.row_degrees()
    )
    return rows * matrix.n_cols + matrix.indices.astype(np.int64)


def _present(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Which of ``probe`` occur in the sorted array ``keys``."""
    if keys.size == 0:
        return np.zeros(probe.shape, dtype=bool)
    at = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
    return keys[at] == probe


def band_delta(
    matrix: CSRMatrix, rng: np.random.Generator, inserts: int, deletes: int
) -> StructureDelta:
    """Deletes of live entries plus inserts into holes of the existing
    diagonals.  When the band has too few holes the remaining inserts
    land one diagonal outside it."""
    m, n = matrix.shape
    keys = _keys(matrix)
    picks = rng.choice(matrix.nnz, size=min(deletes, matrix.nnz), replace=False)
    del_keys = keys[picks]
    offsets = matrix.diagonal_offsets()
    edge = int(np.abs(offsets).max()) + 1 if offsets.size else 1
    found: List[np.ndarray] = []
    for pool in (offsets, np.array([-edge, edge])):
        rows = rng.integers(0, m, size=16 * inserts + 16)
        cols = rows + rng.choice(pool, size=rows.shape[0])
        ok = (cols >= 0) & (cols < n)
        cand = rows[ok] * n + cols[ok]
        cand = cand[~_present(keys, cand)]
        found.append(cand)
    cand = np.concatenate(found)
    _, first = np.unique(cand, return_index=True)
    ins_keys = cand[np.sort(first)][:inserts]
    return StructureDelta(
        insert_rows=ins_keys // n,
        insert_cols=ins_keys % n,
        insert_vals=rng.standard_normal(ins_keys.shape[0]).astype(matrix.dtype),
        delete_rows=del_keys // n,
        delete_cols=del_keys % n,
    )


def inverse_delta(matrix: CSRMatrix, delta: StructureDelta) -> StructureDelta:
    """The delta that takes ``apply_delta(matrix, delta)`` back to
    ``matrix``: delete what was inserted, re-insert what was deleted with
    its old value.  Valid because the generators never insert at a live
    coordinate."""
    n = matrix.n_cols
    keys = _keys(matrix)
    del_keys = delta.delete_rows.astype(np.int64) * n + delta.delete_cols
    at = np.searchsorted(keys, del_keys)
    return StructureDelta(
        insert_rows=delta.delete_rows.copy(),
        insert_cols=delta.delete_cols.copy(),
        insert_vals=matrix.data[at].copy(),
        delete_rows=delta.insert_rows.copy(),
        delete_cols=delta.insert_cols.copy(),
    )


@dataclass
class DeltaChain:
    """A matrix plus its forward deltas and their inverses."""

    base: CSRMatrix
    family: str
    forward: List[StructureDelta]
    backward: List[StructureDelta]
    #: Version digests, filled lazily by :func:`rebuilt_digests`.
    digests: Optional[List[str]] = None

    def step(self, j: int) -> Tuple[StructureDelta, int]:
        """The ``j``-th delta of the ping-pong walk and the version it
        lands on (version ``k`` = base plus forward deltas ``0..k-1``)."""
        d = len(self.forward)
        p = j % (2 * d)
        if p < d:
            return self.forward[p], p + 1
        q = 2 * d - 1 - p
        return self.backward[q], q


def delta_chain(
    matrix: CSRMatrix, family: str, count: int, rng: np.random.Generator
) -> DeltaChain:
    """``count`` forward deltas, each drawn against (and replayed onto)
    the matrix the previous one produced."""
    forward: List[StructureDelta] = []
    backward: List[StructureDelta] = []
    current = matrix
    churn = max(4, int(DELTA_FRACTION * matrix.nnz))
    inserts, deletes = churn - churn // 2, churn // 2
    for _ in range(count):
        if family == "powerlaw":
            delta = evolving_graph_delta(current, rng, inserts, deletes)
        else:
            delta = band_delta(current, rng, inserts, deletes)
        forward.append(delta)
        backward.append(inverse_delta(current, delta))
        current, _ = apply_delta(current, delta)
    return DeltaChain(matrix, family, forward, backward)


def csr_digest(ptr, indices, data, shape) -> str:
    h = hashlib.blake2b(digest_size=20)
    h.update(np.asarray(shape, dtype=np.int64).tobytes())
    for arr, dtype in ((ptr, np.int64), (indices, np.int64), (data, np.float64)):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def matrix_digest(matrix: CSRMatrix) -> str:
    return csr_digest(matrix.ptr, matrix.indices, matrix.data, matrix.shape)


def rebuilt_digests(chain: DeltaChain) -> List[str]:
    """Digest of every version of ``chain``, each rebuilt independently
    of ``apply_delta``: delete by key, append, sort."""
    if chain.digests is not None:
        return chain.digests
    m, n = chain.base.shape
    keys = _keys(chain.base)
    vals = np.asarray(chain.base.data, dtype=np.float64)

    def digest() -> str:
        counts = np.bincount(keys // n, minlength=m)
        ptr = np.concatenate([[0], np.cumsum(counts)])
        return csr_digest(ptr, keys % n, vals, (m, n))

    out = [digest()]
    for delta in chain.forward:
        gone = np.zeros(keys.shape, dtype=bool)
        gone[np.searchsorted(
            keys, delta.delete_rows.astype(np.int64) * n + delta.delete_cols
        )] = True
        keys = np.concatenate(
            [keys[~gone],
             delta.insert_rows.astype(np.int64) * n + delta.insert_cols]
        )
        vals = np.concatenate(
            [vals[~gone], np.asarray(delta.insert_vals, dtype=np.float64)]
        )
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        if keys.size and np.any(keys[1:] == keys[:-1]):
            raise ValueError("delta inserted at a live coordinate")
        out.append(digest())
    chain.digests = out
    return out


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """Everything one workload sends, keyed by what the loops need."""

    #: Distinct matrices the layer probes look at (at most 8).
    probe_matrices: List[CSRMatrix]
    probe_families: List[str]
    #: Delta chains the write path walks (graph-churn: both of its
    #: matrices; hot-zipf: the one operator its write path mutates).
    chains: List[DeltaChain]
    #: Read-mostly pool (hot-zipf).
    pool: List[CSRMatrix] = field(default_factory=list)
    pool_operands: List[List[np.ndarray]] = field(default_factory=list)
    #: A long schedule of (pool index, operand index).
    schedule: Optional[np.ndarray] = None
    #: graph-churn: operands per chain.
    chain_operands: List[List[np.ndarray]] = field(default_factory=list)
    #: Delta calls of hot-zipf's write path.
    write_deltas: int = 0

    def structures(self) -> List[CSRMatrix]:
        """One matrix per structure id a request carries."""
        if self.pool:
            return self.pool
        return [chain.base for chain in self.chains]


def zipf_schedule(
    n: int, length: int, rng: np.random.Generator
) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-ZIPF_SKEW)
    weights /= weights.sum()
    which = rng.choice(n, size=length, p=weights)
    operand = rng.integers(0, OPERANDS_PER_MATRIX, size=length)
    return np.stack([which, operand], axis=1)


def hot_pool_inputs(seed: int, size: str) -> Inputs:
    spec = SIZES[size]
    rng = np.random.default_rng([seed, 1])
    pool = [family_matrix(f, nnz, rng) for f, nnz in spec["pool"]]
    families = [f for f, _ in spec["pool"]]
    return Inputs(
        probe_matrices=list(pool),
        probe_families=families,
        # The write path mutates a banded operator of its own, as large
        # as the pool's largest.
        chains=[delta_chain(family_matrix("banded", spec["write_nnz"], rng),
                            "banded", spec["write_forward_deltas"], rng)],
        pool=pool,
        pool_operands=[operands(m, OPERANDS_PER_MATRIX, rng) for m in pool],
        schedule=zipf_schedule(len(pool), spec["schedule_len"], rng),
        write_deltas=spec["write_deltas"],
    )


def graph_churn_inputs(seed: int, size: str) -> Inputs:
    spec = SIZES[size]
    rng = np.random.default_rng([seed, 3])
    graph = graphs.power_law_graph(
        spec["graph_powerlaw_nodes"], exponent=2.2,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    # Occupancy below 1 leaves holes inside the band, so inserts stay
    # in-band and the operator keeps its diagonal set.
    band = banded.banded_matrix(
        spec["graph_banded_rows"], 9, occupancy=0.9,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    chains = [
        delta_chain(graph, "powerlaw", spec["forward_deltas"], rng),
        delta_chain(band, "banded", spec["forward_deltas"], rng),
    ]
    return Inputs(
        probe_matrices=[graph, band],
        probe_families=["powerlaw", "banded"],
        chains=chains,
        chain_operands=[
            operands(c.base, OPERANDS_PER_MATRIX, rng) for c in chains
        ],
    )


def make_inputs(workload: str, seed: int, size: str) -> Inputs:
    if workload == "hot-zipf":
        return hot_pool_inputs(seed, size)
    if workload == "graph-churn":
        return graph_churn_inputs(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


def family_fill_ins(
    inputs: Inputs, seed: int, size: str
) -> Tuple[List[CSRMatrix], List[str]]:
    """One matrix for each family the workload lacks, so the per-family
    kernel metrics exist on every workload.  Sized like the workload's
    own matrices."""
    missing = [f for f in FAMILIES if f not in inputs.probe_families]
    if not missing:
        return [], []
    rng = np.random.default_rng([seed, 4])
    nnz = int(np.median([m.nnz for m in inputs.probe_matrices]))
    return [family_matrix(f, nnz, rng) for f in missing], missing
