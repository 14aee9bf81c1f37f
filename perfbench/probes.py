"""The traced run's probe pass: each layer timed from outside.

Every probe calls a layer's public function on the workload's own
inputs (plus one matrix per family the workload lacks, for the
per-family kernel metrics) and records a span around each call.
Byte counts behind ``kernel.gbps`` are computed from array sizes, not
measured: operand bytes plus one read of ``x`` and one write of ``y``.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.features.incremental import DeltaFeatures
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.formats.delta import apply_delta, patch_operand
from repro.serve import ServeConfig, ServingEngine, fingerprint
from repro.types import BASIC_FORMATS, FormatName

import loop

#: Candidate operands predicted (from the CSR, before converting) to need
#: more than this are skipped and counted, never built.
CANDIDATE_CAP_BYTES = 64 * 2**20

#: Each array of the copy-bandwidth probe.  16x the 4 MiB per-core L2;
#: smaller than a reported L3 above 64 MiB, which is stated with the
#: result.
COPY_BYTES = 64 * 2**20

_SC_LEVEL2_CACHE_SIZE = 191  # glibc sysconf names Python does not export
_SC_LEVEL3_CACHE_SIZE = 194


@dataclass
class Spans:
    """Benchmark-side spans: name, start, end, parent and request id."""

    records: List[dict] = field(default_factory=list)
    ids: object = None

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs) -> int:
        rid = next(self.ids)
        self.records.append({"id": rid, "name": name, "start": start,
                             "end": end, "parent": parent, **attrs})
        return rid

    def timed(self, name: str, parent: int, fn, *args, **attrs):
        start = time.perf_counter()
        out = fn(*args)
        self.add(name, start, time.perf_counter(), parent, **attrs)
        return out, self.records[-1]["end"] - start


def median_time(spans: Spans, name: str, parent: int, fn, *args,
                 reps: int = 5, **attrs) -> float:
    return statistics.median(
        spans.timed(name, parent, fn, *args, **attrs)[1] for _ in range(reps)
    )


def predicted_bytes(csr: CSRMatrix, fmt: FormatName) -> int:
    """Operand bytes of ``fmt`` predicted from the CSR alone."""
    item, index = csr.data.itemsize, csr.indices.itemsize
    if fmt is FormatName.CSR:
        return csr.memory_bytes()
    if fmt is FormatName.COO:
        return csr.nnz * (item + 2 * index)
    if fmt is FormatName.DIA:
        diags = int(csr.diagonal_offsets().shape[0])
        return diags * csr.n_rows * item + diags * index
    if fmt is FormatName.ELL:
        degrees = csr.row_degrees()
        width = int(degrees.max()) if degrees.size else 0
        return width * csr.n_rows * (item + index)
    raise ValueError(f"no byte model for {fmt}")


def copy_bandwidth(spans: Spans, parent: int) -> float:
    """NumPy copy bandwidth in GB/s, counting the read and the write."""
    src = np.ones(COPY_BYTES // 8)
    dst = np.empty_like(src)
    seconds = min(
        spans.timed("probe.copy", parent, np.copyto, dst, src)[1]
        for _ in range(7)
    )
    return 2 * COPY_BYTES / seconds / 1e9


def cache_sizes() -> Tuple[Optional[int], Optional[int]]:
    out = []
    for name in (_SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE):
        try:
            value = os.sysconf(name)
        except (OSError, ValueError):
            value = -1
        out.append(value if value > 0 else None)
    return out[0], out[1]


def scipy_sparse():
    """scipy.sparse when it imports (it is not a dependency), else None."""
    try:
        import scipy.sparse as sp
    except ImportError:
        return None
    return sp


@dataclass
class KernelProbe:
    """Kernel timings of every candidate format on one matrix."""

    family: str
    chosen: FormatName
    seconds: Dict[FormatName, float]
    gbps: Dict[FormatName, float]
    skipped: int
    scipy_seconds: Optional[float]

    @property
    def regret(self) -> float:
        return self.seconds[self.chosen] / min(self.seconds.values())


def probe_kernels(
    spans: Spans, parent: int, tuner, matrix: CSRMatrix, family: str,
    chosen: FormatName, sp,
) -> KernelProbe:
    x = np.linspace(-1.0, 1.0, matrix.n_cols)
    seconds: Dict[FormatName, float] = {}
    gbps: Dict[FormatName, float] = {}
    skipped = 0
    for fmt in BASIC_FORMATS:
        if predicted_bytes(matrix, fmt) > CANDIDATE_CAP_BYTES:
            skipped += 1
            continue
        operand, _ = convert(matrix, fmt, fill_budget=None)
        kernel = tuner.kernels.kernel_for(fmt)
        kernel(operand, x)
        t = median_time(spans, "probe.kernel", parent, kernel, operand, x,
                         reps=7, format=fmt.value, nnz=int(matrix.nnz))
        seconds[fmt] = t
        moved = operand.memory_bytes() + x.nbytes + matrix.n_rows * 8
        gbps[fmt] = moved / t / 1e9
    scipy_seconds = None
    if sp is not None:
        a = sp.csr_matrix(
            (matrix.data, matrix.indices, matrix.ptr), shape=matrix.shape
        )
        a @ x
        scipy_seconds = median_time(spans, "probe.scipy", parent,
                                     a.__matmul__, x, reps=7)
    return KernelProbe(family, chosen, seconds, gbps, skipped, scipy_seconds)


def probe_deltas(
    spans: Spans, parent: int, bench: "loop.Bench",
    served: Dict[int, FormatName], steps: int = 4,
) -> Dict[str, List[float]]:
    """Per chain, seconds of apply_delta, DeltaFeatures.apply,
    patch_operand and fingerprint: the fastest of 3 repetitions on each
    of the chain's first ``steps`` forward deltas (each on the version it
    was drawn against), then the median over those steps.  The fastest
    repetition is the part's own cost, which ``delta.residual_ms_p50``
    subtracts from the caller's wall time."""
    parts: Dict[str, List[float]] = {
        "apply": [], "features": [], "patch": [], "fingerprint": []}
    for chain in bench.inputs.chains:
        fmt = served.get(id(chain.base), FormatName.CSR)
        steps_seen: Dict[str, List[float]] = {k: [] for k in parts}
        current = chain.base
        for delta in chain.forward[:steps]:
            new_csr, effect = apply_delta(current, delta)
            reps: Dict[str, List[float]] = {k: [] for k in parts}
            for _ in range(3):
                reps["apply"].append(spans.timed(
                    "probe.apply_delta", parent, apply_delta, current,
                    delta)[1])
                reps["fingerprint"].append(spans.timed(
                    "probe.fingerprint", parent, fingerprint, current)[1])
                features = DeltaFeatures(current)
                reps["features"].append(spans.timed(
                    "probe.features", parent, features.apply, effect)[1])
                operand, _ = convert(current, fmt, fill_budget=None)
                reps["patch"].append(spans.timed(
                    "probe.patch", parent, patch_operand, operand, new_csr,
                    effect, format=fmt.value)[1])
            for key, values in reps.items():
                steps_seen[key].append(min(values))
            current = new_csr
        for key, values in steps_seen.items():
            parts[key].append(statistics.median(values))
    return parts


def probe_tuner(
    spans: Spans, parent: int, tuner, own: List[CSRMatrix],
    fills: List[CSRMatrix],
) -> dict:
    """Cold builds on a fresh engine (``plan_seconds``), ``decide`` and
    ``convert`` to the served format, on the workload's own matrices;
    plus the format every matrix, fill-ins included, is served in, and
    the engine's non-zero fallback counters."""
    out = {"build": [], "decide": [], "convert": [], "fill": [],
           "served": {}}
    with ServingEngine(tuner, ServeConfig(workers=2)) as engine:
        for matrix in own + fills:
            result, _ = spans.timed("probe.cold_spmv", parent, engine.spmv,
                                    matrix, np.ones(matrix.n_cols))
            out["served"][id(matrix)] = result.format_name
            if any(matrix is m for m in own):
                out["build"].append(result.plan_seconds)
        out["fallbacks"] = loop.fallbacks(
            engine.metrics.snapshot()["counters"])
    for matrix in own:
        fmt = out["served"][id(matrix)]
        out["decide"].append(median_time(spans, "probe.decide", parent,
                                         tuner.decide, matrix, reps=3))
        out["convert"].append(median_time(
            spans, "probe.convert", parent, convert, matrix, fmt, None,
            reps=3, format=fmt.value))
        operand, _ = convert(matrix, fmt, fill_budget=None)
        out["fill"].append(operand.memory_bytes() / matrix.memory_bytes())
    return out


def probe_refresh(
    bench: "loop.Bench", current: List[CSRMatrix], checker: "loop.Checker",
    ids, seed: int,
) -> List[float]:
    """``plan_seconds`` of tier-2 refreshes: fresh value sets of matrices
    the front is serving now."""
    rng = np.random.default_rng([seed, 5])
    calls = []
    for _ in range(4):
        for sid, m in enumerate(current):
            variant = CSRMatrix(m.ptr, m.indices,
                                rng.standard_normal(m.nnz), m.shape)
            x = np.ones(m.n_cols)
            start = time.perf_counter()
            out = bench.front.spmv(variant, x)
            calls.append(loop.Call(next(ids), "spmv", start,
                                   time.perf_counter(), (variant, x, sid),
                                   out))
    checker.check(calls)
    return [c.out["plan"] for c in calls if c.out["refreshed"]]


def probe_cluster(
    spans: Spans, parent: int, bench: "loop.Bench",
    checker: "loop.Checker", ids,
) -> Tuple[List["loop.Call"], int, Dict[str, int]]:
    """The workload's matrices through a one-shard ClusterDispatcher;
    returns the checked calls, the operand bytes it pickled and the
    non-zero fallback counters of the dispatcher and its shard."""
    from repro.cluster import ClusterConfig, ClusterDispatcher, WorkerSpec

    front = ClusterDispatcher(
        WorkerSpec(tuner=bench.tuner, config=ServeConfig(workers=2)),
        ClusterConfig(workers=1),
    ).start()
    calls: List[loop.Call] = []
    try:
        matrices = bench.inputs.probe_matrices
        for matrix in matrices:
            front.spmv(matrix, np.ones(matrix.n_cols))
        for rep in range(4):
            for sid, matrix in enumerate(matrices):
                x = np.full(matrix.n_cols, 1.0 + rep)
                start = time.perf_counter()
                out = front.spmv(matrix, x)
                end = time.perf_counter()
                calls.append(loop.Call(next(ids), "spmv", start, end,
                                       (matrix, x, sid), out))
                spans.add("probe.cluster_spmv", start, end, parent)
    finally:
        front.stop()
    # Shard counters are complete only once the dispatcher has stopped.
    local = front.metrics.snapshot()["counters"]
    pickled = int(local["operand_bytes_pickled"])
    fallen = loop.fallbacks(front.worker_metrics().get("counters", {}))
    if local.get("degraded_local", 0):
        fallen["degraded_local"] = int(local["degraded_local"])
    checker.check(calls)
    return calls, pickled, fallen
