"""Set-up, closed-loop clients and the output checker.

Every workload is a closed loop of one client: it sends its next call
only after the previous one returned, as an iterative solver does when it
needs ``y`` to form the next ``x``.  The client runs in the calling
thread.  A second client thread raised throughput but tied the run's
tail latency to the scheduling of four busy threads (two clients, two
engine workers) on a two-core host: its run-to-run spread was three times
that of one client under the same background load.

The timed window is cut into segments.  Between segments the clock is
paused and that segment's outputs are checked and dropped, so every
``y`` is kept and checked outside the timer while memory stays bounded
by one segment of products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.features.incremental import DeltaFeatures
from repro.serve import ServeConfig, ServingEngine

import workloads as wl

#: Products must match ``CSRMatrix.spmv`` elementwise within
#: ``ATOL + RTOL * |reference|`` (tuned kernels sum in another order).
RTOL = 1e-9
ATOL = 1e-9

#: Calls in one segment.  A fixed count, not a fixed time, so the
#: products and post-delta matrices a segment keeps until its check add
#: the same bytes to ``peak_rss_mb`` at any host speed: with 2-s segments
#: they grew with throughput and moved the peak by up to 15% from run to
#: run.
SEGMENT_CALLS = 64
#: Products a graph-churn turn serves before its delta.
SERVES_PER_DELTA = 4
#: graph-churn turns by chain: three on the power-law graph (chain 0) for
#: each one on the banded operator (chain 1).  The graph's products and
#: deltas, the faster ones, are then three quarters of the calls, so the
#: medians lie inside the graph's latencies and the tails inside the
#: operator's, not on the edge between the two.
GRAPH_TURNS = (0, 0, 0, 1)
#: Engine counters of calls served by a fallback path (a failed plan
#: build served through the CSR reference, a failed value refresh rebuilt
#: from scratch).  Such calls return correct products, so only these
#: counters show them; any non-zero value fails the run.
FALLBACK_COUNTERS = ("plan_build_failures", "degraded_requests",
                     "plan_refresh_failures")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Bench:
    """One set-up: tuner, inputs and the started serving front."""

    workload: str
    tuner: object
    inputs: wl.Inputs
    front: ServingEngine
    #: Maintained features per delta chain.
    features: List[DeltaFeatures]

    def stop(self) -> None:
        self.front.stop()


def setup(workload: str, seed: int, size: str, faults=None) -> Bench:
    """Train the tuner, generate the inputs, start and warm the front.
    ``faults`` (a ``FaultPlan``) is for the self-test only."""
    from repro.cluster import train_default_tuner

    tuner = train_default_tuner()
    inputs = wl.make_inputs(workload, seed, size)
    front = ServingEngine(tuner, ServeConfig(workers=2), faults=faults)
    front.start()
    warm = [(m, x) for m, xs in zip(inputs.pool, inputs.pool_operands)
            for x in xs]
    warm += [(c.base, x) for c, xs in zip(inputs.chains,
                                          inputs.chain_operands) for x in xs]
    for matrix, x in warm:
        front.spmv(matrix, x)
    features = [DeltaFeatures(chain.base) for chain in inputs.chains]
    return Bench(workload, tuner, inputs, front, features)


# ---------------------------------------------------------------------------
# Calls and clients
# ---------------------------------------------------------------------------

@dataclass
class Call:
    """One caller-side call: a span on the caller's clock."""

    rid: int
    kind: str  # "spmv" | "delta"
    start: float
    end: float
    #: spmv: (matrix, x, structure id); delta: (chain index, version).
    meta: tuple
    out: object = None
    error: Optional[BaseException] = None

    @property
    def wall(self) -> float:
        return self.end - self.start


class PoolClient:
    """hot-zipf: Zipf-ranked requests over a warm pool."""

    def __init__(self, bench: Bench) -> None:
        self.front = bench.front
        self.inputs = bench.inputs
        self.schedule = bench.inputs.schedule
        self.i = 0

    def next(self):
        mi, xi = self.schedule[self.i % len(self.schedule)]
        self.i += 1
        matrix = self.inputs.pool[mi]
        x = self.inputs.pool_operands[mi][xi]
        return "spmv", self.front.spmv, (matrix, x), (matrix, x, int(mi))

    def done(self, call: Call) -> None:
        pass


class GraphClient:
    """graph-churn: both long-lived matrices, taken in the turns of
    :data:`GRAPH_TURNS`; a turn serves ``SERVES_PER_DELTA`` products of
    one matrix, then applies that matrix's next delta."""

    def __init__(self, bench: Bench) -> None:
        self.front = bench.front
        self.chains = bench.inputs.chains
        self.xs = bench.inputs.chain_operands
        self.features = bench.features
        #: The current version of each matrix.
        self.matrices = [chain.base for chain in self.chains]
        self.steps = [0] * len(self.chains)
        self.turn = 0
        self.served = 0

    def next(self):
        i = GRAPH_TURNS[self.turn % len(GRAPH_TURNS)]
        matrix = self.matrices[i]
        if self.served < SERVES_PER_DELTA:
            x = self.xs[i][self.served % len(self.xs[i])]
            return "spmv", self.front.spmv, (matrix, x), (matrix, x, i)
        delta, version = self.chains[i].step(self.steps[i])
        return ("delta", self.front.apply_structure_delta,
                (matrix, delta, self.features[i]), (i, version))

    def done(self, call: Call) -> None:
        if call.kind == "spmv":
            self.served += 1
            return
        i = call.meta[0]
        self.matrices[i] = call.out.matrix
        self.steps[i] += 1
        self.turn += 1
        self.served = 0


CLIENT_TYPES = {
    "hot-zipf": PoolClient,
    "graph-churn": GraphClient,
}


# ---------------------------------------------------------------------------
# The timed window
# ---------------------------------------------------------------------------

@dataclass
class Window:
    """What one timed window produced, after checking."""

    #: Checked calls with their outputs dropped (``out.y`` is released).
    calls: List[Call] = field(default_factory=list)
    wall: float = 0.0
    failures: List[BaseException] = field(default_factory=list)


def _segment(client, stop_at: float, ids) -> List[Call]:
    """Call until the window ends, a call fails or the segment holds
    ``SEGMENT_CALLS`` calls."""
    clock = time.perf_counter
    calls: List[Call] = []
    while len(calls) < SEGMENT_CALLS:
        kind, fn, args, meta = client.next()
        start = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # recorded; any failure fails the run
            calls.append(Call(next(ids), kind, start, clock(), meta,
                              error=exc))
            break
        end = clock()
        call = Call(next(ids), kind, start, end, meta, out)
        calls.append(call)
        client.done(call)
        if end >= stop_at:
            break
    return calls


def run_window(client, seconds: float, checker: "Checker", ids,
               writes: Optional["WritePath"] = None) -> Window:
    """``seconds`` of timed calls.  After each segment, with the clock
    paused, ``writes`` catches up with the share of the window done."""
    window = Window()
    while window.wall < seconds:
        start = time.perf_counter()
        calls = _segment(client, start + seconds - window.wall, ids)
        window.wall += calls[-1].end - start
        window.failures.extend(c.error for c in calls if c.error)
        checker.check(calls)
        window.calls.extend(calls)
        if writes is not None:
            writes.advance(min(window.wall / seconds, 1.0))
            window.failures.extend(writes.failures)
        if window.failures:
            break
    return window


class WritePath:
    """hot-zipf's write path: its pre-generated deltas, applied one at a
    time to a banded operator of its own (a delta on a pool matrix would
    retire that matrix's warm plan).  They run between the segments of
    the timed window, each on its own clock, so that they sample the
    host over the whole window, as graph-churn's deltas do, and not over
    one 7-s block after it."""

    def __init__(self, bench: Bench, checker: "Checker", ids) -> None:
        self.front = bench.front
        self.chain = bench.inputs.chains[0]
        self.features = bench.features[0]
        self.total = bench.inputs.write_deltas
        self.checker = checker
        self.ids = ids
        self.matrix = self.chain.base
        self.calls: List[Call] = []
        self.failures: List[BaseException] = []
        # Resident first, so that each delta migrates a plan.
        out = self.front.spmv(self.matrix, np.ones(self.matrix.n_cols))
        #: The format the operator is served in.
        self.format = out.format_name

    def advance(self, share: float) -> None:
        """Apply deltas until ``share`` of them are done."""
        while not self.failures and len(self.calls) < round(
                self.total * share):
            delta, version = self.chain.step(len(self.calls))
            start = time.perf_counter()
            try:
                out = self.front.apply_structure_delta(self.matrix, delta,
                                                       self.features)
            except Exception as exc:  # recorded; any failure fails the run
                self.failures.append(exc)
                self.calls.append(Call(next(self.ids), "delta", start,
                                       time.perf_counter(), (0, version),
                                       error=exc))
                return
            call = Call(next(self.ids), "delta", start, time.perf_counter(),
                        (0, version), out)
            self.matrix = out.matrix
            self.checker.check([call])  # so outcomes do not pile up
            self.calls.append(call)

    def finish(self) -> List[Call]:
        """Apply what is left; check that the migrated plan still serves
        correct products; return the delta calls."""
        self.advance(1.0)
        if not self.failures:
            x = np.linspace(-1.0, 1.0, self.matrix.n_cols)
            start = time.perf_counter()
            out = self.front.spmv(self.matrix, x)
            self.checker.check([Call(-1, "spmv", start, time.perf_counter(),
                                     (self.matrix, x, 0), out)])
        return self.calls


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

class Checker:
    """Compares outputs with references, outside the timer."""

    def __init__(self, chains: List[wl.DeltaChain], corrupt: bool = False):
        self.chains = chains
        self.mismatches: List[str] = []
        #: Test hook for the self-test: flip one product before checking.
        self.corrupt = corrupt

    def check(self, calls: List[Call]) -> None:
        """Check each call's output, then shrink it to its timings."""
        references: Dict[Tuple[int, int], np.ndarray] = {}
        for call in calls:
            if call.error is not None:
                continue
            if call.kind == "spmv":
                self._check_product(call, references)
            else:
                self._check_delta(call)

    def _check_product(self, call: Call, references) -> None:
        matrix, x, _ = call.meta
        y = call.out.y
        if self.corrupt:
            y = y.copy()
            y[len(y) // 2] += 1.0
            self.corrupt = False
        key = (id(matrix), id(x))
        ref = references.get(key)
        if ref is None:
            ref = references[key] = matrix.spmv(x)
        if y.shape != ref.shape or not np.allclose(
            y, ref, rtol=RTOL, atol=ATOL
        ):
            self.mismatches.append(f"product of call {call.rid}")
        out = call.out
        call.out = {
            "queued": out.queued_seconds,
            "plan": out.plan_seconds,
            "execute": out.execute_seconds,
            "cache_hit": out.cache_hit,
            "refreshed": out.refreshed,
            "format": out.format_name.value,
            # A cluster result served locally is also marked degraded.
            "degraded": bool(out.degraded),
            "dispatch": getattr(out, "dispatch_seconds", None),
        }
        call.meta = call.meta[2:]  # release the matrix and the operand

    def _check_delta(self, call: Call) -> None:
        chain_index, version = call.meta
        expected = wl.rebuilt_digests(self.chains[chain_index])[version]
        if wl.matrix_digest(call.out.matrix) != expected:
            self.mismatches.append(f"post-delta matrix of call {call.rid}")
        call.out = {"policy": call.out.policy, "seconds": call.out.seconds}


def fallbacks(counters: Dict[str, float]) -> Dict[str, int]:
    """The non-zero :data:`FALLBACK_COUNTERS` of an engine snapshot."""
    return {name: int(counters.get(name, 0)) for name in FALLBACK_COUNTERS
            if counters.get(name, 0)}


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def p50(values) -> float:
    return percentile(values, 50)


def tail_supported(n: int, q: float) -> bool:
    """At least ten samples lie beyond the ``q``-th percentile."""
    return n * (100 - q) >= 1000
