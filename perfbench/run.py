#!/usr/bin/env python3
"""Caller-wall-clock benchmark of the SMAT serving stack.

    python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 10 --trace 0

Runs one workload from one process through the public serving API
(``ServingEngine.spmv``, ``ServingEngine.apply_structure_delta``) and
times every call on the caller's clock.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` is a separate run with the same seed that splits the
caller's wall time across the layers (see ``probes.py``).  The exit code
is non-zero on any failed call, any call served by a fallback path
(a degraded plan or a failed refresh), any output that does not match
the benchmark's own reference, a graph-churn run with no delta or only
retunes, any operand bytes pickled by the cluster, or a full-size run too
short to leave ten samples beyond a reported tail percentile.

Workloads (closed loops of one client; ``ServeConfig(workers=2)``):

* ``hot-zipf``: 8 warm matrices, 2 per family, Zipf(1.1) requests.
* ``graph-churn``: a power-law graph and a banded operator; each turn
  serves 4 products of one of them and then applies a 0.2%-of-nnz delta
  to it.

Two layers have no workload of their own, because their run-to-run
spread on a two-core host exceeded every bound the benchmark may set:
the cluster (``ClusterDispatcher.spmv``, a dispatcher and a shard process
sharing two cores) and the cold path (a stream of structures never seen
before, each built once and then value-refreshed).  Every traced run
measures both through probes instead.

hot-zipf has a write path beside its reads: 200 pre-generated deltas,
applied one by one to a banded operator of its own between the segments
of the timed window (``loop.WritePath``), which is where its
``delta_*`` metrics come from.

``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hot-zipf", "graph-churn")
SETUP_REPEATS = 3


def import_program() -> None:
    """Put the checkout's own ``src`` first on the path, or exit 2."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"error: no program source at {package.parent}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        print(f"error: imported repro from {repro.__file__}, "
              f"not from this checkout", file=sys.stderr)
        sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the self-test")
    parser.add_argument("--corrupt-product", action="store_true",
                        help=argparse.SUPPRESS)  # self-test hook
    parser.add_argument("--fail-builds", action="store_true",
                        help=argparse.SUPPRESS)  # self-test hook
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


class Report:
    """Metrics plus the checks that decide ``correct`` and the exit code."""

    def __init__(self) -> None:
        self.metrics = {}
        self.samples = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def put(self, name, value, unit, samples=1) -> None:
        value = float(value)
        if not math.isfinite(value):
            self.problems.append(f"{name} has no samples")
            value = 0.0
        self.metrics[name] = {"value": value, "unit": unit}
        self.samples[name] = samples

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def emit(self) -> int:
        width = max((len(n) for n in self.metrics), default=0)
        for name, metric in self.metrics.items():
            print(f"  {name:{width}s} {metric['value']:14.6g} "
                  f"{metric['unit']:8s} n={self.samples[name]}")
        for problem in self.problems:
            print(f"error: {problem}", file=sys.stderr)
        correct = not self.problems
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }))
        return 0 if correct else 1


def ms(seconds) -> float:
    return seconds * 1e3


def account(report, checker, calls, bench, fallbacks,
            check_tails: bool) -> None:
    """Counts and checks shared by both runs.  ``fallbacks`` are the
    non-zero fallback counters of every engine the run used."""
    import loop

    failures = [c.error for c in calls if c.error is not None]
    degraded = [c for c in calls if c.kind == "spmv" and c.error is None
                and c.out["degraded"]]
    report.attempted += len(calls)
    report.failed += len(failures) + len(degraded)
    if failures:
        report.problems.append(
            f"{len(failures)} calls failed, first: {failures[0]!r}")
    report.require(not degraded,
                   f"{len(degraded)} calls served by the degraded CSR plan")
    report.require(not fallbacks, f"fallback paths taken: {fallbacks}")
    report.require(not checker.mismatches,
                   f"{len(checker.mismatches)} outputs differ from the "
                   f"reference, first: {checker.mismatches[:1]}")
    spmv = [c for c in calls if c.kind == "spmv" and c.error is None]
    deltas = [c for c in calls if c.kind == "delta" and c.error is None]
    if bench.workload == "graph-churn":
        report.require(bool(deltas), "graph-churn applied no delta")
        report.require(
            any(c.out["policy"] != "retune" for c in deltas),
            "graph-churn deltas were all retunes",
        )
    if check_tails:
        report.require(loop.tail_supported(len(spmv), 90),
                       f"only {len(spmv)} products: fewer than 10 beyond p90")
        report.require(loop.tail_supported(len(deltas), 90),
                       f"only {len(deltas)} deltas: fewer than 10 beyond p90")


def write_path(bench, checker, ids):
    """hot-zipf's write path (``loop.WritePath``); None elsewhere."""
    import loop

    if bench.workload != "hot-zipf":
        return None
    return loop.WritePath(bench, checker, ids)


def self_test_faults(args):
    """With ``--fail-builds``, every plan build fails, so the engine
    serves every call through its degraded CSR plan."""
    if not args.fail_builds:
        return None
    from repro.serve.faults import FaultPlan, FaultRule

    return FaultPlan([FaultRule("decide", kind="fatal")])


def untraced(args) -> Report:
    import loop

    report = Report()
    setups, bench = [], None
    for _ in range(SETUP_REPEATS):
        if bench is not None:
            bench.stop()
            bench = None
            gc.collect()
        start = time.perf_counter()
        bench = loop.setup(args.workload, args.seed, args.size,
                           self_test_faults(args))
        setups.append(time.perf_counter() - start)
    checker = loop.Checker(bench.inputs.chains, corrupt=args.corrupt_product)
    ids = itertools.count(1)  # call and span ids
    client = loop.CLIENT_TYPES[bench.workload](bench)
    gc.collect()
    try:
        writes = write_path(bench, checker, ids)
        window = loop.run_window(client, args.seconds, checker, ids, writes)
        calls = list(window.calls)
        if writes is not None:
            calls += writes.finish()
        fallbacks = loop.fallbacks(bench.front.metrics.snapshot()["counters"])
    finally:
        bench.stop()
    account(report, checker, calls, bench, fallbacks, args.size == "full")

    spmv = [ms(c.wall) for c in window.calls
            if c.kind == "spmv" and c.error is None]
    deltas = [ms(c.wall) for c in calls
              if c.kind == "delta" and c.error is None]
    ok = report.attempted - report.failed - len(checker.mismatches)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report.put("setup_s", statistics.median(setups), "s", len(setups))
    report.put("spmv_per_s", len(spmv) / window.wall if window.wall else 0.0,
               "1/s", len(spmv))
    report.put("spmv_p50_ms", loop.percentile(spmv, 50), "ms", len(spmv))
    # p90, not p99: over ten seeds on a two-core host whose speed
    # drifts by 20-30% over minutes, p99 spread by up to 0.31 (interquartile
    # range over median), more than any bound the benchmark may set.
    report.put("spmv_p90_ms", loop.percentile(spmv, 90), "ms", len(spmv))
    report.put("delta_p50_ms", loop.percentile(deltas, 50), "ms",
               len(deltas))
    report.put("delta_p90_ms", loop.percentile(deltas, 90), "ms",
               len(deltas))
    report.put("success_frac", ok / max(report.attempted, 1), "frac",
               report.attempted)
    report.put("peak_rss_mb", rss_kb / 1024.0, "MB", 1)
    return report


def traced(args) -> Report:
    """Same seed and workload, one set-up: an untraced half window for
    reference, a traced half window, then the probe pass."""
    import loop
    import probes
    import workloads as wl
    from repro import obs
    from repro.serve import fingerprint
    from repro.types import BASIC_FORMATS

    report = Report()
    bench = loop.setup(args.workload, args.seed, args.size,
                       self_test_faults(args))
    inputs = bench.inputs
    checker = loop.Checker(inputs.chains, corrupt=args.corrupt_product)
    ids = itertools.count(1)  # call and span ids
    spans = probes.Spans(ids=ids)
    client = loop.CLIENT_TYPES[bench.workload](bench)
    half = args.seconds / 2.0
    gc.collect()
    try:
        writes = write_path(bench, checker, ids)
        plain = loop.run_window(client, half, checker, ids)
        tracer = obs.Tracer()
        with obs.installed(tracer):
            window = loop.run_window(client, half, checker, ids, writes)
        roots = tracer.roots()
        phase = writes.finish() if writes is not None else []
        spmv = [c for c in window.calls
                if c.kind == "spmv" and c.error is None]
        structures = inputs.structures()

        # Value refresh: fresh value sets of the matrices being served
        # right now.
        current = (client.matrices if bench.workload == "graph-churn"
                   else structures)
        refresh_plans = probes.probe_refresh(bench, current, checker, ids,
                                             args.seed)

        probe_root = spans.add("probe", time.perf_counter(), 0.0)
        probe_record = spans.records[-1]
        fp = [probes.median_time(spans, "probe.fingerprint", probe_root,
                                  fingerprint, m, reps=5)
              for m in structures]

        fills, missing = wl.family_fill_ins(inputs, args.seed, args.size)
        own = inputs.probe_matrices
        tuner = probes.probe_tuner(spans, probe_root, bench.tuner, own,
                                   fills)
        served = dict(tuner["served"])
        if writes is not None:
            served[id(writes.chain.base)] = writes.format

        # Kernels against each other, the host roofline and scipy.
        sp = probes.scipy_sparse()
        copy_gbps = probes.copy_bandwidth(spans, probe_root)
        kernels = [
            probes.probe_kernels(spans, probe_root, bench.tuner, m, fam,
                                 served[id(m)], sp)
            for m, fam in zip(own + fills,
                              inputs.probe_families[:len(own)] + missing)
        ]
        delta_parts = probes.probe_deltas(spans, probe_root, bench, served)

        cluster_calls, pickled, cluster_fallbacks = probes.probe_cluster(
            spans, probe_root, bench, checker, ids)
        probe_record["end"] = time.perf_counter()
        counters = bench.front.metrics.snapshot()["counters"]
        cache = bench.front.cache.stats()
    finally:
        bench.stop()

    calls = plain.calls + window.calls + phase + cluster_calls
    fallbacks = {**loop.fallbacks(counters), **tuner["fallbacks"],
                 **{f"cluster.{k}": v for k, v in cluster_fallbacks.items()}}
    account(report, checker, calls, bench, fallbacks, check_tails=False)
    report.require(pickled == 0, f"{pickled} operand bytes pickled")

    def put_ms(name, values):
        report.put(name, ms(loop.p50(values)), "ms", len(values))

    n = len(spmv)
    queued = [c.out["queued"] for c in spmv]
    plan = [c.out["plan"] for c in spmv]
    execute = [c.out["execute"] for c in spmv]
    residual = [c.wall - q - p - e
                for c, q, p, e in zip(spmv, queued, plan, execute)]
    put_ms("engine.queue_ms_p50", queued)
    put_ms("engine.residual_ms_p50", residual)

    fp_req = [fp[c.meta[0]] for c in spmv]
    put_ms("fingerprint.ms_p50", fp_req)
    report.put("fingerprint.share",
               sum(fp_req) / sum(c.wall for c in spmv), "frac", n)

    report.put("plancache.hit_ratio",
               sum(c.out["cache_hit"] for c in spmv) / n, "frac", n)
    report.put("plancache.refresh_ratio",
               sum(c.out["refreshed"] for c in spmv) / n, "frac", n)
    put_ms("plancache.refresh_ms_p50", refresh_plans)
    report.put("plancache.bytes", cache["bytes"], "bytes")

    put_ms("tuner.build_ms_p50", tuner["build"])
    put_ms("tuner.decide_ms_p50", tuner["decide"])
    for stage in ("cheap", "full"):
        report.put(f"tuner.cascade_{stage}",
                   counters.get(f"cascade_{stage}_hits", 0), "count")
    for stage in ("measure", "floor"):
        report.put(f"tuner.cascade_{stage}",
                   counters.get(f"cascade_{stage}_decisions", 0), "count")
    regrets = [k.regret for k in kernels[:len(own)]]
    report.put("tuner.regret_p50", loop.p50(regrets), "ratio", len(regrets))
    report.put("tuner.regret_max", max(regrets), "ratio", len(regrets))
    report.put("tuner.regret_skipped", sum(k.skipped for k in kernels),
               "count", len(kernels) * len(BASIC_FORMATS))

    put_ms("convert.ms_p50", tuner["convert"])
    report.put("convert.fill_ratio", loop.p50(tuner["fill"]), "ratio",
               len(tuner["fill"]))

    deltas = [c for c in window.calls + phase
              if c.kind == "delta" and c.error is None]
    for part in ("apply", "patch", "features"):
        put_ms(f"delta.{part}_ms_p50", delta_parts[part])
    report.put("delta.fast_path_ratio",
               sum(c.out["policy"] in ("patch", "refresh") for c in deltas)
               / max(len(deltas), 1), "frac", len(deltas))
    # Per delta: caller wall minus the probed parts of its own chain.
    residual = []
    for c in deltas:
        ci = c.meta[0]
        parts = (delta_parts["apply"][ci] + delta_parts["patch"][ci]
                 + delta_parts["features"][ci]
                 + 2 * delta_parts["fingerprint"][ci])
        residual.append(c.wall - parts)
    put_ms("delta.residual_ms_p50", residual)

    put_ms("kernel.execute_ms_p50", execute)
    for fmt in BASIC_FORMATS:
        rates = [k.gbps[fmt] for k in kernels if fmt in k.gbps]
        name = fmt.value.lower()
        report.put(f"kernel.gbps.{name}", loop.p50(rates), "GB/s",
                   len(rates))
        report.put(f"kernel.roofline_fraction.{name}",
                   loop.p50(rates) / copy_gbps, "frac", len(rates))
    report.put("host.copy_gbps", copy_gbps, "GB/s", 7)
    if sp is None:
        print("note: scipy does not import; kernel.scipy_ratio.* skipped",
              file=sys.stderr)
    else:
        for fam in wl.FAMILIES:
            ratios = [k.seconds[k.chosen] / k.scipy_seconds
                      for k in kernels if k.family == fam]
            report.put(f"kernel.scipy_ratio.{fam}", loop.p50(ratios),
                       "ratio", len(ratios))

    admit = [c.wall - c.out["dispatch"] for c in cluster_calls]
    transport = [c.out["dispatch"] - c.out["queued"] - c.out["plan"]
                 - c.out["execute"] for c in cluster_calls]
    put_ms("cluster.admit_ms_p50", admit)
    put_ms("cluster.transport_ms_p50", transport)
    report.put("cluster.operand_bytes_pickled", pickled, "bytes")

    plain_spmv = [c.wall for c in plain.calls
                  if c.kind == "spmv" and c.error is None]
    report.put("trace.overhead_frac",
               loop.p50([c.wall for c in spmv]) / loop.p50(plain_spmv) - 1.0,
               "frac", n)
    covered = sum(root.duration_seconds for root in roots)
    report.put("trace.coverage",
               covered / sum(c.wall for c in window.calls + phase), "frac",
               len(roots))

    wall = sum(c.wall for c in spmv)
    split = {"fingerprint": sum(fp_req), "queue": sum(queued),
             "plan": sum(plan), "execute": sum(execute)}
    split["rest"] = wall - sum(split.values())
    print("caller wall of spmv: " + ", ".join(
        f"{name} {part / wall:.0%}" for name, part in split.items()))
    l2, l3 = probes.cache_sizes()
    print(f"roofline: copy of {probes.COPY_BYTES >> 20} MiB arrays = "
          f"{copy_gbps:.2f} GB/s; L2 4 MiB/core "
          f"(reported {l2 and l2 >> 20} MiB), reported L3 "
          f"{l3 and l3 >> 20} MiB; kernel GB/s are computed from bytes")
    write_spans(args, spans, calls, roots)
    return report


def write_spans(args, spans, calls, roots) -> None:
    """Spans stay in memory during the run and are written here."""
    from repro import obs

    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    records = [
        {"id": c.rid, "name": f"client.{c.kind}", "start": c.start,
         "end": c.end, "parent": None, "error": repr(c.error)
         if c.error else None, **(c.out or {})}
        for c in calls
    ] + spans.records
    (out / f"spans-{stem}.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records))
    obs.write_jsonl(roots, out / f"obs-{stem}.jsonl")


def reap_helpers() -> None:
    """Wait for every process this run started.  Shard processes are
    joined by ``ClusterDispatcher.stop``; the resource tracker that
    multiprocessing starts for shared memory is stopped here."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    try:
        report = traced(args) if args.trace else untraced(args)
    finally:
        reap_helpers()
    print(f"{args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}):")
    return report.emit()


if __name__ == "__main__":
    sys.exit(main())
