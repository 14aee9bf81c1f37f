#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A tiny run of every workload ``run.py`` offers, untraced and traced,
   exits 0 and prints as its last line exactly the metric names (and
   units) BENCHMARK.json lists for that mode.  ``kernel.scipy_ratio.*``
   is left out when scipy does not import.
2. A run whose checker sees one deliberately corrupted product, and a
   run whose plan builds all fail (so the engine serves correct products
   through its degraded CSR plan), each exit non-zero and report
   ``"correct": false``.
3. A copy of only BENCHMARK.json and the benchmark's directories, with
   no program source beside it, exits non-zero without a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 180


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def expected_metrics(spec, trace: int):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in metrics}
    try:
        import scipy.sparse  # noqa: F401
    except ImportError:
        names = {n: u for n, u in names.items()
                 if not n.startswith("kernel.scipy_ratio.")}
    return names


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"][1:]
    failures = []

    def fail(message: str) -> None:
        failures.append(message)
        print(f"FAIL {message}")

    from run import WORKLOADS

    missing = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if missing:
        fail(f"BENCHMARK.json names unknown workloads {sorted(missing)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc, result = run(command + [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny",
            ])
            if proc.returncode != 0 or result is None:
                fail(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            want = expected_metrics(spec, trace)
            if got != want:
                fail(f"{label}: metrics differ: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, units "
                     f"{[n for n in want if n in got and got[n] != want[n]]}")
            elif not result["correct"] or result["attempted"] < 1:
                fail(f"{label}: {result}")
            else:
                print(f"ok   {label}: {len(got)} metrics")

    for label, hook in (("corrupted product", "--corrupt-product"),
                        ("degraded builds", "--fail-builds")):
        proc, result = run(command + [
            "--workload", "hot-zipf", "--seed", "1", "--seconds", "1",
            "--size", "tiny", hook,
        ])
        if proc.returncode == 0 or result is None or result["correct"]:
            fail(f"{label}: exit {proc.returncode}, result {result}")
        else:
            print(f"ok   {label}: exit {proc.returncode}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run(command + [
        "--workload", "hot-zipf", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    ], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result is not None:
        fail(f"no program source: exit {proc.returncode}, result {result}")
    else:
        print(f"ok   no program source: exit {proc.returncode}")

    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
