"""CI perf smoke: prove the vectorized engine beats the reference loop.

A deliberately small, dependency-free timing check (no pytest-benchmark)
for the CI perf-smoke step::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--length N] [--min-speedup X]

Runs the PDP-11 ED trace through both engines on the paper's headline
geometry, verifies the stats are identical (the equivalence contract,
end to end), prints accesses/second for each, writes
``BENCH_engines.json`` next to this file, and exits non-zero if the
vectorized engine is not at least ``--min-speedup`` times faster.  The
artifact records how it was made: trace length, git sha, Python and
NumPy versions, core count and the command line.

The default threshold is intentionally far below the typical speedup
(5-10x on this workload) so the gate catches "vectorized silently fell
back to scalar" regressions without flaking on noisy CI machines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy

from repro.core.config import CacheGeometry
from repro.engine import TraceView, make_engine
from repro.trace.filters import reads_only
from repro.workloads.suites import suite_trace


def _git(*args):
    """Output of one git command in this checkout; None outside git."""
    try:
        result = subprocess.run(
            ["git", *args], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def _time_engine(name: str, geometry: CacheGeometry, view: TraceView, repeats: int):
    engine = make_engine(name)
    engine.run(geometry, view)  # warm caches (decode, fetch plans)
    best = float("inf")
    stats = None
    for _ in range(repeats):
        start = time.perf_counter()
        stats = engine.run(geometry, view)
        best = min(best, time.perf_counter() - start)
    return stats, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=30_000)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    trace = reads_only(suite_trace("pdp11", "ED", length=args.length))
    geometry = CacheGeometry(1024, 16, 8)
    view = TraceView.of(trace)

    results = {}
    for name in ("reference", "vectorized"):
        stats, seconds = _time_engine(name, geometry, view, args.repeats)
        results[name] = {
            "accesses": len(trace),
            "mean_seconds": seconds,
            "accesses_per_second": len(trace) / seconds,
            "miss_ratio": stats.miss_ratio,
        }
        print(
            f"{name:>10s}: {len(trace) / seconds:12,.0f} accesses/s "
            f"({seconds * 1e3:7.2f} ms, miss ratio {stats.miss_ratio:.4f})"
        )

    if results["reference"]["miss_ratio"] != results["vectorized"]["miss_ratio"]:
        print("perf-smoke: FAIL — engines disagree on the miss ratio")
        return 1

    speedup = (
        results["vectorized"]["accesses_per_second"]
        / results["reference"]["accesses_per_second"]
    )
    artifact = Path(__file__).resolve().parent / "BENCH_engines.json"
    artifact.write_text(
        json.dumps(
            {
                "trace": "pdp11/ED (reads only)",
                "length": args.length,
                "geometry": "1024:16,8@4",
                "repeats": args.repeats,
                "timing": "best of repeats, after one warm-up run",
                "provenance": {
                    "git_sha": _git("rev-parse", "HEAD") or None,
                    # Uncommitted changes to tracked files at measurement.
                    "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "nproc": os.cpu_count(),
                    "argv": [sys.argv[0], *(sys.argv[1:] if argv is None else argv)],
                },
                "engines": results,
                "speedup_vectorized_vs_reference": speedup,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"   speedup: {speedup:.2f}x (artifact: {artifact})")
    if speedup < args.min_speedup:
        print(
            f"perf-smoke: FAIL — vectorized must be >= {args.min_speedup}x "
            "the reference engine"
        )
        return 1
    print("perf-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
