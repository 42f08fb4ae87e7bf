"""Paper-scale benchmark of the cache simulator.

Run from the repository root::

    python3 perfbench/run.py --workload assoc-grid --seed 0 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``assoc-grid``     — LRU/demand grid answered by stack-distance passes;
* ``table8-percell`` — the Table 8 rows, one vectorized run per cell,
  with JSONL checkpoints;
* ``chain-checked``  — miss-path chain on the checked engine;
* ``service-mix``    — ``repro serve`` under two closed-loop clients.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics from spans recorded around
the calls into each layer.  Every run checks its outputs exactly and
prints a provenance record before the last line, which is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Timed
figures are scaled to a reference host by host-speed samples (see
``hostspeed.py`` and the README): CPU time for the sweep workloads,
wall time for ``service-mix``.  The run exits 1 when any check fails.
``--record-digest`` (with ``--seed 0``) stores the run's counter digest
in ``perfbench/digests.json``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("assoc-grid", "table8-percell", "chain-checked", "service-mix")
DEFAULT_SEED = 0


def _process_age() -> float:
    """Seconds since the kernel started this process (10 ms resolution)."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22, starttime
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


_AGE_AT_START = _process_age()


def _spread(values):
    """Median and quartiles of per-repeat values, with the sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0] if values else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    """HEAD of the repository rooted at ROOT; None anywhere else."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = result.stdout.split()
    if result.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digest", action="store_true",
        help="store this default-seed run's counter digest in digests.json",
    )
    args = parser.parse_args(argv)
    if args.record_digest and args.seed != DEFAULT_SEED:
        parser.error("--record-digest needs the default seed")
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no src/repro or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from checks import digest_failures, record_digest
    from service_mix import run_service_mix
    from sweeps import run_workload

    # Interpreter start and imports: CPU time since the process began.
    startup_s = time.process_time()
    startup_wall_s = _AGE_AT_START + time.perf_counter() - _STARTED
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = definitions["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.workload == "service-mix":
            outcome = run_service_mix(ROOT, args.seed, bool(args.trace), tmp)
        else:
            outcome = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), tmp
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = outcome.metrics
    if not args.trace:
        metrics["setup_s"] += startup_s * outcome.host_factor
    failures = list(outcome.failures)
    if args.record_digest:
        if not failures:
            record_digest(args.workload, outcome.digest)
    elif args.seed == DEFAULT_SEED:
        failures += digest_failures(args.workload, outcome.digest)

    # Layers a workload does not reach report 0.
    values = {m["name"]: float(metrics.get(m["name"], 0.0)) for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in metrics and not args.trace]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    correct = not failures and outcome.failed == 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "argv": sys.argv,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "startup_s": startup_s,
        "startup_wall_s": startup_wall_s,
        "counter_digest": outcome.digest,
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "failures": failures,
        "repeats": {key: _spread(v) for key, v in outcome.repeats.items()},
        **outcome.record,
    }
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": values, "spans": outcome.spans}, indent=1)
        + "\n"
    )

    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for m in wanted:
        print(f"{m['name']:34s} {values[m['name']]:16.6f} {m['unit']}")
    print("record:", json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
