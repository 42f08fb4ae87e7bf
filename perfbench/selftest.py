"""Self-test of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py

It shows that

1. a perturbed counter makes the output checks fail;
2. another ``--seed`` generates other inputs and the run still passes
   its checks;
3. every metric and workload name matches ``[A-Za-z0-9_.-]+``;
4. without the program beside it, ``run.py`` exits non-zero and prints
   no result.

Exits 0 when all of them hold.  Part 2 runs ``chain-checked`` twice, so
the whole test takes about 40 seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import CacheGeometry  # noqa: E402
from repro.core.misspath import MissPathConfig  # noqa: E402
from repro.engine.reference import ReferenceEngine  # noqa: E402
from repro.engine.vectorized import VectorizedEngine  # noqa: E402
from repro.trace.filters import reads_only  # noqa: E402
from repro.workloads.suites import suite_trace  # noqa: E402

from checks import compare_counters, conservation_failures, counters_digest  # noqa: E402
from run import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def perturbed_counter_fails() -> None:
    trace = reads_only(suite_trace("pdp11", "ED", length=20_000))
    geometry = CacheGeometry(256, 16, 8, associativity=2)
    stats = VectorizedEngine().run(geometry, trace, word_size=2)
    reference = ReferenceEngine().run(geometry, trace, word_size=2).to_dict()
    assert not conservation_failures("clean", stats, geometry, 2)
    assert not compare_counters("clean", reference, stats.to_dict())
    digest = counters_digest({"cell": stats.to_dict()})

    stats.misses += 1
    assert conservation_failures("perturbed", stats, geometry, 2)
    assert compare_counters("perturbed", reference, stats.to_dict()) == [
        f"perturbed: misses {stats.misses} != {stats.misses - 1}"
    ]
    assert counters_digest({"cell": stats.to_dict()}) != digest

    chain = MissPathConfig(victim_entries=4, stream_buffers=4, stream_depth=4)
    chained = ReferenceEngine().run(geometry, trace, word_size=2, miss_path=chain)
    assert not conservation_failures("chained", chained, geometry, 2)
    chained.misspath.memory_fetches += 1
    assert conservation_failures("chained", chained, geometry, 2)


def _run(workload: str, seed: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def seed_changes_inputs_and_passes() -> None:
    inputs = []
    for seed in (0, 1):
        result = _run("chain-checked", seed)
        lines = result.stdout.strip().splitlines()
        assert result.returncode == 0, result.stdout + result.stderr
        assert json.loads(lines[-1])["correct"] is True
        (record,) = [line for line in lines if line.startswith("record: ")]
        inputs.append(json.loads(record[len("record: "):])["inputs"])
    assert inputs[0] != inputs[1], inputs


def names_are_well_formed() -> None:
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in definitions["workloads"]]
    assert tuple(names) == WORKLOADS, names
    for group in ("end_to_end", "per_layer"):
        names += [metric["name"] for metric in definitions[group]]
    bad = [name for name in names if not NAME.fullmatch(name)]
    assert not bad, bad
    assert len(names) == len(set(names))


def fails_without_program() -> None:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        result = _run("assoc-grid", 0, cwd=bare)
        assert result.returncode != 0
        assert '"correct"' not in result.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    failed = 0
    for test in (
        names_are_well_formed,
        perturbed_counter_fails,
        fails_without_program,
        seed_changes_inputs_and_passes,
    ):
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
