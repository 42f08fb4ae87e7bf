"""The three sweep workloads: ``assoc-grid``, ``table8-percell`` and
``chain-checked``.

Each one generates its traces from the suite specs with every
``TraceSpec.seed`` offset by the run's ``--seed``, then runs
:func:`repro.runner.run_sweep` over them repeatedly.  Every repeat gets
fresh trace objects and an empty decode-view registry, so it pays what a
user pays for one sweep over freshly loaded traces; checkpoints go to
the run's own temporary directory.

Sweeps run in the main thread, so the timed figures are its CPU time:
unlike wall time, it leaves out the time a busy host keeps the process
waiting for a core.  Each set-up repeat and each sweep is then scaled to
the reference host by the :mod:`hostspeed` samples taken while it ran.
The record keeps the unscaled CPU figures and the wall-clock ones.
"""

from __future__ import annotations

import hashlib
import random
import re
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.trace.filters as filters_module
from repro.analysis.paper_data import TABLE8
from repro.core.config import CacheGeometry
from repro.core.fetch import make_fetch
from repro.core.misspath import MissPathConfig
from repro.core.replacement import make_replacement
from repro.engine.base import make_engine
from repro.engine.traceview import TraceView
from repro.runner.health import CellStatus
from repro.runner.runner import RunnerConfig, cell_key, run_sweep
from repro.trace.record import Trace
from repro.workloads.architectures import get_architecture
from repro.workloads.suites import clear_trace_cache, suite_specs

from checks import (
    compare_counters,
    conservation_failures,
    counters_digest,
)
from hostspeed import HostSpeed
from spans import Cell, Recorder

__all__ = ["Outcome", "SWEEP_WORKLOADS", "Sweep", "SweepWorkload", "run_workload"]

#: Trace length of the paper's experiments.
PAPER_LENGTH = 1_000_000

#: Setup is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: ``--seed`` shifts every ``TraceSpec.seed`` by this much per unit.
SEED_STRIDE = 100


@dataclass(frozen=True)
class Sweep:
    """One ``run_sweep`` call of a workload."""

    tag: str
    geometries: Tuple[CacheGeometry, ...]
    fetch: str = "demand"
    miss_path: Optional[MissPathConfig] = None
    engine: str = "auto"
    paper_row: Optional[Tuple[int, int, int, bool]] = None


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    traces: Tuple[Tuple[str, str], ...]
    length: int
    sweeps: Tuple[Sweep, ...]
    checkpoint: bool = False
    #: Cells re-simulated per run on an independent engine (0 = all).
    samples: int = 1


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float]
    repeats: Dict[str, List[float]]
    attempted: int
    failed: int
    failures: List[str]
    digest: str
    record: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Scales the run's start-up CPU time to the reference host.
    host_factor: float = 1.0


def _grid(block: int, sets: int, subs: Sequence[int]) -> Tuple[CacheGeometry, ...]:
    """Associativity {1,2,4,8} x ``subs`` inside one (block, sets) group."""
    return tuple(
        CacheGeometry(block * ways * sets, block, sub, associativity=ways)
        for ways in (1, 2, 4, 8)
        for sub in subs
    )


def _table8_sweeps() -> Tuple[Sweep, ...]:
    # The 256-byte, 16-byte-block rows: full-block demand, two-byte
    # sub-block demand, and two-byte sub-block load-forward.
    rows = [row for row in sorted(TABLE8) if row[:2] == (256, 16)]
    return tuple(
        Sweep(
            tag=f"{net}:{block},{sub}{',LF' if forward else ''}",
            geometries=(CacheGeometry(net, block, sub),),
            fetch="load-forward" if forward else "demand",
            paper_row=(net, block, sub, forward),
        )
        for net, block, sub, forward in rows
    )


SWEEP_WORKLOADS: Dict[str, SweepWorkload] = {
    workload.name: workload
    for workload in (
        SweepWorkload(
            name="assoc-grid",
            traces=(("pdp11", "ED"), ("pdp11", "OPSYS")),
            length=PAPER_LENGTH,
            # Every group has >= 2 cells, so the planner sends the whole
            # grid to stack-distance passes; the 4-set group is the one
            # where a pass costs more than per-cell runs would.
            sweeps=(Sweep("grid", _grid(16, 4, (8, 16)) + _grid(32, 32, (16, 32))),),
            samples=2,
        ),
        SweepWorkload(
            name="table8-percell",
            traces=(("z8000", "CPP"), ("z8000", "C1"), ("z8000", "C2")),
            length=PAPER_LENGTH,
            sweeps=_table8_sweeps(),
            checkpoint=True,
            samples=1,
        ),
        SweepWorkload(
            name="chain-checked",
            traces=(("vax", "c2"),),
            length=200_000,
            sweeps=(
                Sweep(
                    "chain",
                    (
                        CacheGeometry(128, 16, 8, associativity=2),
                        CacheGeometry(256, 16, 8, associativity=2),
                    ),
                    miss_path=MissPathConfig(
                        victim_entries=4, stream_buffers=4, stream_depth=4,
                        l2_net_size=4096,
                    ),
                    engine="checked",
                ),
            ),
            samples=0,
        ),
    )
}


# -- Inputs ------------------------------------------------------------------


def build_traces(workload: SweepWorkload, seed: int) -> List[Trace]:
    """Generate and read-filter the workload's traces for ``seed``."""
    clear_trace_cache()
    traces = []
    for suite, name in workload.traces:
        (spec,) = [spec for spec in suite_specs(suite) if spec.name == name]
        spec = replace(spec, seed=spec.seed + SEED_STRIDE * seed)
        traces.append(filters_module.reads_only(spec.build(workload.length)))
    return traces


def trace_digest(trace: Trace) -> str:
    digest = hashlib.sha256()
    for column in (trace.addrs, trace.kinds, trace.sizes):
        digest.update(column.tobytes())
    return digest.hexdigest()[:16]


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    (kb,) = re.findall(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    return int(kb) / 1024


def repeat_until(seconds: float, once: Callable[[int], Any], minimum: int) -> List[Any]:
    """Call ``once(i)`` until ``seconds`` are spent (at least ``minimum``
    times); a repeat starts only if half of the last one still fits."""
    results = []
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(once(len(results)))
        took = time.perf_counter() - before
        if len(results) >= minimum and time.perf_counter() - started + took / 2 > seconds:
            return results


def word_size(workload: SweepWorkload) -> int:
    (word,) = {get_architecture(suite).word_size for suite, _ in workload.traces}
    return word


# -- One measured repeat -------------------------------------------------------


@dataclass
class _Repeat:
    wall: float
    #: CPU seconds of the main thread over the sweeps.
    cpu: float
    #: The same, each sweep scaled to the reference host.
    scaled: float
    #: Runner time of each cell, times its sweep's CPU/wall ratio.
    cell_cpu: List[float]
    #: The same, scaled like its sweep.
    cell_scaled: List[float]
    recorder: Recorder
    cells: Dict[str, Tuple[Sweep, Cell]]
    outcomes: List[Any]
    checkpoint_bytes: int
    points: Dict[str, Any]


def _run_repeat(
    workload: SweepWorkload,
    traces: List[Trace],
    tmp: Path,
    index: int,
    tracing: bool,
    host: HostSpeed,
) -> _Repeat:
    # New trace identities and an empty view registry: decode products
    # are rebuilt, as for a sweep over freshly loaded traces.
    fresh = [Trace(t.addrs, t.kinds, t.sizes, name=t.name) for t in traces]
    TraceView._registry.clear()
    recorder = Recorder(tracing)
    cells: Dict[str, Tuple[Sweep, Cell]] = {}
    outcomes: List[Any] = []
    points: Dict[str, Any] = {}
    paths: List[Path] = []
    word = word_size(workload)
    cell_cpu: List[float] = []
    cell_scaled: List[float] = []
    wall = cpu = scaled = 0.0
    with recorder.installed():
        for sweep in workload.sweeps:
            checkpoint = None
            if workload.checkpoint:
                checkpoint = tmp / f"rep{index}.{len(paths)}.jsonl"
                paths.append(checkpoint)
            config = RunnerConfig(engine=sweep.engine, checkpoint=checkpoint)
            first = len(recorder.cells)
            started = time.perf_counter()
            cpu_started = time.thread_time()
            with recorder.span("runner.sweep"):
                swept, report = run_sweep(
                    fresh, sweep.geometries, word_size=word,
                    fetch=sweep.fetch, miss_path=sweep.miss_path,
                    filter_writes=False, config=config,
                )
            sweep_cpu = time.thread_time() - cpu_started
            ended = time.perf_counter()
            factor = host.factor(started, ended)
            wall += ended - started
            cpu += sweep_cpu
            scaled += sweep_cpu * factor
            ratio = sweep_cpu / (ended - started)
            cell_cpu += [o.elapsed * ratio for o in report.outcomes]
            cell_scaled += [o.elapsed * ratio * factor for o in report.outcomes]
            outcomes.extend(report.outcomes)
            points[sweep.tag] = swept
            for cell in recorder.cells[first:]:
                cells[f"{sweep.tag}/{cell_key(cell[1], cell[2])}"] = (sweep, cell)
    return _Repeat(
        wall, cpu, scaled, cell_cpu, cell_scaled, recorder, cells, outcomes,
        sum(path.stat().st_size for path in paths), points,
    )


# -- Checks ------------------------------------------------------------------


def _independent_run(
    sweep: Sweep, cell: Cell, traces: Dict[str, Trace], word: int
) -> Tuple[str, Dict[str, Any], Dict[str, Any]]:
    """Simulate ``cell`` again on an engine other than the one that ran it.

    Stack-distance cells go to the vectorized engine and vectorized
    cells to the reference engine.  Chained cells run chainless on the
    vectorized engine, which must reproduce their L1 counters (the
    chain never perturbs the L1).
    """
    engine_name, geometry, trace_name, _, stats = cell
    chained = stats.misspath is not None
    other = "reference" if engine_name == "vectorized" else "vectorized"
    again = make_engine(other).run(
        geometry, traces[trace_name],
        replacement=make_replacement("lru"), fetch=make_fetch(sweep.fetch),
        word_size=word, warmup="fill",
    )
    expected = again.to_dict()
    observed = stats.to_dict()
    if chained:
        observed.pop("misspath")
    return other, expected, observed


def _checks(
    workload: SweepWorkload,
    repeats: List[_Repeat],
    traces: List[Trace],
    seed: int,
) -> Tuple[List[str], Dict[str, Dict[str, Any]]]:
    failures: List[str] = []
    word = word_size(workload)
    first = repeats[0]
    expected_cells = sum(len(s.geometries) for s in workload.sweeps) * len(traces)
    for repeat in repeats:
        if len(repeat.cells) != expected_cells:
            failures.append(
                f"{len(repeat.cells)} cells captured, expected {expected_cells}"
            )
    counters = {label: cell[4].to_dict() for label, (_, cell) in first.cells.items()}
    for number, repeat in enumerate(repeats[1:], start=1):
        again = {label: cell[4].to_dict() for label, (_, cell) in repeat.cells.items()}
        if again != counters:
            failures.append(f"repeat {number} counters differ from repeat 0")
    for label, (_, cell) in first.cells.items():
        failures += conservation_failures(label, cell[4], cell[1], word)
    labels = sorted(first.cells)
    count = workload.samples or len(labels)
    by_name = {trace.name: trace for trace in traces}
    for label in random.Random(seed).sample(labels, min(count, len(labels))):
        sweep, cell = first.cells[label]
        other, expected, observed = _independent_run(sweep, cell, by_name, word)
        failures += compare_counters(f"{label} vs {other}", expected, observed)
    return failures, counters


# -- Metrics -----------------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _figures(
    repeat: _Repeat, seconds: float, cell_seconds: Sequence[float]
) -> Dict[str, float]:
    """One repeat's figures, with its sweeps and cells timed as given."""
    accesses = sum(cell[3] for _, cell in repeat.cells.values())
    return {
        "maccesses_per_s": accesses / seconds / 1e6,
        "rps": len(repeat.outcomes) / seconds,
        "compute_p50_ms": 1000 * _median(cell_seconds),
    }


def _layers(repeat: _Repeat, n_traces: int) -> Dict[str, float]:
    rec = repeat.recorder
    passes = rec.count("stackdist.pass")
    return {
        "stackdist.pass_s": rec.total("stackdist.pass"),
        "stackdist.passes": passes,
        "stackdist.cells_per_pass": (
            rec.count("stackdist.pass", "cells") / passes if passes else 0.0
        ),
        "stackdist.planner.plan_s": rec.total("stackdist.planner.plan"),
        "stackdist.planner.percell_cells": (
            rec.count("stackdist.planner.plan", "percell_geometries") * n_traces
        ),
        "engine.vectorized.run_s": rec.total("engine.vectorized"),
        "engine.vectorized.cells": rec.count("engine.vectorized"),
        "engine.checked.run_s": rec.total("engine.checked"),
        "runner.checkpoint.write_s": rec.total("runner.checkpoint.write"),
        "runner.checkpoint.bytes": repeat.checkpoint_bytes,
        "staticcheck.preflight_s": rec.total("staticcheck.preflight"),
        "runner.self_s": rec.self_time("runner.sweep"),
    }


def _chain_layers(
    repeat: _Repeat, traces: List[Trace], word: int, recorder: Recorder
) -> Dict[str, float]:
    """Chain figures: the checked cells timed against reference runs.

    ``overhead_x`` is checked time over reference time on the same
    chained cells; ``core.misspath.overhead_s`` is the reference
    engine's chained minus chainless time on those cells.
    """
    by_name = {trace.name: trace for trace in traces}
    chained = [(s, c) for s, c in repeat.cells.values() if c[4].misspath is not None]
    if not chained:
        return {}
    times = {"chained": 0.0, "chainless": 0.0}
    demand = serviced = memory = 0
    with recorder.installed():
        for sweep, (_, geometry, name, _, stats) in chained:
            for kind, miss_path in (("chained", sweep.miss_path), ("chainless", None)):
                started = time.perf_counter()
                make_engine("reference").run(
                    geometry, by_name[name],
                    replacement=make_replacement("lru"),
                    fetch=make_fetch(sweep.fetch), word_size=word,
                    warmup="fill", miss_path=miss_path,
                )
                times[kind] += time.perf_counter() - started
            demand += stats.misspath.demand_misses
            serviced += stats.misspath.structure_hits
            memory += stats.misspath.memory_bytes_fetched
    checked = repeat.recorder.total("engine.checked")
    return {
        "engine.checked.overhead_x": checked / times["chained"],
        "core.misspath.overhead_s": times["chained"] - times["chainless"],
        "core.misspath.hit_ratio": serviced / demand if demand else 0.0,
        "core.misspath.memory_bytes": memory,
    }


def _fidelity(workload: SweepWorkload, repeat: _Repeat) -> Optional[Dict[str, Any]]:
    """Mean |miss ratio - Table 8| over the rows, on substitute traces."""
    rows = [s for s in workload.sweeps if s.paper_row is not None]
    if not rows:
        return None
    diffs = [
        abs(repeat.points[s.tag][0].miss_ratio - TABLE8[s.paper_row].miss_ratio)
        for s in rows
    ]
    return {
        "label": "substitute-trace fidelity (not gated)",
        "table8_rows": len(rows),
        "mean_abs_miss_ratio_diff": sum(diffs) / len(diffs),
    }


# -- The run -------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    tracing: bool,
    tmp: Path,
) -> Outcome:
    """Set up, measure for ``seconds`` and check one sweep workload.

    In traced runs the measured repeats alternate untraced and traced,
    and the difference of their median wall times is the tracing
    overhead.
    """
    workload = SWEEP_WORKLOADS[name]
    #: (scaled CPU, CPU and wall seconds, recorder) of each set-up repeat
    setups: List[Tuple[float, float, float, Recorder]] = []
    traces: List[Trace] = []
    with HostSpeed() as host:
        for _ in range(SETUP_REPEATS):
            recorder = Recorder(tracing)
            traces = []  # drop the previous repeat's traces before building
            with recorder.installed():
                started = time.perf_counter()
                cpu_started = time.thread_time()
                traces = build_traces(workload, seed)
                cpu = time.thread_time() - cpu_started
                ended = time.perf_counter()
            setups.append((
                cpu * host.factor(started, ended), cpu, ended - started, recorder
            ))

        repeats: List[_Repeat] = repeat_until(
            seconds,
            lambda i: _run_repeat(
                workload, traces, tmp, i, tracing and i % 2 == 1, host
            ),
            2 if tracing else 1,
        )
    rss_mb = peak_rss_mb()  # before the checks, which run other engines
    failures, counters = _checks(workload, repeats, traces, seed)
    attempted = sum(len(r.outcomes) for r in repeats)
    failed = sum(1 for r in repeats for o in r.outcomes if o.status is CellStatus.SKIPPED)
    untraced = [r for r in repeats if not r.recorder.tracing]
    traced = [r for r in repeats if r.recorder.tracing]
    per_repeat = [_figures(r, r.scaled, r.cell_scaled) for r in untraced]
    repeats_by_metric = {
        key: [values[key] for values in per_repeat] for key in per_repeat[0]
    }
    repeats_by_metric["setup_s"] = [scaled for scaled, _, _, _ in setups]
    unscaled = [_figures(r, r.cpu, r.cell_cpu) for r in untraced]
    wall_clock = [
        _figures(r, r.wall, [o.elapsed for o in r.outcomes]) for r in untraced
    ]
    record: Dict[str, Any] = {
        "host": {
            "factor": host.overall(),
            "samples": len(host.samples),
            "kernel_median_s": _median([s for _, s in host.samples]),
        },
        "unscaled_cpu": {
            **{key: _median([v[key] for v in unscaled]) for key in unscaled[0]},
            "setup_s": _median([cpu for _, cpu, _, _ in setups]),
        },
        "wall_clock": {
            **{key: _median([v[key] for v in wall_clock]) for key in wall_clock[0]},
            "setup_s": _median([wall for _, _, wall, _ in setups]),
        },
        "inputs": {trace.name: trace_digest(trace) for trace in traces},
        "cells_per_repeat": len(repeats[0].cells),
        "engines": sorted({cell[0] for _, cell in repeats[0].cells.values()}),
    }
    fidelity = _fidelity(workload, repeats[0])
    if fidelity is not None:
        record["fidelity"] = fidelity

    spans: List[Dict[str, Any]] = []
    if tracing:
        layer_runs = [_layers(r, len(traces)) for r in traced]
        metrics = {
            key: _median([run[key] for run in layer_runs]) for key in layer_runs[0]
        }
        metrics["workloads.generate_s"] = _median(
            [rec.total("workloads.generate") for _, _, _, rec in setups]
        )
        metrics["trace.filter_s"] = _median(
            [rec.total("trace.filter") for _, _, _, rec in setups]
        )
        extra = Recorder(True)
        metrics.update(_chain_layers(traced[0], traces, word_size(workload), extra))
        metrics["bench.tracing_overhead_s"] = (
            _median([r.wall for r in traced]) - _median([r.wall for r in untraced])
        )
        for phase, recorder in (
            *(("setup", rec) for _, _, _, rec in setups),
            *(("repeat", r.recorder) for r in traced),
            ("chain-reference", extra),
        ):
            spans.append(
                {"phase": phase, "spans": [s.to_dict() for s in recorder.spans]}
            )
    else:
        metrics = {key: _median(values) for key, values in repeats_by_metric.items()}
        metrics["peak_rss_mb"] = rss_mb
    return Outcome(
        metrics=metrics,
        repeats=repeats_by_metric,
        attempted=attempted,
        failed=failed,
        failures=failures,
        digest=counters_digest(counters),
        record=record,
        spans=spans,
        host_factor=host.overall(),
    )
