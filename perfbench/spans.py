"""In-memory spans around calls into the simulator's layers.

The program carries no tracing of its own.  :class:`Recorder` patches
the public entry points the workloads reach, records one span per call
(name, start, end, parent) and restores the originals on exit.  Every
engine call and stack-distance pass also hands its ``CacheStats`` to
the recorder, which is how the output checks see every cell: the sweep
runner itself returns only ratios.  With ``tracing=False`` only that
capture is installed, so an untraced run pays one list append per cell.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.runner.runner as runner_module
import repro.staticcheck.preflight as preflight_module
import repro.trace.filters as filters_module
from repro.core.config import CacheGeometry
from repro.engine.checked import CheckedEngine
from repro.engine.reference import ReferenceEngine
from repro.engine.vectorized import VectorizedEngine
from repro.runner.checkpoint import CheckpointWriter
from repro.workloads.suites import TraceSpec

__all__ = ["Cell", "Recorder", "Span"]


class Span:
    """One timed call: ``parent`` indexes the enclosing span, or is None."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, **self.attrs,
        }


#: (engine, geometry, trace name, trace length, CacheStats)
Cell = Tuple[str, CacheGeometry, str, int, Any]


class Recorder:
    """Spans and per-cell results of one traced or untraced phase."""

    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        self.spans: List[Span] = []
        self.cells: List[Cell] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        """Time the enclosed block as one span (a no-op when untraced)."""
        if not self.tracing:
            yield None
            return
        index = len(self.spans)
        span = Span(name, 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- Derived figures --------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str, attr: Optional[str] = None) -> int:
        """Number of ``name`` spans, or the sum of their ``attr``."""
        spans = [s for s in self.spans if s.name == name]
        return sum(s.attrs[attr] for s in spans) if attr else len(spans)

    def self_time(self, name: str) -> float:
        """Time inside ``name`` spans not covered by their direct children.

        Children of one span run one after another in this single
        thread, so their durations never overlap and can be summed.
        """
        total = 0.0
        for index, span in enumerate(self.spans):
            if span.name == name:
                children = sum(
                    child.duration for child in self.spans
                    if child.parent == index
                )
                total += span.duration - children
        return total

    # -- Patching ----------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Patch the layer entry points for the enclosed block."""
        patches: List[Tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
            original = getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

        def engine_run(original: Any) -> Any:
            def run(engine: Any, geometry: CacheGeometry, trace: Any, **kwargs: Any):
                with self.span(f"engine.{engine.name}"):
                    stats = original(engine, geometry, trace, **kwargs)
                self.cells.append(
                    (engine.name, geometry, trace.name, len(trace), stats)
                )
                return stats
            return run

        def group_pass(original: Any) -> Any:
            def run(trace: Any, block_size: int, num_sets: int, members: Any, **kwargs: Any):
                with self.span("stackdist.pass") as span:
                    stats_list = original(trace, block_size, num_sets, members, **kwargs)
                if span is not None:
                    span.attrs["cells"] = len(members)
                for member, stats in zip(members, stats_list):
                    geometry = CacheGeometry(
                        block_size * num_sets * member.ways, block_size,
                        member.sub_block_size, associativity=member.ways,
                    )
                    self.cells.append(
                        ("stackdist", geometry, trace.name, len(trace), stats)
                    )
                return stats_list
            return run

        def plan(original: Any) -> Any:
            def run(geometries: Any, *args: Any, **kwargs: Any):
                with self.span("stackdist.planner.plan") as span:
                    result = original(geometries, *args, **kwargs)
                if span is not None:
                    span.attrs["percell_geometries"] = len(result.fallback_indices)
                return result
            return run

        def timed(name: str) -> Callable[[Any], Any]:
            def make(original: Any) -> Any:
                def run(*args: Any, **kwargs: Any):
                    with self.span(name):
                        return original(*args, **kwargs)
                return run
            return make

        for engine_class in (VectorizedEngine, ReferenceEngine, CheckedEngine):
            patch(engine_class, "run", engine_run)
        patch(runner_module, "run_group_pass", group_pass)
        if self.tracing:
            patch(runner_module, "plan_grid", plan)
            patch(TraceSpec, "build", timed("workloads.generate"))
            patch(filters_module, "reads_only", timed("trace.filter"))
            patch(CheckpointWriter, "record_cell", timed("runner.checkpoint.write"))
            patch(preflight_module, "preflight_sweep", timed("staticcheck.preflight"))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
