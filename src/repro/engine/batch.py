"""Batch entry point: run many cells over one trace, decoding it once.

The service's query mix — and the paper's own sweeps — evaluate many
near-identical configurations against a shared trace corpus, so the
profitable unit of work is not one cell but one *trace group*: prepare
the trace a single time (read filtering, decode products), then run
every cell of the group against the shared view.

This module is that entry point.  It also carries the thread-safety
contract the service's worker pool relies on: :class:`TraceView`'s
decode caches are plain LRU dicts with no locking, so concurrent cells
may only *read* them.  :func:`predecode` populates every decode product
a batch will need from a single thread *before* the cells fan out;
after it returns, the per-cell :func:`run_cell` calls are safe to run
concurrently because they only hit warm cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

from repro.core.config import CacheGeometry
from repro.core.fetch import FetchPolicy, make_fetch
from repro.core.misspath import MissPathConfig
from repro.core.replacement import make_replacement
from repro.core.stats import CacheStats
from repro.engine.base import resolve_engine
from repro.engine.lru_kernel import kernel_fallback_reason
from repro.engine.traceview import TraceView
from repro.trace.filters import reads_only
from repro.trace.record import Trace

__all__ = ["CellSpec", "prepare_trace", "predecode", "run_cell", "run_batch"]


@dataclass(frozen=True)
class CellSpec:
    """One simulation cell of a batch: shape plus execution options.

    The fields mirror :meth:`repro.engine.base.Engine.run`; ``fetch``
    and ``replacement`` are names so a spec stays hashable and
    process-safe, with fresh policy objects built per run (``random``
    replacement must not share RNG state across cells).  ``miss_path``
    is the frozen (hashable) chain configuration; fresh structures are
    built per run like the policies.
    """

    geometry: CacheGeometry
    engine: str = "auto"
    fetch: str = "demand"
    replacement: str = "lru"
    warmup: Union[int, str] = "fill"
    word_size: int = 2
    miss_path: Optional[MissPathConfig] = None


def prepare_trace(trace: Trace, filter_writes: bool = True) -> Trace:
    """The trace a batch actually simulates (paper-style read filtering).

    Mirrors the runner's preparation exactly — including going through
    the interned :class:`TraceView` — so a batch cell and a sweep cell
    over the same trace object share one materialized filtered copy and
    produce byte-identical statistics.
    """
    if not filter_writes:
        return trace
    if isinstance(trace, Trace):
        return TraceView.of(trace).reads_only()
    return reads_only(trace)


def predecode(prepared: Trace, specs: Iterable[CellSpec]) -> None:
    """Populate the shared decode caches for every shape in ``specs``.

    Call from one thread before dispatching the cells of a batch to a
    worker pool: the view's LRU caches are not synchronized, and
    pre-warming them here turns the workers' accesses into pure reads.
    Non-batchable traces (proxies, iterables) are skipped — they run on
    the reference engine, which performs no decode.
    """
    if not isinstance(prepared, Trace):
        return
    view = TraceView.of(prepared)
    seen = set()
    for spec in specs:
        # Only the per-access loop reads set/tag columns and run starts.
        loop = kernel_fallback_reason(
            make_replacement(spec.replacement), make_fetch(spec.fetch)
        ) is not None
        shape = (
            spec.geometry.block_size,
            spec.geometry.sub_block_size,
            spec.geometry.num_sets,
            spec.word_size,
            loop,
        )
        if shape in seen:
            continue
        seen.add(shape)
        view.sizes_for(spec.word_size)
        view.block_addresses(spec.geometry.block_size)
        view.masks(spec.geometry, spec.word_size)
        if loop:
            view.set_and_tag(spec.geometry)
            view.demand(spec.geometry, spec.word_size)


def run_cell(
    prepared: Trace,
    spec: CellSpec,
    deadline: Optional[float] = None,
) -> CacheStats:
    """Execute one cell of a batch and return its full statistics.

    Engine resolution and policy construction match the resilient
    runner's cell execution, so the result is interchangeable with a
    sweep cell for the same configuration.

    Args:
        deadline: Optional :func:`time.monotonic` instant propagated
            into the engine for cooperative cancellation
            (:class:`~repro.errors.DeadlineExceededError`); the
            service's ``X-Repro-Deadline-Ms`` budget ends here.
    """
    engine = resolve_engine(spec.engine, prepared, miss_path=spec.miss_path)
    fetch: Optional[FetchPolicy] = (
        make_fetch(spec.fetch) if spec.fetch != "demand" else None
    )
    return engine.run(
        spec.geometry,
        prepared,
        replacement=make_replacement(spec.replacement),
        fetch=fetch,
        word_size=spec.word_size,
        warmup=spec.warmup,
        deadline=deadline,
        miss_path=spec.miss_path,
    )


def run_batch(
    trace: Trace,
    specs: Iterable[CellSpec],
    filter_writes: bool = True,
) -> List[CacheStats]:
    """Prepare ``trace`` once, then run every spec against it in order.

    The sequential convenience driver; the service performs the same
    three phases (prepare, predecode, per-cell run) with the per-cell
    phase spread over its worker pool.
    """
    specs = list(specs)
    prepared = prepare_trace(trace, filter_writes)
    predecode(prepared, specs)
    return [run_cell(prepared, spec) for spec in specs]
