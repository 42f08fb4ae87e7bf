"""Pluggable simulation engines ("decode once, simulate many").

Public surface:

* :class:`~repro.engine.base.Engine` — the interface one simulation
  run is executed through.
* :func:`~repro.engine.base.make_engine` /
  :func:`~repro.engine.base.resolve_engine` — construction and per-run
  ``auto`` selection.
* :class:`~repro.engine.reference.ReferenceEngine` — the object-model
  loop (semantics baseline; handles guarded / fault-injected traces).
* :class:`~repro.engine.vectorized.VectorizedEngine` — the NumPy batch
  engine, pinned to the reference by the equivalence suite.  LRU cells
  run on its array kernel (:mod:`repro.engine.lru_kernel`);
  :func:`~repro.engine.lru_kernel.kernel_fallback_reason` names why any
  other cell keeps the per-access loop.
* :class:`~repro.engine.checked.CheckedEngine` — reference semantics
  plus per-access sanitizer assertions (cache-model invariants and
  statistics conservation laws); the ``--sanitize`` engine.
* :class:`~repro.engine.traceview.TraceView` — shared cached decode of
  one trace, reused across every geometry of a sweep.
* :mod:`repro.engine.batch` — the batch entry point: prepare and
  predecode a trace once, then run many cells against the shared view
  (the unit of work behind the service's per-trace request batching).

See ``docs/engines.md`` for the architecture and the equivalence
contract.
"""

from repro.engine.base import ENGINE_NAMES, Engine, make_engine, resolve_engine
from repro.engine.batch import CellSpec, predecode, prepare_trace, run_batch, run_cell
from repro.engine.checked import CheckedCache, CheckedEngine, check_cache_invariants
from repro.engine.lru_kernel import KERNEL_FALLBACK_REASONS, kernel_fallback_reason
from repro.engine.reference import ReferenceEngine
from repro.engine.traceview import TraceView
from repro.engine.vectorized import VectorizedEngine

__all__ = [
    "Engine",
    "ENGINE_NAMES",
    "make_engine",
    "resolve_engine",
    "ReferenceEngine",
    "VectorizedEngine",
    "KERNEL_FALLBACK_REASONS",
    "kernel_fallback_reason",
    "CheckedEngine",
    "CheckedCache",
    "check_cache_invariants",
    "TraceView",
    "CellSpec",
    "prepare_trace",
    "predecode",
    "run_cell",
    "run_batch",
]
