"""Shared, cached structure-of-arrays views of traces.

A sweep simulates the *same* trace under dozens of geometries, and the
per-access decode (block address, set index, tag, needed-sub-block
mask) only depends on a few geometry scalars — so a ``TraceView``
computes each decode product once and hands the cached arrays to every
cell that shares the parameters ("decode once, simulate many").  The
caches are split by what each product actually depends on, so e.g. the
needed-mask arrays for ``(block=16, sub=8)`` are reused across every
net size of a figure sweep:

* block addresses — keyed on ``block_size``;
* set index / tag — keyed on ``(block_size, num_sets)``;
* needed masks (in the narrowest unsigned dtype that holds a block's
  sub-blocks), span flags, and run boundaries — keyed on
  ``(block_size, sub_block_size, word_size)``.  Run boundaries serve
  only the per-access loop, so they are computed apart, on first use.

The view also memoizes the paper's read-only filtering
(:func:`repro.trace.filters.reads_only`), so repeated sweeps over one
trace — Table 8's per-row sweeps, the figure families — filter it once
instead of re-materializing three NumPy arrays per sweep call.

Views are interned per trace *identity* via :meth:`TraceView.of`; the
registry holds strong references in a bounded LRU, which both bounds
memory and guarantees a cached entry can never alias a new trace that
reused a dead object's ``id``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.core.config import CacheGeometry
from repro.engine.kernels import effective_sizes, mask_dtype, needed_masks, run_starts
from repro.trace.filters import reads_only
from repro.trace.record import Trace

__all__ = ["TraceView"]

#: Entries kept per decode cache.  A sweep grid visits each parameter
#: combination in long consecutive stretches, so a small LRU captures
#: all the reuse while bounding memory for 1M-reference traces.
_DECODE_LRU = 16

#: Interned views.  Strong references, so an entry's trace id cannot be
#: recycled while the view is alive.
_REGISTRY_LRU = 32


class _LRU(OrderedDict):
    """Tiny bounded LRU used for the decode and view caches."""

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize

    def lookup(self, key, compute):
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = compute()
        self[key] = value
        if len(self) > self.maxsize:
            self.popitem(last=False)
        return value


class TraceView:
    """Cached decode products of one :class:`~repro.trace.record.Trace`.

    Build views through :meth:`of` so that every consumer of a trace —
    all geometries of a sweep, repeated sweeps in one process — shares
    one view and therefore one set of decode arrays.
    """

    __slots__ = (
        "trace", "_reads_only", "_esz", "_blocks", "_settag", "_masks", "_runs",
    )

    _registry: "_LRU" = _LRU(_REGISTRY_LRU)

    def __init__(self, trace: Trace) -> None:
        if not isinstance(trace, Trace):
            raise TypeError(
                f"TraceView wraps a Trace, got {type(trace).__name__}"
            )
        self.trace = trace
        self._reads_only: Optional[Trace] = None
        self._esz = _LRU(4)
        self._blocks = _LRU(_DECODE_LRU)
        self._settag = _LRU(_DECODE_LRU)
        self._masks = _LRU(_DECODE_LRU)
        self._runs = _LRU(_DECODE_LRU)

    @classmethod
    def of(cls, trace: Trace) -> "TraceView":
        """Interned view for ``trace`` (same object ⇒ same view)."""
        key = id(trace)
        view = cls._registry.get(key)
        if view is not None and view.trace is trace:
            cls._registry.move_to_end(key)
            return view
        view = cls(trace)
        cls._registry[key] = view
        if len(cls._registry) > cls._registry.maxsize:
            cls._registry.popitem(last=False)
        return view

    def __len__(self) -> int:
        return len(self.trace)

    def __repr__(self) -> str:
        return f"<TraceView of {self.trace!r}>"

    # -- Cached transforms ------------------------------------------------

    def reads_only(self) -> Trace:
        """The write-filtered trace, materialized at most once."""
        if self._reads_only is None:
            self._reads_only = reads_only(self.trace)
        return self._reads_only

    # -- Cached decode products -------------------------------------------

    def sizes_for(self, word_size: int) -> np.ndarray:
        """Effective byte size of every access (0 ⇒ one word)."""
        return self._esz.lookup(
            word_size,
            lambda: effective_sizes(self.trace.sizes, word_size),
        )

    def block_addresses(self, block_size: int) -> np.ndarray:
        """First block address touched by every access."""
        return self._blocks.lookup(
            block_size, lambda: self.trace.addrs // block_size
        )

    def set_and_tag(
        self, geometry: CacheGeometry
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """Per-access set index and tag for one geometry's mapping."""
        key = (geometry.block_size, geometry.num_sets)

        def compute():
            block0 = self.block_addresses(geometry.block_size)
            return block0 % geometry.num_sets, block0 // geometry.num_sets

        return self._settag.lookup(key, compute)

    def masks(
        self, geometry: CacheGeometry, word_size: int
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """Needed-sub-block masks and span flags for one shape.

        Keyed on ``(block_size, sub_block_size, word_size)`` only, so
        the arrays are shared across net sizes and associativities.
        """
        key = (geometry.block_size, geometry.sub_block_size, word_size)

        def compute():
            _, needed, span = needed_masks(
                self.trace.addrs, self.sizes_for(word_size),
                geometry.block_size, geometry.sub_block_size,
            )
            return needed.astype(mask_dtype(geometry.sub_blocks_per_block)), span

        return self._masks.lookup(key, compute)

    def demand(
        self, geometry: CacheGeometry, word_size: int
    ) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
        """:meth:`masks` plus the boundaries of runs of identical accesses."""
        needed, span = self.masks(geometry, word_size)
        key = (geometry.block_size, geometry.sub_block_size, word_size)

        def compute():
            return run_starts(
                self.block_addresses(geometry.block_size), self.trace.kinds,
                needed, self.sizes_for(word_size), span,
            )

        return needed, span, self._runs.lookup(key, compute)
