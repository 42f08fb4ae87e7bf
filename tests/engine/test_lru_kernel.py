"""The vectorized engine's LRU kernel: dispatch and fallback reasons.

Exactness against the reference engine is the equivalence suite's job
(``test_equivalence.py``); this file pins *which* cells take the kernel
and the named reason every other cell falls back under.
"""

from __future__ import annotations

import pytest

import repro.engine.vectorized as vectorized_module
from repro.core.fetch import DemandFetch, FetchPlan, LoadForwardFetch
from repro.core.replacement import (
    FIFOReplacement,
    LRUReplacement,
    RandomReplacement,
)
from repro.engine import KERNEL_FALLBACK_REASONS, VectorizedEngine, kernel_fallback_reason


class _WholeBlockFetch(DemandFetch):
    """A custom policy the kernel has no closed form for."""

    def plan(self, needed_missing, first_needed, valid_mask, sub_blocks_per_block):
        whole = (1 << sub_blocks_per_block) - 1
        return FetchPlan(whole & ~valid_mask, (sub_blocks_per_block,))


class _MRUFirst(LRUReplacement):
    """An LRU subclass: may change the recency rule, so not the kernel's."""


@pytest.mark.parametrize(
    "fetch", [DemandFetch(), LoadForwardFetch(), LoadForwardFetch(optimized=True)]
)
def test_lru_with_built_in_fetch_takes_the_kernel(fetch):
    assert kernel_fallback_reason(LRUReplacement(), fetch) is None


@pytest.mark.parametrize(
    "replacement", [FIFOReplacement(), RandomReplacement(seed=1), _MRUFirst()]
)
def test_non_lru_replacement_falls_back(replacement):
    assert kernel_fallback_reason(replacement, DemandFetch()) == "kernel-non-lru"


def test_custom_fetch_falls_back():
    reason = kernel_fallback_reason(LRUReplacement(), _WholeBlockFetch())
    assert reason == "kernel-custom-fetch"


def test_replacement_is_checked_before_fetch():
    reason = kernel_fallback_reason(FIFOReplacement(), _WholeBlockFetch())
    assert reason == "kernel-non-lru"


def test_reasons_are_catalogued():
    assert KERNEL_FALLBACK_REASONS == ("kernel-non-lru", "kernel-custom-fetch")


def _count_dispatch(monkeypatch):
    calls = {"kernel": 0, "loop": 0}
    kernel = vectorized_module.run_lru_kernel
    loop = VectorizedEngine._run_loop

    def counted_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    def counted_loop(self, *args, **kwargs):
        calls["loop"] += 1
        return loop(self, *args, **kwargs)

    monkeypatch.setattr(vectorized_module, "run_lru_kernel", counted_kernel)
    monkeypatch.setattr(VectorizedEngine, "_run_loop", counted_loop)
    return calls


def test_engine_sends_lru_cells_to_the_kernel(
    monkeypatch, random_trace, small_geometry
):
    calls = _count_dispatch(monkeypatch)
    engine = VectorizedEngine()
    engine.run(small_geometry, random_trace)
    engine.run(small_geometry, random_trace, fetch=LoadForwardFetch())
    assert calls == {"kernel": 2, "loop": 0}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"replacement": FIFOReplacement()},
        {"replacement": RandomReplacement(seed=3)},
        {"fetch": _WholeBlockFetch()},
    ],
)
def test_engine_keeps_the_loop_for_fallback_cells(
    monkeypatch, random_trace, small_geometry, kwargs
):
    calls = _count_dispatch(monkeypatch)
    VectorizedEngine().run(small_geometry, random_trace, **kwargs)
    assert calls == {"kernel": 0, "loop": 1}
