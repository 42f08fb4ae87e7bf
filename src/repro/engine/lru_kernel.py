"""The LRU array kernel behind :class:`~repro.engine.vectorized.VectorizedEngine`.

The paper fixes LRU replacement because "LRU permits more efficient
simulation" (Section 3.1).  This kernel is that efficiency: for an LRU
cell with demand or load-forward fetch it replaces the per-access loop
with two steps.

1. **Residency pass.**  The accesses are cut into *block runs* —
   maximal stretches touching one block — and one tight loop over the
   runs keeps per-set LRU lists of block addresses.  Inside a run no
   other block is touched, so the run either hits its block or inserts
   it once; the loop records which *epoch* (one block's stay in the
   cache, from insertion to eviction) every run belongs to, which epoch
   each insertion evicts, and the run whose insertion fills the last
   empty frame (the ``"fill"`` warm-up point).

2. **Sub-block accounting** in NumPy, over the accesses grouped by
   epoch.  A block's valid mask only grows during an epoch, and it is a
   closed form of the needed masks seen so far:

   * demand fetch validates exactly what was needed, so the valid mask
     is the OR of the earlier needed masks of the epoch;
   * load-forward (either variant) validates from the lowest missing
     sub-block to the end of the block, so the valid mask is the suffix
     starting at the running minimum of the lowest needed sub-block.

   Misses, sub-block misses, per-kind splits, bytes and evicted-
   referenced counts are then reductions, and fetch costs come from the
   shared :class:`~repro.engine.kernels.FetchPlanCache`, looked up once
   per distinct ``(missing, valid)`` pair.

All three write policies are expressible: allocating writes behave like
reads for residency (write-back adds a per-epoch dirty mask), and a
write-through-no-allocate write to an absent block touches no state, so
block runs are also cut where such writes give way to an allocating
access.  What the kernel cannot express — another replacement policy or
a fetch policy it has no closed form for — is named by
:func:`kernel_fallback_reason` and runs the per-access loop instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import CacheGeometry
from repro.core.fetch import DemandFetch, FetchPolicy, LoadForwardFetch
from repro.core.replacement import LRUReplacement, ReplacementPolicy
from repro.core.stats import CacheStats
from repro.core.write import WritePolicy
from repro.engine.kernels import FetchPlanCache
from repro.engine.traceview import TraceView
from repro.errors import DeadlineExceededError
from repro.trace.record import AccessType

__all__ = [
    "KERNEL_FALLBACK_REASONS",
    "kernel_fallback_reason",
    "run_lru_kernel",
]

#: Every reason :func:`kernel_fallback_reason` can return.
KERNEL_FALLBACK_REASONS = ("kernel-non-lru", "kernel-custom-fetch")

#: Block runs between deadline checks in the residency pass.
_DEADLINE_EVERY = 8192

_KINDS = (AccessType.READ, AccessType.WRITE, AccessType.IFETCH)
_WRITE = int(AccessType.WRITE)


def kernel_fallback_reason(
    replacement: ReplacementPolicy, fetch: FetchPolicy
) -> Optional[str]:
    """Why a cell cannot run on the LRU kernel, or None if it can.

    * ``kernel-non-lru`` — the replacement policy is not exactly
      :class:`~repro.core.replacement.LRUReplacement` (FIFO, Random, or
      a subclass that may change the recency rule);
    * ``kernel-custom-fetch`` — the fetch policy is not exactly
      :class:`~repro.core.fetch.DemandFetch` or
      :class:`~repro.core.fetch.LoadForwardFetch`, so the kernel has no
      closed form for its valid masks.
    """
    if type(replacement) is not LRUReplacement:
        return "kernel-non-lru"
    if type(fetch) not in (DemandFetch, LoadForwardFetch):
        return "kernel-custom-fetch"
    return None


def _lowest_bit(masks: np.ndarray, spb: int) -> np.ndarray:
    """Index of the lowest set bit of every mask (``spb`` for zero)."""
    if masks.dtype.itemsize <= 2:
        table = np.full(1 << (8 * masks.dtype.itemsize), spb, dtype=np.int64)
        for k in range(spb):
            table[1 << k :: 2 << k] = k
        return table[masks]
    wide = masks.astype(np.int64)
    low = np.full(len(wide), spb, dtype=np.int64)
    set_ = wide != 0
    low[set_] = np.log2(wide[set_] & -wide[set_]).astype(np.int64)
    return low


def _popcount_sum(masks: np.ndarray) -> int:
    """Total set bits over an array of masks."""
    if not len(masks):
        return 0
    as_bytes = np.ascontiguousarray(masks, dtype=np.uint64).view(np.uint8)
    return int(np.unpackbits(as_bytes).sum(dtype=np.int64))


def _split_spanning(
    view: TraceView, geometry: CacheGeometry, word_size: int, span: np.ndarray
) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Per-block parts of a trace whose accesses may cross blocks.

    Returns ``(access, block, needed)``: the access each part belongs
    to, the part's block address and its needed-sub-block mask — the
    same per-block split the reference cache makes.
    """
    block_size = geometry.block_size
    sub = geometry.sub_block_size
    addrs = view.trace.addrs
    esz = view.sizes_for(word_size)
    first = addrs // block_size
    parts = np.where(span, (addrs + esz - 1) // block_size - first + 1, 1)
    access = np.repeat(np.arange(len(addrs), dtype=np.int64), parts)
    offset = np.arange(len(access), dtype=np.int64) - np.repeat(
        np.cumsum(parts) - parts, parts
    )
    block = first[access] + offset
    base = block * block_size
    start = addrs[access]
    lo = np.maximum(start, base) - base
    hi = np.minimum(start + esz[access], base + block_size) - 1 - base
    lo //= sub
    hi //= sub
    needed = ((np.int64(1) << (hi - lo + 1)) - 1) << lo
    return access, block, needed


def _residency(
    blocks: List[int],
    sets: List[int],
    bypass: Optional[List[bool]],
    nsets: int,
    ways: int,
    num_blocks: int,
    deadline: Optional[float],
) -> "Tuple[List[int], List[int], int]":
    """Step 1: LRU over block runs.

    Returns ``(run_epoch, evicted, fill_run)``: the epoch of every run
    (-1 for a bypassing run, whose block stays absent), the epoch each
    epoch's insertion evicted (-1 when it took an empty frame), and the
    run whose insertion filled the last empty frame (-1 if none did).
    Epochs are numbered in insertion order.
    """
    resident: Dict[int, int] = {}
    get = resident.get
    drop = resident.pop
    lru: List[List[int]] = [[] for _ in range(nsets)]
    run_epoch: List[int] = []
    record = run_epoch.append
    evicted: List[int] = []
    insert = evicted.append
    filled = 0
    fill_run = -1
    monotonic = time.monotonic
    for lo in range(0, len(blocks), _DEADLINE_EVERY):
        if deadline is not None and monotonic() >= deadline:
            raise DeadlineExceededError(
                "request deadline expired mid-simulation"
            )
        hi = lo + _DEADLINE_EVERY
        for b, stack in zip(blocks[lo:hi], map(lru.__getitem__, sets[lo:hi])):
            e = get(b)
            if e is None:
                if bypass is not None and bypass[len(run_epoch)]:
                    record(-1)
                    continue
                e = len(evicted)
                if len(stack) < ways:
                    insert(-1)
                    filled += 1
                    if filled == num_blocks:
                        fill_run = len(run_epoch)
                else:
                    insert(drop(stack.pop(0)))
                resident[b] = e
            else:
                stack.remove(b)
            stack.append(b)
            record(e)
    return run_epoch, evicted, fill_run


def run_lru_kernel(
    geometry: CacheGeometry,
    view: TraceView,
    fetch: FetchPolicy,
    write_policy: WritePolicy,
    word_size: int,
    fill_mode: bool,
    reset_at: Optional[int],
    flush_at_end: bool,
    deadline: Optional[float] = None,
) -> CacheStats:
    """One LRU cell, counter for counter equal to the per-access loop.

    ``fill_mode`` / ``reset_at`` are the decoded warm-up (``"fill"`` or
    a positive access count); ``fetch`` must be a policy for which
    :func:`kernel_fallback_reason` returns None.
    """
    trace = view.trace
    n = len(trace)
    stats = CacheStats()
    if n == 0:
        return stats
    spb = geometry.sub_blocks_per_block
    sub = geometry.sub_block_size
    nsets = geometry.num_sets
    kinds = trace.kinds
    esz = view.sizes_for(word_size)
    needed, span = view.masks(geometry, word_size)

    # -- Parts: one per (access, block) pair ----------------------------
    access: Optional[np.ndarray] = None
    if span.any():
        access, pblock, pneeded = _split_spanning(view, geometry, word_size, span)
        pneeded = pneeded.astype(needed.dtype)
        pkinds = kinds[access]
    else:
        pblock = view.block_addresses(geometry.block_size)
        pneeded = needed
        pkinds = kinds
    parts = len(pblock)
    writes = pkinds == _WRITE
    has_writes = bool(writes.any())
    # Write-through-no-allocate writes never install their block.
    nonalloc = writes if has_writes and not write_policy.allocates else None

    # -- Block runs -------------------------------------------------------
    cut = np.empty(parts, dtype=bool)
    cut[0] = True
    np.not_equal(pblock[1:], pblock[:-1], out=cut[1:])
    if nonalloc is not None:
        # Start a run where a non-allocating stretch gives way to an
        # allocating access, so an inserting run starts by inserting.
        cut[1:] |= nonalloc[:-1] & ~nonalloc[1:]
    rstart = np.flatnonzero(cut)
    del cut
    runs = len(rstart)
    rlen = np.diff(rstart, append=parts)
    rblock = pblock[rstart]
    bypass = (
        np.logical_and.reduceat(nonalloc, rstart)
        if nonalloc is not None else None
    )

    # -- Residency pass -------------------------------------------------
    # A run whose set last saw the same block (and did not bypass it)
    # hits and leaves the set's LRU order as it was: it shares the epoch
    # of that earlier run and needs no place in the loop.
    rset = rblock % nsets
    if nsets > 1:
        small = np.uint16 if nsets <= 1 << 16 else np.int64
        by_set = np.argsort(rset.astype(small), kind="stable")
    else:
        by_set = np.arange(runs)
    set_block = rblock[by_set]
    repeat = np.zeros(runs, dtype=bool)
    np.equal(set_block[1:], set_block[:-1], out=repeat[1:])
    del set_block
    if bypass is not None:
        repeat[1:] &= ~bypass[by_set[:-1]]
    in_loop = np.ones(runs, dtype=bool)
    in_loop[by_set[repeat]] = False
    kept = np.flatnonzero(in_loop)
    del in_loop
    kept_epoch, evicted_l, kept_fill = _residency(
        rblock[kept].tolist(), rset[kept].tolist(),
        None if bypass is None else bypass[kept].tolist(),
        nsets, geometry.ways, geometry.num_blocks, deadline,
    )
    del rblock, rset
    fill_run = int(kept[kept_fill]) if kept_fill >= 0 else -1
    run_epoch = np.empty(runs, dtype=np.int64)
    run_epoch[kept] = kept_epoch
    del kept, kept_epoch
    source = np.where(repeat, 0, np.arange(runs))
    np.maximum.accumulate(source, out=source)
    run_epoch[by_set] = run_epoch[by_set][source]
    del by_set, repeat, source
    evicted = np.array(evicted_l, dtype=np.int64)
    del evicted_l
    epochs = len(evicted)

    def access_of(part: np.ndarray) -> np.ndarray:
        return part if access is None else access[part]

    # -- Counting window ------------------------------------------------
    if fill_mode:
        window = int(access_of(rstart[fill_run])) + 1 if fill_run >= 0 else 0
    else:
        window = reset_at if reset_at is not None and reset_at <= n else 0

    # -- Parts grouped by epoch, time order kept within each epoch --------
    # Sorting epoch * runs + run sorts by epoch, then by time; bypassing
    # runs (epoch -1) sort first and drop out.
    key = run_epoch * runs + np.arange(runs)
    key.sort()
    rorder = key[np.searchsorted(key, 0):] % runs
    del key
    glen = rlen[rorder]
    gfirst = np.cumsum(glen) - glen
    order = np.repeat(rstart[rorder] - gfirst, glen)
    order += np.arange(len(order))
    gepoch = run_epoch[rorder]
    head = np.ones(len(rorder), dtype=bool)
    np.not_equal(gepoch[1:], gepoch[:-1], out=head[1:])
    starts = gfirst[head]
    epoch = np.repeat(gepoch.astype(np.int32), glen)
    del rorder, glen, gfirst, gepoch, head
    nd = pneeded[order]
    alloc = None if nonalloc is None else ~nonalloc[order]
    grown = nd if alloc is None else np.where(alloc, nd, 0).astype(nd.dtype)

    # -- Misses and the valid mask they see ---------------------------------
    # ``fetched`` are the grouped positions of allocating misses (each
    # one fetch), ``valid`` the mask each of them saw; ``stuck`` are the
    # positions of non-allocating misses inside an epoch.
    if isinstance(fetch, LoadForwardFetch):
        # Suffix from the running minimum of the lowest needed sub-block.
        # Within one epoch's stretch, base + spb - low only grows as low
        # falls, and every epoch's base tops the one before it, so one
        # running maximum over all parts tracks each epoch's minimum.
        lowest = _lowest_bit(nd, spb)
        base = epoch.astype(np.int64) * (spb + 1)
        running = base + spb
        running -= lowest if alloc is None else np.where(alloc, lowest, spb)
        np.maximum.accumulate(running, out=running)
        before = np.empty(len(nd), dtype=np.int64)
        before[:1] = spb
        np.subtract(spb + base[1:], running[:-1], out=before[1:])
        before[starts] = spb
        del base, running
        miss = lowest < before
        del lowest
        fetched = np.flatnonzero(miss if alloc is None else miss & alloc)
        stuck = None if alloc is None else np.flatnonzero(miss & ~alloc)
        del miss
        suffix = np.array(
            [((1 << spb) - 1) ^ ((1 << k) - 1) for k in range(spb + 1)],
            dtype=nd.dtype,
        )
        valid = suffix[before[fetched]]
        del before
    else:
        # Bit k is valid once an earlier allocating part of the epoch
        # needed it, so the misses are the first needs of each bit.
        missing = np.zeros(len(nd), dtype=nd.dtype)
        for k in range(spb):
            bit = nd.dtype.type(1 << k)
            at = np.flatnonzero(grown & bit)
            if len(at):
                seen = epoch[at]
                first = np.ones(len(at), dtype=bool)
                np.not_equal(seen[1:], seen[:-1], out=first[1:])
                missing[at[first]] |= bit
        fetched = np.flatnonzero(missing)
        # An epoch's fetches bring in disjoint bits, so the valid mask a
        # fetch sees is a running sum (modulo 2**64, exact here).
        got = missing[fetched].astype(np.uint64)
        del missing
        through = np.cumsum(got)
        seen = epoch[fetched]
        before = through - got
        head = np.ones(len(seen), dtype=bool)
        np.not_equal(seen[1:], seen[:-1], out=head[1:])
        epoch_base = np.empty(epochs, dtype=np.uint64)
        epoch_base[seen[head]] = before[head]
        valid = (before - epoch_base[seen]).astype(nd.dtype)
        del before, head
        stuck = None
        if alloc is not None:
            others = np.flatnonzero(~alloc)
            last = np.searchsorted(fetched, others) - 1
            seen = epoch[others]
            same = (last >= 0) & (epoch[fetched[np.maximum(last, 0)]] == seen)
            known = np.where(same, through[last] - epoch_base[seen], 0)
            stuck = others[(nd[others] & ~known.astype(nd.dtype)) != 0]
        del got, through, seen, epoch_base

    # -- Per-epoch masks ------------------------------------------------
    refd = np.bitwise_or.reduceat(nd, starts)
    dirty = None
    if has_writes and not write_policy.writes_through:
        dirty = np.bitwise_or.reduceat(
            np.where(writes[order], nd, 0).astype(nd.dtype), starts
        )
    inserted_at = access_of(order[starts])

    # -- Fetch costs per distinct (missing, valid) pair -------------------
    fetch_missing = nd[fetched] & ~valid
    if window:
        counted = access_of(order[fetched]) >= window
        fetch_missing = fetch_missing[counted]
        valid = valid[counted]
    block_misses = int(np.count_nonzero(inserted_at >= window))
    sub_misses = len(valid) - block_misses
    plans = FetchPlanCache(fetch, sub, word_size, spb)
    bytes_fetched = redundant = 0
    txn: Dict[int, int] = {}
    if spb <= 32:
        keys, counts = np.unique(
            (fetch_missing.astype(np.uint64) << np.uint64(spb)) | valid,
            return_counts=True,
        )
        pairs = [(k >> spb, k & ((1 << spb) - 1)) for k in keys.tolist()]
    else:
        rows, counts = np.unique(
            np.stack((fetch_missing, valid), axis=1), axis=0,
            return_counts=True,
        )
        pairs = [tuple(row) for row in rows.tolist()]
    for (pm, pv), c in zip(pairs, counts.tolist()):
        _, words, fb, rb = plans.lookup(pm, pv)
        bytes_fetched += fb * c
        redundant += rb * c
        for w in words:
            txn[w] = txn.get(w, 0) + c
    del fetch_missing, valid

    # -- Per-access misses ------------------------------------------------
    missed = [order[fetched]]
    if stuck is not None:
        missed.append(order[stuck])
    if bypass is not None:
        # Parts of bypassing runs miss without touching the cache.
        missed.append(np.flatnonzero(np.repeat(run_epoch < 0, rlen)))
    missed_access = np.concatenate(missed)
    if access is not None:
        # The parts of one spanning access miss as one access.
        missed_access = np.unique(access[missed_access])
    missed_access = missed_access[missed_access >= window]
    del missed, order, fetched, stuck
    counted_kinds = kinds[window:]
    missed_kinds = kinds[missed_access]

    # -- Evictions and the end-of-run flush ------------------------------
    gone = evicted[(evicted >= 0) & (inserted_at >= window)]
    evictions = len(gone)
    ev_ref = _popcount_sum(refd[gone])
    writebacks = bytes_wb = 0
    if dirty is not None:
        writebacks = int(np.count_nonzero(dirty[gone]))
        bytes_wb = _popcount_sum(dirty[gone]) * sub
    if flush_at_end:
        still = np.ones(epochs, dtype=bool)
        still[evicted[evicted >= 0]] = False
        evictions += int(np.count_nonzero(still))
        ev_ref += _popcount_sum(refd[still])
        if dirty is not None:
            writebacks += int(np.count_nonzero(dirty[still]))
            bytes_wb += _popcount_sum(dirty[still]) * sub

    bytes_wt = 0
    if has_writes and write_policy.writes_through:
        bytes_wt = int(esz[window:][counted_kinds == _WRITE].sum())

    stats.accesses = n - window
    stats.misses = len(missed_access)
    stats.block_misses = block_misses
    stats.sub_block_misses = sub_misses
    stats.accesses_by_kind = {
        kind: int(np.count_nonzero(counted_kinds == int(kind))) for kind in _KINDS
    }
    stats.misses_by_kind = {
        kind: int(np.count_nonzero(missed_kinds == int(kind))) for kind in _KINDS
    }
    stats.bytes_accessed = int(esz[window:].sum())
    stats.bytes_fetched = bytes_fetched
    stats.redundant_bytes_fetched = redundant
    stats.transaction_words = dict(sorted(txn.items()))
    stats.evictions = evictions
    stats.evicted_sub_blocks_referenced = ev_ref
    stats.evicted_sub_blocks_total = evictions * spb
    stats.writebacks = writebacks
    stats.bytes_written_back = bytes_wb
    stats.bytes_written_through = bytes_wt
    return stats
