"""Figures 2 and 3 — instantaneous sharing and degree of sharing.

Figure 2: for each miss, how many *other* processors must observe it
(0, 1, 2, 3+), split by reads and writes.  Zero means the minimal set
suffices (no directory indirection).

Figure 3: how many unique processors touch each block over the whole
run — as a histogram over blocks (3a) and weighted by each block's
miss count (3b).

Both figures are computed by **column kernels** over the trace's
cached key columns when numpy is available (bincount/unique-style
histograms), falling back to the original record loops otherwise.
The MOSI replay behind Figures 2 and 4 (:func:`_required_counts`)
runs compiled under the native backend (``_native.required_counts``,
a direct port of :meth:`GlobalCoherenceState.apply_fast`), with the
numpy closed form (:func:`_required_counts_np`) as its one fallback.
The record loops are kept public (``*_records``) as the equivalence
oracles — the analysis-equivalence suite asserts the kernels match
them exactly.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, Optional

from repro import kernels
from repro.common.destset import popcount
from repro.coherence.state import GlobalCoherenceState
from repro.trace import columns as _columns
from repro.trace.trace import Trace

#: Figure 2 bins: 0, 1, 2, and 3-or-more other processors.
SHARING_BINS = (0, 1, 2, 3)

#: Block granularity used when the caller does not pass one — the
#: paper's 64 B blocks (kept equal to ``SystemConfig.block_size``'s
#: default and to :class:`GlobalCoherenceState`'s default).
DEFAULT_BLOCK_SIZE = 64


@dataclasses.dataclass(frozen=True)
class SharingHistogram:
    """Figure 2 data: percent of misses per required-recipient bin."""

    workload: str
    read_pct: Dict[int, float]
    write_pct: Dict[int, float]
    total_misses: int

    def total_pct(self, bin_index: int) -> float:
        """Reads + writes percentage for one bin."""
        return self.read_pct[bin_index] + self.write_pct[bin_index]

    @property
    def multi_recipient_pct(self) -> float:
        """Percent of misses needing >1 other processor (bins 2, 3+).

        The paper observes this is only ~10% across its workloads —
        the figure motivating destination-set prediction over
        broadcast.
        """
        return sum(self.total_pct(b) for b in SHARING_BINS[2:])


# ----------------------------------------------------------------------
# Vectorized MOSI replay (shared by Figures 2 and 4)
# ----------------------------------------------------------------------
def _required_counts_cached(np_, trace: Trace, block_size: int):
    """Memoized :func:`_required_counts` (one replay per trace)."""
    return trace.memo(
        ("mosi_required", block_size),
        lambda: _required_counts(np_, trace, block_size),
    )


def _required_counts(np_, trace: Trace, block_size: int):
    """``(counts, getx_mask)``: the native replay, else the numpy one."""
    counts = kernels.try_required_counts(trace, block_size)
    if counts is None:
        return _required_counts_np(np_, trace, block_size)
    getx = np_.frombuffer(trace.accesses, dtype=np_.int8)
    return np_.frombuffer(counts, dtype=np_.int64), getx == 1


def _required_counts_np(np_, trace: Trace, block_size: int):
    """Per-record count of *other* processors that must observe it.

    The omniscient-MOSI replay (:meth:`GlobalCoherenceState.apply_fast`)
    is sequential per block, but the *counts* it produces have a
    closed form over epochs: a block's history splits into epochs at
    each GETX; the epoch's owner is that GETX's requester (memory for
    epoch 0), and the epoch's sharers are the distinct GETS requesters
    other than the owner.  So per record:

    - GETS: 1 if a processor other than the requester owns the epoch,
    - GETX: the owner term plus the epoch's distinct-reader count,
      minus one if the writer itself was among the readers,

    all of which reduce to cumulative sums, ``unique`` and ``bincount``
    over the trace's key columns.  Returns ``(counts, getx_mask)`` as
    int64/bool arrays in trace order.
    """
    blocks = trace.block_keys(block_size)
    n = len(blocks)
    keys = np_.frombuffer(blocks, dtype=np_.int64)
    requesters = np_.frombuffer(
        trace.requesters, dtype=np_.int32
    ).astype(np_.int64)
    getx = np_.frombuffer(trace.accesses, dtype=np_.int8).astype(
        np_.int64
    )
    n_procs = trace.n_processors

    order = np_.argsort(keys, kind="stable")
    k_sorted = keys[order]
    r_sorted = requesters[order]
    x_sorted = getx[order]

    # Segment (per-block) bookkeeping over the sorted view.
    seg_start = np_.empty(n, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = k_sorted[1:] != k_sorted[:-1]
    seg_id = np_.cumsum(seg_start) - 1
    n_segments = int(seg_id[-1]) + 1 if n else 0

    # Exclusive per-block GETX count = the record's epoch index.
    cum_getx = np_.cumsum(x_sorted) - x_sorted
    seg_base = cum_getx[seg_start][seg_id]
    epoch = cum_getx - seg_base

    # One flat slot per (block, epoch); epoch e >= 1 is owned by the
    # requester of the block's e-th GETX.
    getx_per_seg = np_.bincount(
        seg_id, weights=x_sorted, minlength=n_segments
    ).astype(np_.int64)
    offsets = np_.zeros(n_segments, dtype=np_.int64)
    np_.cumsum(getx_per_seg[:-1] + 1, out=offsets[1:])
    total_slots = int(
        offsets[-1] + getx_per_seg[-1] + 1
    ) if n_segments else 0
    owners = np_.full(total_slots, -1, dtype=np_.int64)
    getx_mask_sorted = x_sorted == 1
    slot = offsets[seg_id] + epoch
    owners[slot[getx_mask_sorted] + 1] = r_sorted[getx_mask_sorted]
    owner_of = owners[slot]

    owner_term = ((owner_of >= 0) & (owner_of != r_sorted)).astype(
        np_.int64
    )
    counts_sorted = owner_term.copy()

    # Distinct epoch readers (GETS by non-owners), via unique pairs.
    reader_mask = (~getx_mask_sorted) & (r_sorted != owner_of)
    pair = slot * n_procs + r_sorted
    unique_pairs = np_.unique(pair[reader_mask])
    readers_per_slot = np_.bincount(
        unique_pairs // n_procs, minlength=max(total_slots, 1)
    )
    if getx_mask_sorted.any():
        ending_slot = slot[getx_mask_sorted]
        writer = r_sorted[getx_mask_sorted]
        target = ending_slot * n_procs + writer
        position = np_.searchsorted(unique_pairs, target)
        position = np_.minimum(position, max(len(unique_pairs) - 1, 0))
        writer_was_reader = (
            unique_pairs[position] == target
            if len(unique_pairs)
            else np_.zeros(len(target), dtype=bool)
        )
        counts_sorted[getx_mask_sorted] += (
            readers_per_slot[ending_slot]
            - writer_was_reader.astype(np_.int64)
        )

    counts = np_.empty(n, dtype=np_.int64)
    counts[order] = counts_sorted
    getx_mask = np_.empty(n, dtype=bool)
    getx_mask[order] = getx_mask_sorted
    return counts, getx_mask


def sharing_histogram_records(
    trace: Trace,
    warmup_fraction: float = 0.25,
    block_size: Optional[int] = None,
) -> SharingHistogram:
    """Figure 2 via the record-at-a-time replay (equivalence oracle)."""
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    state = GlobalCoherenceState(trace.n_processors, block_size)
    apply_fast = state.apply_fast
    n_warmup = int(len(trace) * warmup_fraction)
    reads = collections.Counter()
    writes = collections.Counter()
    measured = 0
    top_bin = SHARING_BINS[-1]
    index = 0
    for block, requester, code in zip(
        trace.block_keys(state.block_size),
        trace.requesters,
        trace.accesses,
    ):
        required = apply_fast(block, requester, code)[3]
        index += 1
        if index <= n_warmup:
            continue
        measured += 1
        bin_index = min(popcount(required), top_bin)
        if code:
            writes[bin_index] += 1
        else:
            reads[bin_index] += 1
    return _histogram_from_counts(trace.name, reads, writes, measured)


def sharing_histogram(
    trace: Trace,
    warmup_fraction: float = 0.25,
    block_size: Optional[int] = None,
) -> SharingHistogram:
    """Compute the Figure 2 histogram for one trace.

    Vectorized over the trace's key columns when numpy is available;
    identical to :func:`sharing_histogram_records` either way.
    """
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    np_ = _columns.numpy_module()
    if np_ is None or len(trace) == 0:
        return sharing_histogram_records(
            trace, warmup_fraction, block_size
        )
    counts, getx_mask = _required_counts_cached(np_, trace, block_size)
    n_warmup = int(len(trace) * warmup_fraction)
    top_bin = SHARING_BINS[-1]
    bins = np_.minimum(counts[n_warmup:], top_bin)
    getx_measured = getx_mask[n_warmup:]
    write_hist = np_.bincount(
        bins[getx_measured], minlength=top_bin + 1
    )
    read_hist = np_.bincount(
        bins[~getx_measured], minlength=top_bin + 1
    )
    measured = len(trace) - n_warmup
    reads = {b: int(read_hist[b]) for b in SHARING_BINS}
    writes = {b: int(write_hist[b]) for b in SHARING_BINS}
    return _histogram_from_counts(trace.name, reads, writes, measured)


def _histogram_from_counts(
    name: str, reads, writes, measured: int
) -> SharingHistogram:
    denominator = max(1, measured)
    return SharingHistogram(
        workload=name,
        read_pct={
            b: 100.0 * reads[b] / denominator for b in SHARING_BINS
        },
        write_pct={
            b: 100.0 * writes[b] / denominator for b in SHARING_BINS
        },
        total_misses=measured,
    )


@dataclasses.dataclass(frozen=True)
class DegreeOfSharing:
    """Figure 3 data: blocks (and misses) by processor-touch count.

    ``blocks_pct[n]`` is the percent of unique blocks touched by
    exactly ``n`` processors (Fig 3a); ``misses_pct[n]`` weights each
    block by its miss count (Fig 3b).  Keys run 1..n_processors.
    """

    workload: str
    blocks_pct: Dict[int, float]
    misses_pct: Dict[int, float]
    unique_blocks: int

    def blocks_cumulative(self, up_to: int) -> float:
        """Percent of blocks touched by at most ``up_to`` processors."""
        return sum(
            pct for n, pct in self.blocks_pct.items() if n <= up_to
        )

    def misses_cumulative(self, up_to: int) -> float:
        """Percent of misses to blocks touched by <= ``up_to`` procs."""
        return sum(
            pct for n, pct in self.misses_pct.items() if n <= up_to
        )


def degree_of_sharing_records(
    trace: Trace, block_size: Optional[int] = None
) -> DegreeOfSharing:
    """Figure 3 via the record loop (equivalence oracle)."""
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    touchers: Dict[int, set] = collections.defaultdict(set)
    miss_counts: Dict[int, int] = collections.Counter()
    blocks = trace.block_keys(block_size)
    for block, requester in zip(blocks, trace.requesters):
        touchers[block].add(requester)
    miss_counts.update(blocks)

    block_histogram = collections.Counter()
    miss_histogram = collections.Counter()
    for block, nodes in touchers.items():
        degree = len(nodes)
        block_histogram[degree] += 1
        miss_histogram[degree] += miss_counts[block]
    return _degree_from_histograms(
        trace, block_histogram, miss_histogram, len(touchers)
    )


def degree_of_sharing(
    trace: Trace, block_size: Optional[int] = None
) -> DegreeOfSharing:
    """Compute the Figure 3 histograms for one trace.

    ``block_size`` defaults to the same granularity as
    :func:`sharing_histogram` (:data:`DEFAULT_BLOCK_SIZE`); pass the
    system's configured block size when analysing a non-default
    configuration.  Vectorized (unique/bincount over the block-key
    column) when numpy is available.
    """
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    np_ = _columns.numpy_module()
    if np_ is None or len(trace) == 0:
        return degree_of_sharing_records(trace, block_size)
    keys = np_.frombuffer(
        trace.block_keys(block_size), dtype=np_.int64
    )
    requesters = np_.frombuffer(trace.requesters, dtype=np_.int32)
    n_procs = trace.n_processors
    # One sort of the (block, requester) pairs yields everything: runs
    # of equal block are the per-block miss counts, runs of equal pair
    # collapse to the distinct touchers behind the degree.  The pair
    # packs into one int64 relative to the smallest key when the keys'
    # span leaves room for it; past that a packed key would wrap, so
    # the pairs are sorted as two keys instead.  Both stay: on a
    # 2-core x86_64 host lexsort costs ~7 ms more per 100k-reference
    # trace than the packed sort (~15% of a corpus_cold pass), and no
    # collected trace needs it.
    base = int(keys.min())
    new_pair = np_.empty(len(keys), dtype=bool)
    new_pair[0] = True
    if (int(keys.max()) - base + 1) * n_procs < 1 << 63:
        pair = (keys - base) * n_procs + requesters
        pair.sort()
        new_pair[1:] = pair[1:] != pair[:-1]
        block_sorted = pair // n_procs
    else:
        order = np_.lexsort((requesters, keys))
        block_sorted = keys[order]
        requester_sorted = requesters[order]
        new_pair[1:] = (block_sorted[1:] != block_sorted[:-1]) | (
            requester_sorted[1:] != requester_sorted[:-1]
        )
    new_block = np_.empty(len(keys), dtype=bool)
    new_block[0] = True
    new_block[1:] = block_sorted[1:] != block_sorted[:-1]
    block_ids = np_.cumsum(new_block) - 1
    miss_counts = np_.bincount(block_ids)
    degrees = np_.bincount(block_ids[new_pair])
    block_histogram = np_.bincount(degrees, minlength=n_procs + 1)
    miss_histogram = np_.bincount(
        degrees, weights=miss_counts, minlength=n_procs + 1
    ).astype(np_.int64)
    return _degree_from_histograms(
        trace,
        {d: int(c) for d, c in enumerate(block_histogram) if c},
        {d: int(c) for d, c in enumerate(miss_histogram) if c},
        int(block_ids[-1]) + 1,
    )


def _degree_from_histograms(
    trace: Trace, block_histogram, miss_histogram, unique_blocks: int
) -> DegreeOfSharing:
    n_procs = trace.n_processors
    n_blocks = max(1, unique_blocks)
    n_misses = max(1, len(trace))
    return DegreeOfSharing(
        workload=trace.name,
        blocks_pct={
            n: 100.0 * block_histogram.get(n, 0) / n_blocks
            for n in range(1, n_procs + 1)
        },
        misses_pct={
            n: 100.0 * miss_histogram.get(n, 0) / n_misses
            for n in range(1, n_procs + 1)
        },
        unique_blocks=unique_blocks,
    )
