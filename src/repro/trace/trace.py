"""In-memory coherence-request trace container (columnar engine).

The trace is stored as a structure of parallel arrays — one compact
``array`` per field (address, pc, requester, access, instructions) —
instead of a list of :class:`TraceRecord` objects.  The record-oriented
API is preserved: iteration and indexing materialize records on demand,
so existing consumers are unaffected, while hot loops (protocols, the
timing simulator, analyses) index the columns directly and never
allocate per-event objects.

Derived key columns (block- and macroblock-aligned addresses) are
computed once per trace via :meth:`Trace.block_keys` and cached, so the
six-protocol sweeps that replay one trace repeatedly share the aligned
addresses instead of recomputing them per consumer.
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from repro.common.types import AccessType, NodeId
from repro.trace import columns as _columns
from repro.trace.record import TraceRecord

#: Access-kind column encoding: index into this tuple is the code.
ACCESS_BY_CODE = (AccessType.GETS, AccessType.GETX)

#: Array typecodes for each column (addresses/pcs/instruction gaps are
#: 64-bit; requesters are small ints; access codes fit a signed byte).
_ADDR_TYPE = "q"
_NODE_TYPE = "i"
_CODE_TYPE = "b"


class Trace:
    """An ordered sequence of coherence requests with provenance.

    The paper uses the first one million misses to warm caches and
    predictors; :meth:`split_warmup` supports the same protocol.
    """

    __slots__ = (
        "_n_processors",
        "_name",
        "_addresses",
        "_pcs",
        "_requesters",
        "_accesses",
        "_instructions",
        "_key_cache",
        "_memo_lock",
        "_frozen",
        "_source",
        "_derived_store",
        "_derived_meta",
    )

    def __init__(
        self,
        records: Iterable[TraceRecord] = (),
        n_processors: int = 16,
        name: str = "",
    ):
        if n_processors <= 0:
            raise ValueError("n_processors must be positive")
        self._n_processors = n_processors
        self._name = name
        self._addresses = array(_ADDR_TYPE)
        self._pcs = array(_ADDR_TYPE)
        self._requesters = array(_NODE_TYPE)
        self._accesses = array(_CODE_TYPE)
        self._instructions = array(_ADDR_TYPE)
        self._key_cache = {}
        self._memo_lock = threading.RLock()
        self._frozen = False
        self._source = None
        self._derived_store = None
        self._derived_meta = None
        for record in records:
            self.append(record)

    @classmethod
    def _from_columns(
        cls,
        addresses: array,
        pcs: array,
        requesters: array,
        accesses: array,
        instructions: array,
        n_processors: int,
        name: str,
    ) -> "Trace":
        """Adopt already-validated columns without copying or checking."""
        self = object.__new__(cls)
        self._n_processors = n_processors
        self._name = name
        self._addresses = addresses
        self._pcs = pcs
        self._requesters = requesters
        self._accesses = accesses
        self._instructions = instructions
        self._key_cache = {}
        self._memo_lock = threading.RLock()
        self._frozen = False
        self._source = None
        self._derived_store = None
        self._derived_meta = None
        return self

    @classmethod
    def _from_buffers(
        cls,
        addresses,
        pcs,
        requesters,
        accesses,
        instructions,
        *,
        n_processors: int,
        name: str,
        source=None,
        derived_store=None,
        derived_meta=None,
    ) -> "Trace":
        """Adopt read-only buffer-backed columns (frozen, zero-copy).

        Columns are C-contiguous ``memoryview`` slices of ``source``
        (an open ``mmap`` over the trace store, or a private bytes
        copy under ``REPRO_MMAP=0``).  The trace is *frozen*: the
        first mutation copies every column into private arrays
        (:meth:`_materialize`), so the backing store is never written
        through.  ``derived_store``/``derived_meta`` optionally carry
        the persisted derived replay columns, served by
        :meth:`block_keys` / :meth:`block_keys_list` /
        :meth:`derived_columns` without recomputation.
        """
        self = cls._from_columns(
            addresses, pcs, requesters, accesses, instructions,
            n_processors, name,
        )
        self._frozen = True
        self._source = source
        self._derived_store = derived_store
        self._derived_meta = derived_meta
        return self

    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether columns are read-only views over a backing store."""
        return self._frozen

    def _materialize(self) -> None:
        """Copy-on-write: swap mapped columns for private arrays.

        Frozen traces serve columns as read-only views over the store
        mapping; the first mutation lands here, copying each column
        into a private ``array`` so the store file is never written
        through and concurrent readers of the same mapping are
        unaffected.
        """
        if not self._frozen:
            return
        with self._memo_lock:
            if not self._frozen:
                return
            self._addresses = array(_ADDR_TYPE, self._addresses.tobytes())
            self._pcs = array(_ADDR_TYPE, self._pcs.tobytes())
            self._requesters = array(_NODE_TYPE, self._requesters.tobytes())
            self._accesses = array(_CODE_TYPE, self._accesses.tobytes())
            self._instructions = array(
                _ADDR_TYPE, self._instructions.tobytes()
            )
            self._frozen = False
            self._source = None
            self._derived_store = None
            self._derived_meta = None
            self._key_cache.clear()

    def _stored_aligned(self, block_size: int):
        """The persisted aligned-address segment for ``block_size``.

        Returns the flat int64 view from the derived store when its
        configuration covers ``block_size`` (the store persists both
        block- and macroblock-aligned keys), else None.
        """
        store = self._derived_store
        if store is None:
            return None
        meta = self._derived_meta
        if block_size == meta["block_size"]:
            return store["blocks"]
        if block_size == meta["macroblock_size"]:
            return store["mblocks"]
        return None

    # ------------------------------------------------------------------
    @property
    def n_processors(self) -> int:
        """Processor count of the traced system."""
        return self._n_processors

    @property
    def name(self) -> str:
        """Workload name (e.g. ``"apache"``), for reporting."""
        return self._name

    # ------------------------------------------------------------------
    # Columnar access (the hot-path API)
    # ------------------------------------------------------------------
    @property
    def addresses(self) -> Sequence[int]:
        """The data-address column."""
        return self._addresses

    @property
    def pcs(self) -> Sequence[int]:
        """The program-counter column."""
        return self._pcs

    @property
    def requesters(self) -> Sequence[int]:
        """The requesting-node column."""
        return self._requesters

    @property
    def accesses(self) -> Sequence[int]:
        """The access-kind column (codes indexing :data:`ACCESS_BY_CODE`)."""
        return self._accesses

    @property
    def instructions(self) -> Sequence[int]:
        """The instruction-gap column."""
        return self._instructions

    def _memoize(self, cache_key, factory):
        """Double-checked memoization into ``_key_cache``.

        Sweep cells replay one shared trace on threads, so a miss
        recomputes under the per-trace lock: exactly one thread runs
        ``factory`` and every caller observes the same cached object
        (no duplicate work, no torn cache).  The lock is reentrant —
        factories may themselves call memoized accessors.
        """
        cached = self._key_cache.get(cache_key)
        if cached is None:
            with self._memo_lock:
                cached = self._key_cache.get(cache_key)
                if cached is None:
                    cached = factory()
                    self._key_cache[cache_key] = cached
        return cached

    def block_keys(self, block_size: int) -> Sequence[int]:
        """Addresses aligned down to ``block_size`` (cached per trace).

        Computed once and shared by every consumer that needs
        block-aligned (or, with a macroblock size, macroblock-aligned)
        keys — protocols, coherence state, sharing/locality analyses.

        On a frozen trace whose store persisted this configuration's
        derived columns, the aligned keys are served as a zero-copy
        int64 view over the mapping instead of being recomputed.
        """
        stored = self._stored_aligned(block_size)
        if stored is not None:
            return stored
        return self._memoize(
            block_size,
            lambda: _columns.aligned_array(
                self._addresses, block_size, _ADDR_TYPE
            ),
        )

    def macroblock_keys(self, macroblock_size: int) -> Sequence[int]:
        """Addresses aligned down to ``macroblock_size`` (cached)."""
        return self.block_keys(macroblock_size)

    def boxed_column(self, name: str) -> list:
        """One raw column as a pre-boxed list (cached per column).

        The scalar replay loop and the generic timing pass iterate
        lists instead of flat arrays so each element is boxed once per
        trace rather than once per replay; boxing lazily per column
        keeps consumers that need only a subset from pinning the
        rest.  ``name`` is one of ``addresses``/``pcs``/
        ``requesters``/``accesses``/``instructions``.
        """
        if name not in (
            "addresses", "pcs", "requesters", "accesses", "instructions"
        ):
            raise ValueError(f"unknown column {name!r}")
        return self._memoize(
            ("boxed", name), lambda: list(getattr(self, "_" + name))
        )

    def boxed_columns(self) -> tuple:
        """All five raw columns as pre-boxed lists (cached).

        Returns ``(addresses, pcs, requesters, accesses,
        instructions)``; prefer :meth:`boxed_column` when only a
        subset is needed.
        """
        return (
            self.boxed_column("addresses"),
            self.boxed_column("pcs"),
            self.boxed_column("requesters"),
            self.boxed_column("accesses"),
            self.boxed_column("instructions"),
        )

    def block_keys_list(self, block_size: int) -> list:
        """Block-aligned addresses as a pre-boxed list (cached).

        The lighter companion of :meth:`derived_columns` for replay
        loops that only need block keys (directory/snooping).
        """
        def factory():
            stored = self._stored_aligned(block_size)
            if stored is not None:
                return list(stored)
            return _columns.aligned_list(self._addresses, block_size)

        return self._memoize(("blocks", block_size), factory)

    def memo(self, key, factory):
        """Memoize a value derived from this trace's columns.

        Stored alongside the cached key columns and invalidated on
        mutation, so analyses that share an expensive derived column
        (e.g. the vectorized MOSI replay behind Figures 2 and 4)
        compute it once per trace.  ``key`` must be hashable and
        namespaced by the caller.
        """
        return self._memoize(key, factory)

    def derived_columns(
        self,
        block_size: int,
        n_processors: int,
        key_granularity: Optional[int] = None,
        use_pc_index: bool = False,
    ) -> "_columns.DerivedColumns":
        """Derived replay columns for one configuration (cached).

        Block keys, predictor index keys, home nodes, and the
        minimal-set/requester bitmasks, computed vectorized once per
        trace (numpy when available — see :mod:`repro.trace.columns`)
        and shared by every replay of this trace at the same
        configuration.
        """
        cache_key = (
            "derived", block_size, n_processors,
            key_granularity, use_pc_index,
        )

        def factory():
            meta = self._derived_meta
            if (
                self._derived_store is not None
                and not use_pc_index
                and block_size == meta["block_size"]
                and n_processors == meta["n_processors"]
                and key_granularity == meta["index_granularity"]
            ):
                return _columns.derived_from_segments(self._derived_store)
            return _columns.derived_columns(
                self._addresses,
                self._pcs,
                self._requesters,
                block_size,
                n_processors,
                key_granularity,
                use_pc_index,
            )

        return self._memoize(cache_key, factory)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, record: TraceRecord) -> None:
        """Append one record (validated against the processor count)."""
        self._check_record(record)
        self.append_fields(
            record.address,
            record.pc,
            record.requester,
            1 if record.access is AccessType.GETX else 0,
            record.instructions,
        )

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Append many records."""
        for record in records:
            self.append(record)

    def append_fields(
        self,
        address: int,
        pc: int,
        requester: int,
        access_code: int,
        instructions: int = 0,
    ) -> None:
        """Append one request from already-validated scalar fields.

        The trusted fast path for workload generators and trace IO:
        callers guarantee non-negative fields, ``requester`` within
        range, and ``access_code`` in {0 (GETS), 1 (GETX)}.
        """
        if self._frozen:
            self._materialize()
        self._addresses.append(address)
        self._pcs.append(pc)
        self._requesters.append(requester)
        self._accesses.append(access_code)
        self._instructions.append(instructions)
        if self._key_cache:
            self._key_cache.clear()

    def extend_fields(
        self,
        addresses: Iterable[int],
        pcs: Iterable[int],
        requesters: Iterable[int],
        access_codes: Iterable[int],
        instructions: Iterable[int],
    ) -> None:
        """Bulk-append already-validated parallel field columns.

        The chunk-consuming collector accumulates a chunk's misses in
        Python lists and lands them here with five ``array.extend``
        calls instead of per-record appends.  Callers guarantee the
        same invariants as :meth:`append_fields` and equal lengths.
        """
        if self._frozen:
            self._materialize()
        self._addresses.extend(addresses)
        self._pcs.extend(pcs)
        self._requesters.extend(requesters)
        self._accesses.extend(access_codes)
        self._instructions.extend(instructions)
        if self._key_cache:
            self._key_cache.clear()

    # ------------------------------------------------------------------
    def split_warmup(self, n_warmup: int) -> "Tuple[Trace, Trace]":
        """Split into (warmup, measurement) traces at ``n_warmup``.

        The split is memoized per ``n_warmup``: a sweep that replays
        one trace through many protocol configurations receives the
        *same* warmup/measurement ``Trace`` objects each time, so
        their cached derived columns are computed once and shared.
        Treat the returned traces as read-only.
        """
        if n_warmup < 0:
            raise ValueError("n_warmup must be non-negative")
        return self._memoize(
            ("split", n_warmup),
            lambda: (self[:n_warmup], self[n_warmup:]),
        )

    def filtered(
        self, predicate: Callable[[TraceRecord], bool]
    ) -> "Trace":
        """A new trace with only records satisfying ``predicate``."""
        out = Trace(n_processors=self._n_processors, name=self._name)
        append = out.append_fields
        by_code = ACCESS_BY_CODE
        trusted = TraceRecord.trusted
        for fields in zip(
            self._addresses,
            self._pcs,
            self._requesters,
            self._accesses,
            self._instructions,
        ):
            record = trusted(
                fields[0], fields[1], fields[2],
                by_code[fields[3]], fields[4],
            )
            if predicate(record):
                append(*fields)
        return out

    def reads(self) -> "Trace":
        """Only the GETS records."""
        return self._select_code(0)

    def writes(self) -> "Trace":
        """Only the GETX records."""
        return self._select_code(1)

    def by_processor(self, node: NodeId) -> "Trace":
        """Only records issued by ``node``."""
        out = Trace(n_processors=self._n_processors, name=self._name)
        append = out.append_fields
        for fields in zip(
            self._addresses,
            self._pcs,
            self._requesters,
            self._accesses,
            self._instructions,
        ):
            if fields[2] == node:
                append(*fields)
        return out

    def head(self, n: int) -> "Trace":
        """The first ``n`` records."""
        return self[:n]

    def unique_blocks(self, block_size: int) -> int:
        """Number of distinct block addresses touched."""
        return len(set(self.block_keys(block_size)))

    def unique_pcs(self) -> int:
        """Number of distinct miss PCs."""
        return len(set(self._pcs))

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TraceRecord]:
        trusted = TraceRecord.trusted
        by_code = ACCESS_BY_CODE
        for address, pc, requester, code, instructions in zip(
            self._addresses,
            self._pcs,
            self._requesters,
            self._accesses,
            self._instructions,
        ):
            yield trusted(
                address, pc, requester, by_code[code], instructions
            )

    def __len__(self) -> int:
        return len(self._addresses)

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self._frozen:
                return self._slice_frozen(index)
            return Trace._from_columns(
                self._addresses[index],
                self._pcs[index],
                self._requesters[index],
                self._accesses[index],
                self._instructions[index],
                self._n_processors,
                self._name,
            )
        return TraceRecord.trusted(
            self._addresses[index],
            self._pcs[index],
            self._requesters[index],
            ACCESS_BY_CODE[self._accesses[index]],
            self._instructions[index],
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self._name!r}, records={len(self)}, "
            f"n_processors={self._n_processors})"
        )

    # ------------------------------------------------------------------
    def _slice_frozen(self, index: slice) -> "Trace":
        """Slice a frozen trace, zero-copy when the step is one.

        Unit-step slices return sub-views of the same mapping — the
        persisted derived columns are element-aligned with the base
        columns, so they slice along for free and ``split_warmup``
        on a mapped trace stays zero-copy.  Strided slices
        materialize private arrays: a strided ``memoryview`` is not
        C-contiguous and must never reach the vectorized or native
        tiers.
        """
        start, stop, step = index.indices(len(self))
        if step != 1:
            return Trace._from_columns(
                array(_ADDR_TYPE, self._addresses[index]),
                array(_ADDR_TYPE, self._pcs[index]),
                array(_NODE_TYPE, self._requesters[index]),
                array(_CODE_TYPE, self._accesses[index]),
                array(_ADDR_TYPE, self._instructions[index]),
                self._n_processors,
                self._name,
            )
        view = slice(start, stop)
        derived_store = None
        if self._derived_store is not None:
            derived_store = {
                segment: column[view]
                for segment, column in self._derived_store.items()
            }
        return Trace._from_buffers(
            self._addresses[view],
            self._pcs[view],
            self._requesters[view],
            self._accesses[view],
            self._instructions[view],
            n_processors=self._n_processors,
            name=self._name,
            source=self._source,
            derived_store=derived_store,
            derived_meta=self._derived_meta,
        )

    def _select_code(self, code: int) -> "Trace":
        out = Trace(n_processors=self._n_processors, name=self._name)
        append = out.append_fields
        for fields in zip(
            self._addresses,
            self._pcs,
            self._requesters,
            self._accesses,
            self._instructions,
        ):
            if fields[3] == code:
                append(*fields)
        return out

    def _check_record(self, record: TraceRecord) -> None:
        if not isinstance(record, TraceRecord):
            raise TypeError(f"expected TraceRecord, got {type(record)}")
        if record.requester >= self._n_processors:
            raise ValueError(
                f"requester {record.requester} outside "
                f"[0, {self._n_processors})"
            )


def merge_round_robin(
    traces: Sequence[Trace], name: Optional[str] = None
) -> Trace:
    """Interleave per-processor traces into one global order.

    Used by workload generators that produce per-processor streams; the
    round-robin interleave models the totally-ordered interconnect's
    arbitration among concurrently issuing processors.
    """
    if not traces:
        raise ValueError("need at least one trace to merge")
    n_processors = traces[0].n_processors
    for trace in traces:
        if trace.n_processors != n_processors:
            raise ValueError("traces disagree on processor count")
    merged = Trace(
        n_processors=n_processors,
        name=name if name is not None else traces[0].name,
    )
    iterators = [iter(t) for t in traces]
    live = list(range(len(iterators)))
    while live:
        still_live = []
        for idx in live:
            try:
                merged.append(next(iterators[idx]))
            except StopIteration:
                continue
            still_live.append(idx)
        live = still_live
    return merged
