"""Batched (chunked, columnar) workload-reference generation.

The scalar path (:meth:`WorkloadModel.references`) draws one record at
a time from a Mersenne-Twister stream; it remains the readable
specification and the equivalence oracle.  This module is the cold
path's fast engine: references are synthesized in *chunks of columns*
(nodes, addresses, pcs, write flags, instruction gaps) so the cache
pipeline and trace container can consume them without per-record
object allocation.

Determinism contract
--------------------

Every random decision is a pure function of ``(seed, workload name,
stream label, counter)``:

- a **counter-based generator** (splitmix64 over a
  :func:`~repro.common.rng.derive_seed`-derived key) replaces the
  sequential Mersenne Twister, so any index of any stream can be
  computed independently — which is what makes the draws vectorizable;
- region selection and bounded-Zipf address draws go through
  precomputed **threshold tables** searched with
  ``bisect_right``/``searchsorted``, and fraction checks compare
  53-bit integers against integer thresholds, so the numpy and
  pure-Python backends produce *bit-identical* integers;
- all cross-chunk state (streaming cursors, migratory run parity,
  producer/consumer cursors) lives in per-region sampler objects keyed
  only by per-region access counters, so the chunk size never affects
  the generated stream.

Three tiers produce the stream, identical record for record:

- ``sample_py`` / :meth:`ChunkedReferenceSource._chunk_py` — the pure
  Python oracle, one record at a time;
- ``sample_np`` / ``_chunk_np`` — the numpy fallback, vectorized per
  region;
- native — ``_native.Generator`` (:mod:`repro.kernels`), which walks
  positions in order and replays each region's ``sample_py`` logic in
  C, filling five int64 buffers per chunk.  It receives the Zipf and
  region-selection tables as the same Python-built float64 values the
  other tiers search, so no libm result can differ.

The native tier runs whenever the unified backend is ``native``
(:mod:`repro.common.backend`) and the model fits its envelope; one
source stays on the tier it started with.  Otherwise numpy generates
when it imports and pure Python when it does not
(``REPRO_PURE_PYTHON=1`` or :func:`repro.trace.columns.set_backend`).
The generation-equivalence suite asserts byte-identical chunks across
all three for every workload in the registry.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from math import log
from typing import Dict, Iterable, Iterator, List, Tuple

from repro import kernels
from repro.common.rng import derive_seed
from repro.trace import columns as _columns
from repro.workloads.patterns import _PC_STRIDE

#: splitmix64 sequence constant.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
#: Draws are 53-bit integers; scaling by 2**-53 yields a float64 in
#: [0, 1) exactly representable in both backends.
_U53 = 53
_U53_SCALE = 2.0 ** -53
_TWO53 = 1 << 53

#: Default generation chunk size (references per chunk).
DEFAULT_CHUNK_SIZE = 65_536


def _fraction_threshold(fraction: float) -> int:
    """``fraction`` as an integer threshold against 53-bit draws."""
    threshold = int(fraction * _TWO53)
    return min(max(threshold, 0), _TWO53)


def _draws53_py(key: int, start: int, count: int) -> List[int]:
    """``count`` 53-bit splitmix64 draws at ``start`` (pure Python)."""
    out = []
    append = out.append
    state = (key + (start + 1) * _GOLDEN) & _MASK64
    for _ in range(count):
        z = state
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        append(z >> 11)
        state = (state + _GOLDEN) & _MASK64
    return out


def _draws53_np(np_, key: int, start: int, count: int):
    """``count`` 53-bit splitmix64 draws at ``start`` (vectorized)."""
    counters = np_.arange(start + 1, start + 1 + count, dtype=np_.uint64)
    z = counters * np_.uint64(_GOLDEN) + np_.uint64(key)
    z ^= z >> np_.uint64(30)
    z *= np_.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np_.uint64(27)
    z *= np_.uint64(0x94D049BB133111EB)
    z ^= z >> np_.uint64(31)
    return (z >> np_.uint64(11)).astype(np_.int64)


class _ZipfThresholds:
    """Inverse-CDF thresholds for the bounded-Zipf address draw.

    Reproduces the distribution of :func:`repro.common.rng.zipf_rank`
    (the same closed-form approximate inversion) as a monotone
    threshold table over the uniform draw, so every tier samples by
    table search instead of transcendental math — table values are
    computed once in pure Python floats and shared, which is what
    makes numpy, pure-Python and native samples bit-identical.  A
    source builds one table per distinct ``(n, exponent)``
    (:meth:`ChunkedReferenceSource._zipf`).
    """

    __slots__ = ("n", "uniform", "_thresholds", "_thresholds_np")

    def __init__(self, n: int, exponent: float):
        self.n = n
        self.uniform = exponent <= 0
        self._thresholds_np = None
        if self.uniform or n <= 1:
            self._thresholds: List[float] = []
            return
        if abs(exponent - 1.0) < 1e-9:
            log_np1 = log(n + 1.0)
            self._thresholds = [
                log(rank + 1.0) / log_np1 for rank in range(1, n)
            ]
        else:
            h = 1.0 - exponent
            norm = ((n + 1.0) ** h - 1.0) / h
            scale = norm * h
            self._thresholds = [
                ((rank + 1.0) ** h - 1.0) / scale for rank in range(1, n)
            ]

    def sample_py(self, u53: int) -> int:
        if self.uniform:
            return u53 % self.n
        if not self._thresholds:
            return 0
        return bisect_right(self._thresholds, u53 * _U53_SCALE)

    def sample_np(self, np_, u53):
        if self.uniform:
            return u53 % self.n
        if not self._thresholds:
            return np_.zeros(len(u53), dtype=np_.int64)
        if self._thresholds_np is None:
            self._thresholds_np = np_.asarray(
                self._thresholds, dtype=np_.float64
            )
        u = u53.astype(np_.float64) * _U53_SCALE
        return np_.searchsorted(
            self._thresholds_np, u, side="right"
        ).astype(np_.int64)


class ReferenceChunk:
    """One chunk of generated references, as parallel columns.

    Columns hold ints (``writes`` holds 0/1) with identical values
    across tiers.  The pure and numpy tiers yield plain lists; the
    numpy tier additionally carries the numpy address column as
    ``addresses_np`` and materializes the boxed ``addresses`` list
    lazily, so the set-index precompute can stay vectorized.  The
    native tier yields five stdlib ``array('q')`` int64 buffers, which
    the native collector reads in place.
    """

    __slots__ = (
        "nodes", "_addresses", "pcs", "writes", "instructions",
        "addresses_np",
    )

    def __init__(
        self, nodes, addresses, pcs, writes, instructions,
        addresses_np=None,
    ):
        self.nodes = nodes
        self._addresses = addresses
        self.pcs = pcs
        self.writes = writes
        self.instructions = instructions
        self.addresses_np = addresses_np

    @property
    def addresses(self):
        if self._addresses is None:
            self._addresses = self.addresses_np.tolist()
        return self._addresses

    def __len__(self) -> int:
        return len(self.nodes)


def chunks_from_references(
    references: Iterable, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[ReferenceChunk]:
    """Column chunks from a scalar :class:`MemoryReference` stream.

    Bridges record-oriented generators (the scalar oracle path, saved
    streams) onto the chunk-consuming collector fast path.
    """
    iterator = iter(references)
    while True:
        batch = list(itertools.islice(iterator, chunk_size))
        if not batch:
            return
        yield ReferenceChunk(
            [r.node for r in batch],
            [r.address for r in batch],
            [r.pc for r in batch],
            [1 if r.is_write else 0 for r in batch],
            [r.instructions for r in batch],
        )


# ----------------------------------------------------------------------
# Per-region column samplers
# ----------------------------------------------------------------------
class _Sampler:
    """Base: draw-key management and the per-region access counter."""

    def __init__(self, region, keys: Tuple[int, int, int, int]):
        self.zipf = None
        self.base = region.base
        self.n_blocks = region.n_blocks
        self.block_size = region.block_size
        self.pc_base = region.pc_base
        self.n_pc_sites = region.n_pc_sites
        self.keys = keys
        self.counter = 0

    def _advance(self, count: int) -> int:
        j0 = self.counter
        self.counter += count
        return j0

    def _pc_site(self, site: int) -> int:
        return self.pc_base + (site % self.n_pc_sites) * _PC_STRIDE


class _PrivateSampler(_Sampler):
    """Streaming-or-Zipf private data (see ``PrivateRegion``)."""

    def __init__(self, region, keys, params, zipf):
        super().__init__(region, keys)
        self.t_stream = _fraction_threshold(params["streaming_fraction"])
        self.t_write = _fraction_threshold(params["write_fraction"])
        self.zipf = zipf(self.n_blocks, params["exponent"])
        self.cursor = 0

    def sample_py(self, nodes, m):
        j0 = self._advance(m)
        k0, k1, k2, k3 = self.keys
        s53 = _draws53_py(k0, j0, m)
        a53 = _draws53_py(k1, j0, m)
        w53 = _draws53_py(k2, j0, m)
        x53 = _draws53_py(k3, j0, m)
        cursor, nb = self.cursor, self.n_blocks
        base, bs = self.base, self.block_size
        zipf_sample = self.zipf.sample_py
        addrs, writes, pcs = [], [], []
        for i in range(m):
            if s53[i] < self.t_stream:
                block = cursor
                cursor = (cursor + 1) % nb
            else:
                block = zipf_sample(a53[i])
            write = 1 if w53[i] < self.t_write else 0
            site = (0 if write else 1) + (x53[i] & 1) * 4
            if block == cursor:
                site += 2
            addrs.append(base + block * bs)
            writes.append(write)
            pcs.append(self._pc_site(site))
        self.cursor = cursor
        return addrs, writes, pcs

    def sample_np(self, np_, nodes, m):
        j0 = self._advance(m)
        k0, k1, k2, k3 = self.keys
        streaming = _draws53_np(np_, k0, j0, m) < self.t_stream
        a53 = _draws53_np(np_, k1, j0, m)
        writes = (_draws53_np(np_, k2, j0, m) < self.t_write).astype(
            np_.int64
        )
        jitter = _draws53_np(np_, k3, j0, m) & 1
        nb = self.n_blocks
        streamed = np_.cumsum(streaming)
        cursor_at = (self.cursor + streamed) % nb
        block = np_.where(
            streaming,
            (self.cursor + streamed - 1) % nb,
            self.zipf.sample_np(np_, a53),
        )
        site = (
            1 - writes
            + jitter * 4
            + 2 * (block == cursor_at)
        )
        pcs = self.pc_base + (site % self.n_pc_sites) * _PC_STRIDE
        self.cursor = int(cursor_at[-1]) if m else self.cursor
        return self.base + block * self.block_size, writes, pcs


class _MigratorySampler(_Sampler):
    """Read-modify-write data migrating along same-node runs.

    A write happens exactly when the previous access to the region was
    a read by the same node, so write flags alternate within each
    maximal run of equal consecutive nodes (starting with a read) —
    which vectorizes as run-relative parity.
    """

    def __init__(self, region, keys, params, zipf):
        super().__init__(region, keys)
        self.zipf = zipf(self.n_blocks, params["exponent"])
        self.last_node = -1
        self.last_was_write = False
        self.last_addr = 0

    def sample_py(self, nodes, m):
        j0 = self._advance(m)
        a53 = _draws53_py(self.keys[1], j0, m)
        base, bs = self.base, self.block_size
        pc_read, pc_write = self._pc_site(0), self._pc_site(1)
        zipf_sample = self.zipf.sample_py
        last_node = self.last_node
        last_was_write = self.last_was_write
        last_addr = self.last_addr
        addrs, writes, pcs = [], [], []
        for i in range(m):
            node = nodes[i]
            if node == last_node and not last_was_write:
                addr = last_addr
                writes.append(1)
                pcs.append(pc_write)
                last_was_write = True
            else:
                addr = base + zipf_sample(a53[i]) * bs
                writes.append(0)
                pcs.append(pc_read)
                last_was_write = False
            addrs.append(addr)
            last_node, last_addr = node, addr
        self.last_node = last_node
        self.last_was_write = last_was_write
        self.last_addr = last_addr
        return addrs, writes, pcs

    def sample_np(self, np_, nodes, m):
        j0 = self._advance(m)
        a53 = _draws53_np(np_, self.keys[1], j0, m)
        same = np_.empty(m, dtype=bool)
        same[0] = nodes[0] == self.last_node
        same[1:] = nodes[1:] == nodes[:-1]
        index = np_.arange(m)
        run_start = np_.maximum.accumulate(np_.where(~same, index, 0))
        offset = index - run_start
        write = (offset & 1) == 1
        if same[0] and not self.last_was_write:
            # The first run continues a run whose last access was a
            # read, so its parity is flipped: it opens with a write.
            starts = np_.flatnonzero(~same)
            first_len = int(starts[0]) if len(starts) else m
            write[:first_len] = (offset[:first_len] & 1) == 0
        read_addr = self.base + self.zipf.sample_np(np_, a53) * (
            self.block_size
        )
        prev_addr = np_.empty(m, dtype=np_.int64)
        prev_addr[0] = self.last_addr
        prev_addr[1:] = read_addr[:-1]
        addrs = np_.where(write, prev_addr, read_addr)
        pcs = np_.where(write, self._pc_site(1), self._pc_site(0))
        self.last_node = int(nodes[-1])
        self.last_was_write = bool(write[-1])
        self.last_addr = int(addrs[-1])
        return addrs, write.astype(np_.int64), pcs


class _ProducerConsumerSampler(_Sampler):
    """Sequential producer/consumer cursors.

    Draw free; the consumer clamp (never read past the producer)
    couples each read cursor to the live write cursor, so both
    backends share one integer state loop — identical by construction
    and cheap because no random draws are consumed.
    """

    def __init__(self, region, keys, params, zipf):
        super().__init__(region, keys)
        self.producer = params["producer"]
        consumers = params["consumers"]
        self.write_cursor = 0
        self.read_cursors: Dict[int, int] = {c: 0 for c in consumers}
        self.consumer_pc = {
            consumer: self._pc_site(1 + rank % 4)
            for rank, consumer in enumerate(consumers)
        }

    def _sample_seq(self, nodes, m):
        self._advance(m)
        nb = self.n_blocks
        base, bs = self.base, self.block_size
        producer = self.producer
        pc_write = self._pc_site(0)
        write_cursor = self.write_cursor
        read_cursors = self.read_cursors
        addrs, writes, pcs = [], [], []
        for i in range(m):
            node = nodes[i]
            if node == producer:
                block = write_cursor
                write_cursor = (write_cursor + 1) % nb
                writes.append(1)
                pcs.append(pc_write)
            else:
                cursor = read_cursors[node]
                if cursor == write_cursor:
                    cursor = (write_cursor - 1) % nb
                read_cursors[node] = (cursor + 1) % nb
                block = cursor
                writes.append(0)
                pcs.append(self.consumer_pc[node])
            addrs.append(base + block * bs)
        self.write_cursor = write_cursor
        return addrs, writes, pcs

    def sample_py(self, nodes, m):
        return self._sample_seq(nodes, m)

    def sample_np(self, np_, nodes, m):
        return self._sample_seq(nodes.tolist(), m)


class _ReadMostlySampler(_Sampler):
    """Widely shared hot-block data with rare writes."""

    def __init__(self, region, keys, params, zipf):
        super().__init__(region, keys)
        self.t_write = _fraction_threshold(params["write_fraction"])
        self.zipf = zipf(self.n_blocks, params["exponent"])

    def sample_py(self, nodes, m):
        j0 = self._advance(m)
        a53 = _draws53_py(self.keys[1], j0, m)
        w53 = _draws53_py(self.keys[2], j0, m)
        base, bs = self.base, self.block_size
        zipf_sample = self.zipf.sample_py
        pc_write = self._pc_site(0)
        addrs, writes, pcs = [], [], []
        for i in range(m):
            block = zipf_sample(a53[i])
            addrs.append(base + block * bs)
            if w53[i] < self.t_write:
                writes.append(1)
                pcs.append(pc_write)
            else:
                writes.append(0)
                pcs.append(self._pc_site(1 + block % 3))
        return addrs, writes, pcs

    def sample_np(self, np_, nodes, m):
        j0 = self._advance(m)
        block = self.zipf.sample_np(
            np_, _draws53_np(np_, self.keys[1], j0, m)
        )
        write = _draws53_np(np_, self.keys[2], j0, m) < self.t_write
        site = np_.where(write, 0, (1 + block % 3) % self.n_pc_sites)
        pcs = self.pc_base + site * _PC_STRIDE
        return (
            self.base + block * self.block_size,
            write.astype(np_.int64),
            pcs,
        )


_SAMPLERS = {
    "private": _PrivateSampler,
    "migratory": _MigratorySampler,
    "producer-consumer": _ProducerConsumerSampler,
    "read-mostly": _ReadMostlySampler,
}


# ----------------------------------------------------------------------
# The chunked source
# ----------------------------------------------------------------------
class ChunkedReferenceSource:
    """Generates a workload's reference stream as column chunks.

    Construct one per generation run: samplers carry cross-chunk
    region state, so a source must not be reused for a second stream.
    """

    def __init__(self, model):
        config = model.config
        self.n_processors = config.n_processors
        ipr = model.instructions_per_reference
        self.gap_lo = max(1, ipr // 2)
        self.gap_span = max(1, ipr + ipr // 2) - self.gap_lo + 1
        seed, name = model.seed, model.name
        self.key_select = derive_seed(seed, name, "chunks", "select")
        self.key_gap = derive_seed(seed, name, "chunks", "gap")

        regions = [region for region, _ in model.regions]
        self._zipf_tables: Dict[Tuple[int, float], _ZipfThresholds] = {}
        self.samplers = []
        for index, region in enumerate(regions):
            kind, params = region.batch_spec()
            keys = tuple(
                derive_seed(seed, name, "chunks", "region", index, lane)
                for lane in range(4)
            )
            self.samplers.append(
                _SAMPLERS[kind](region, keys, params, self._zipf)
            )

        # Per-node region-selection threshold tables (floats in [0, 1),
        # built once in pure Python so both backends share bits), plus
        # the eligible regions' global indices — both derived from the
        # model's canonical eligibility tables.
        self.node_thresholds: List[List[float]] = []
        self.node_region_ids: List[List[int]] = []
        for indices, cumulative in model.node_region_tables():
            total = cumulative[-1]
            self.node_thresholds.append(
                [value / total for value in cumulative[:-1]]
            )
            self.node_region_ids.append(list(indices))
        self._node_thresholds_np = None
        self._node_region_ids_np = None

    def _zipf(self, n: int, exponent: float) -> _ZipfThresholds:
        """The source's one Zipf table for ``(n, exponent)``."""
        table = self._zipf_tables.get((n, exponent))
        if table is None:
            table = _ZipfThresholds(n, exponent)
            self._zipf_tables[(n, exponent)] = table
        return table

    # ------------------------------------------------------------------
    def chunks(
        self,
        n_references: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[ReferenceChunk]:
        """Yield the stream's column chunks, in order."""
        if n_references < 0:
            raise ValueError("n_references must be non-negative")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        generator = kernels.generator(self) if n_references else None
        start = 0
        while start < n_references:
            size = min(chunk_size, n_references - start)
            if generator is not None:
                yield generator.chunk(start, size)
            else:
                np_ = _columns.numpy_module()
                if np_ is not None:
                    yield self._chunk_np(np_, start, size)
                else:
                    yield self._chunk_py(start, size)
            start += size

    # ------------------------------------------------------------------
    def _chunk_np(self, np_, start: int, m: int) -> ReferenceChunk:
        if self._node_thresholds_np is None:
            self._node_thresholds_np = [
                np_.asarray(t, dtype=np_.float64)
                for t in self.node_thresholds
            ]
            self._node_region_ids_np = [
                np_.asarray(ids, dtype=np_.int64)
                for ids in self.node_region_ids
            ]
        n_procs = self.n_processors
        select_u = (
            _draws53_np(np_, self.key_select, start, m).astype(
                np_.float64
            )
            * _U53_SCALE
        )
        gaps = (
            self.gap_lo
            + _draws53_np(np_, self.key_gap, start, m) % self.gap_span
        )
        nodes = np_.arange(start, start + m, dtype=np_.int64) % n_procs
        region_ids = np_.empty(m, dtype=np_.int64)
        for node in range(n_procs):
            lanes = slice((node - start) % n_procs, m, n_procs)
            local = np_.searchsorted(
                self._node_thresholds_np[node],
                select_u[lanes],
                side="right",
            )
            region_ids[lanes] = self._node_region_ids_np[node][local]

        # Group positions by region (stable: ascending within each
        # group) and let each region fill its slice of the columns.
        order = np_.argsort(region_ids, kind="stable")
        sorted_ids = region_ids[order]
        breaks = np_.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
        starts = np_.concatenate(([0], breaks))
        ends = np_.concatenate((breaks, [m]))
        addresses = np_.empty(m, dtype=np_.int64)
        pcs = np_.empty(m, dtype=np_.int64)
        writes = np_.empty(m, dtype=np_.int64)
        for lo, hi in zip(starts, ends):
            positions = order[lo:hi]
            sampler = self.samplers[int(sorted_ids[lo])]
            addr, write, pc = sampler.sample_np(
                np_, nodes[positions], int(hi - lo)
            )
            addresses[positions] = addr
            writes[positions] = write
            pcs[positions] = pc
        return ReferenceChunk(
            nodes.tolist(),
            None,
            pcs.tolist(),
            writes.tolist(),
            gaps.tolist(),
            addresses_np=addresses,
        )

    # ------------------------------------------------------------------
    def _chunk_py(self, start: int, m: int) -> ReferenceChunk:
        n_procs = self.n_processors
        select = _draws53_py(self.key_select, start, m)
        gap53 = _draws53_py(self.key_gap, start, m)
        gap_lo, gap_span = self.gap_lo, self.gap_span
        thresholds = self.node_thresholds
        region_ids_by_node = self.node_region_ids
        by_region: Dict[int, List[int]] = {}
        nodes = []
        for i in range(m):
            node = (start + i) % n_procs
            nodes.append(node)
            local = bisect_right(
                thresholds[node], select[i] * _U53_SCALE
            )
            region = region_ids_by_node[node][local]
            positions = by_region.get(region)
            if positions is None:
                by_region[region] = [i]
            else:
                positions.append(i)

        addresses = [0] * m
        pcs = [0] * m
        writes = [0] * m
        for region in sorted(by_region):
            positions = by_region[region]
            addr, write, pc = self.samplers[region].sample_py(
                [nodes[i] for i in positions], len(positions)
            )
            for offset, i in enumerate(positions):
                addresses[i] = addr[offset]
                writes[i] = write[offset]
                pcs[i] = pc[offset]
        return ReferenceChunk(
            nodes,
            addresses,
            pcs,
            writes,
            [gap_lo + value % gap_span for value in gap53],
        )
