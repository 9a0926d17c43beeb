"""Marshalling glue between the kernel ABI and the C extension.

Each function here checks the native envelope (node count, race
probability, key-index shape, column dtypes) and hands the extension
flat columns plus config scalars, folding the results back through the
exact accounting statements the scalar Python loops execute — so a
native call is indistinguishable from the Python tier on every
observable (ResultSet JSON, predictor tables, cache/MOSI state,
hex-float timing goldens).  For replay, :func:`replay` is the single
statement of that envelope: which protocols and predictor lists have
a native twin, and which geometries the twin accepts.

Mutable state lives in three native objects: a ``_GeneratorSession``
holds a reference source's sampler cursors, a ``_CollectorSession``
owns a collector's cache/MOSI state and instruction counters while
chunks stream through it, and a ``_ReplaySession`` owns a protocol's
MOSI map and predictor tables across its replay calls.  The two
sessions are modelled the same way: each adopts the Python state once
(``load``; a fresh collector has none to adopt), ships only columns
per call, and writes the state back (``sync``) only when Python reads
it — which, in a sweep cell or a corpus collection, is never.

Callers come through :mod:`repro.kernels` (``try_replay`` /
``try_timing_pass`` / ``try_timing_pass_detailed`` /
``collector_session`` / ``try_collect`` / ``generator`` /
``try_required_counts``), which has already established that the
native tier is active.  Every decline is recorded via
:func:`repro.kernels.record_decline` and every session call's phase
nanoseconds via :func:`repro.kernels.record_phases`, so sweeps can
report where the native tier fell back and where its time went.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Optional

from repro import kernels as _kernels
from repro.cache.sets import SetAssociativeCache
from repro.common import backend as _backend
from repro.predictors.broadcast_if_shared import (
    _COUNTER_MAX as _BIFS_COUNTER_MAX,
    BroadcastIfSharedPredictor,
)
from repro.predictors.group import GroupPredictor
from repro.predictors.owner import OwnerPredictor
from repro.predictors.owner_group import OwnerGroupPredictor
from repro.predictors.sticky_spatial import StickySpatialPredictor
from repro.protocols.directory import DirectoryProtocol
from repro.protocols.multicast import MulticastSnoopingProtocol
from repro.protocols.snooping import BroadcastSnoopingProtocol
from repro.workloads.genchunks import (
    ReferenceChunk,
    _MigratorySampler,
    _PrivateSampler,
    _ProducerConsumerSampler,
    _ReadMostlySampler,
)

#: Replay destination sets travel in two uint64 lanes.
_MAX_NATIVE_NODES = 128

#: The detailed-model heap buffer is ``n_nodes * max_outstanding``
#: doubles; cap it so a pathological config cannot demand an
#: unboundedly large flat allocation.
_MAX_OUTSTANDING = 4096


def _ext():
    module = _backend.native_module()
    if module is None:  # pragma: no cover - callers checked already
        raise RuntimeError("native kernel extension is not importable")
    return module


# ----------------------------------------------------------------------
# replay sessions: the multicast, directory and broadcast-snooping
# _handle_fast loops
# ----------------------------------------------------------------------

def _trace_columns(trace):
    """The four int columns, or None when dtypes are off-envelope.

    The extension parses columns as ``y*`` buffers, so any C-contiguous
    buffer-protocol object qualifies — stdlib ``array`` columns and the
    read-only ``memoryview`` columns of an mmap-backed frozen trace
    (:func:`repro.trace.io.read_trace_v2`) flow in untouched, letting
    mapped store pages reach compiled replay without a copy.  A
    non-contiguous view (which ``y*`` would reject with ``BufferError``
    mid-call) declines here instead; frozen-trace slicing never
    produces one, so this guard is belt-and-braces.
    """
    addresses = trace._addresses
    pcs = trace._pcs
    requesters = trace._requesters
    accesses = trace._accesses
    if (
        addresses.itemsize != 8
        or pcs.itemsize != 8
        or requesters.itemsize != 4
        or accesses.itemsize != 1
    ):  # pragma: no cover - fixed typecodes on supported platforms
        return None
    for column in (addresses, pcs, requesters, accesses):
        if isinstance(column, memoryview) and not column.c_contiguous:
            return None  # pragma: no cover - never produced by Trace
    return addresses, pcs, requesters, accesses


def _replay_geometry(proto, kernel_name, check_index):
    """The replay envelope's geometry half.  Returns (n, use_pc,
    gshift, block_size), or None with the decline recorded."""
    # The baselines have no retry window, hence no race probability.
    if getattr(proto, "race_probability", 0.0):
        _kernels.record_decline(kernel_name, "race-probability")
        return None
    n = proto.config.n_processors
    if n > _MAX_NATIVE_NODES:
        _kernels.record_decline(kernel_name, "envelope")
        return None
    use_pc = False
    gshift = 0
    if check_index:
        config = proto.predictor_config
        use_pc = bool(config.use_pc_index)
        if not use_pc:
            granularity = config.index_granularity
            if (
                granularity is None
                or granularity <= 0
                or granularity & (granularity - 1)
            ):
                _kernels.record_decline(kernel_name, "envelope")
                return None
            gshift = granularity.bit_length() - 1
    block_size = proto.config.block_size
    if block_size <= 0 or block_size & (block_size - 1):
        _kernels.record_decline(kernel_name, "envelope")
        return None
    return n, use_pc, gshift, block_size


class _ReplaySession:
    """One protocol's replay state, resident in a ``ReplaySession``.

    Opened on the protocol's first native replay and attached as the
    ``_session`` of the protocol and of each predictor (see "Resident
    replay state" in :mod:`repro.kernels`).  ``replay`` ships only the
    trace columns; ``materialise`` writes the native state back into
    the protocol's Python objects and detaches the session, and runs
    only when a Python reader asks for the state.

    Strong references go only to the containers ``sync`` refills (the
    MOSI block dict, the predictor tables); the holders that point
    back here are weak references, so a finished cell's protocol and
    its native state are freed by reference counting rather than
    waiting for the cycle collector.
    """

    __slots__ = ("_native", "_kernel", "_blocks", "_tables_a",
                 "_tables_b", "_sticky", "_holders")

    def __init__(self, native, kernel, proto, tables_a, tables_b, sticky):
        self._native = native
        self._kernel = kernel
        self._blocks = proto._state._blocks
        self._tables_a = tables_a
        self._tables_b = tables_b
        self._sticky = sticky
        predictors = getattr(proto, "_predictors", ())
        self._holders = tuple(
            weakref.ref(holder) for holder in (proto, *predictors)
        )

    def _sticky_targets(self):
        if not self._sticky:
            return None
        return [ref() for ref in self._holders[1:]]

    def attach(self) -> bool:
        """Adopt the protocol's Python state and attach; False (decline
        recorded) when that state is outside the envelope."""
        marshal_ns = self._native.load(
            self._blocks, self._tables_a, self._tables_b,
            self._sticky_targets(),
        )
        if marshal_ns is None:
            return False
        _kernels.record_phases(marshal_ns, 0, 0)
        for ref in self._holders:
            ref()._session = self
        return True

    def replay(self, proto, trace, out) -> bool:
        """One replay call folded into ``proto``'s totals (and its
        accuracy report when one is set)."""
        if getattr(proto, "race_probability", 0.0):
            # Set after the session opened; the scalar loop draws the
            # races.
            _kernels.record_decline(self._kernel, "race-probability")
            self.materialise()
            return False
        columns = _trace_columns(trace)
        if columns is None:  # pragma: no cover - fixed typecodes
            _kernels.record_decline(self._kernel, "envelope")
            self.materialise()
            return False
        report = getattr(proto, "accuracy", None)
        totals = proto.totals
        (
            misses,
            indirections,
            request_messages,
            forward_messages,
            retry_messages,
            retries_total,
            latency_sum,
            lat_bytes,
            tb_bytes,
            score,
            marshal_ns,
            compute_ns,
        ) = self._native.replay(
            *columns, totals.latency_ns_sum, out is not None,
            report is not None,
        )
        _kernels.record_phases(marshal_ns, compute_ns, 0)
        if score is not None:
            report.add_counts(*score)
        if out is not None:
            out.latency_ns.frombytes(lat_bytes)
            out.transfer_bytes.frombytes(tb_bytes)
        traffic = proto.traffic
        traffic_bytes = (
            (request_messages + forward_messages + retry_messages)
            * traffic.control_bytes
            + misses * traffic.data_bytes
        )
        totals.add_batch(
            misses, indirections, request_messages, forward_messages,
            retry_messages, misses, traffic_bytes, latency_sum,
            retries_total,
        )
        return True

    def materialise(self) -> None:
        """Write the native state back into the Python objects, then
        detach from every holder."""
        writeback_ns = self._native.sync(
            self._blocks, self._tables_a, self._tables_b,
            self._sticky_targets(),
        )
        _kernels.record_phases(0, 0, writeback_ns)
        for ref in self._holders:
            holder = ref()
            if holder is not None and holder._session is self:
                # Back to the class default (None), leaving no instance
                # attribute behind for state snapshots to see.
                del holder._session


def _group_tuning(groups):
    """The shared (counter max, threshold, rollover period, train-down)
    of stock GroupPredictors, or None when they differ."""
    first = groups[0]
    tuning = (
        first._counter_max, first._threshold, first._rollover_period,
        first._train_down,
    )
    if any(
        type(g) is not GroupPredictor
        or (g._counter_max, g._threshold, g._rollover_period,
            g._train_down) != tuning
        for g in groups
    ):
        return None
    return tuning


def _uniformly_bounded(tables) -> bool:
    return len({t._bounded for t in tables}) == 1


def _twin(proto):
    """The native replay twin of ``proto``, or None when it has none.

    Returns ``(kernel name, policy, check_index, session kwargs)``.  A
    twin exists for the stock directory, broadcast-snooping and
    multicast ``_handle_fast`` loops; for multicast, only when every
    predictor is exactly one compiled policy (Group, Owner,
    Broadcast-if-shared, Owner-group, Sticky-spatial) with one tuning
    and table shape across nodes.
    """
    ext = _ext()
    handle_fast = type(proto)._handle_fast
    if handle_fast is DirectoryProtocol._handle_fast:
        return "policy_replay", ext.POLICY_DIRECTORY, False, {}
    if handle_fast is BroadcastSnoopingProtocol._handle_fast:
        return "policy_replay", ext.POLICY_SNOOPING, False, {}
    if handle_fast is not MulticastSnoopingProtocol._handle_fast:
        return None
    predictors = proto._predictors
    if not predictors:
        return None
    cls = type(predictors[0])
    if any(type(p) is not cls for p in predictors):
        return None

    if cls is GroupPredictor:
        tuning = _group_tuning(predictors)
        tables = [p._table for p in predictors]
        if tuning is None or not _uniformly_bounded(tables):
            return None
        return "group_replay", ext.POLICY_GROUP, True, {
            "tables_a": tables, "tuning": tuning,
        }

    if cls is OwnerPredictor or cls is BroadcastIfSharedPredictor:
        tables = [p._table for p in predictors]
        if not _uniformly_bounded(tables):
            return None
        if cls is OwnerPredictor:
            policy, cmax = ext.POLICY_OWNER, 0
        else:
            policy, cmax = ext.POLICY_BIFS, _BIFS_COUNTER_MAX
        return "policy_replay", policy, True, {
            "tables_a": tables, "tuning": (cmax, 0, 0, False),
        }

    if cls is OwnerGroupPredictor:
        owners = [p._owner for p in predictors]
        groups = [p._group for p in predictors]
        tuning = _group_tuning(groups)
        o_tables = [o._table for o in owners]
        g_tables = [g._table for g in groups]
        if (
            tuning is None
            or any(type(o) is not OwnerPredictor for o in owners)
            or not _uniformly_bounded(o_tables + g_tables)
        ):
            return None
        return "policy_replay", ext.POLICY_OWNER_GROUP, True, {
            "tables_a": o_tables, "tables_b": g_tables, "tuning": tuning,
        }

    if cls is StickySpatialPredictor:
        config = predictors[0].config
        if any(p.config != config for p in predictors):
            return None
        granularity = StickySpatialPredictor.BLOCK_GRANULARITY
        unbounded = bool(config.unbounded)
        return "policy_replay", ext.POLICY_STICKY, False, {
            "sticky": True,
            "sticky_geometry": (
                unbounded,
                0 if unbounded else config.n_entries,
                granularity.bit_length() - 1,
            ),
        }
    return None


def replay(proto, trace, out=None) -> bool:
    """Open ``proto``'s native replay session and run the first replay
    on it.  False -> caller runs its scalar ``_handle_fast`` loop.

    The single statement of the native replay envelope.  A protocol
    without a native twin (see :func:`_twin`: oracle, bandwidth-
    adaptive, static or mixed predictor lists, predictor subclasses,
    a ``_handle_fast`` override) returns False without a decline.  A
    twin outside the envelope records a decline under its kernel name
    (``group_replay`` for Group, ``policy_replay`` otherwise): a
    nonzero race probability (the scalar loop draws from a Mersenne
    Twister the kernel does not replicate), more than 128 nodes (two
    uint64 bitmask lanes), a non-power-of-two block size or index
    granularity (the kernel shifts), or table state the int64 lanes
    cannot carry.
    """
    twin = _twin(proto)
    if twin is None:
        return False
    kernel_name, policy, check_index, state = twin
    geometry = _replay_geometry(proto, kernel_name, check_index)
    if geometry is None:
        return False
    n, use_pc, gshift, block_size = geometry
    cmax, thr, rperiod, tdown = state.get("tuning", (0, 0, 0, False))
    sticky_unbounded, sticky_entries, sticky_shift = state.get(
        "sticky_geometry", (False, 0, 0)
    )
    native = _ext().ReplaySession(
        policy,
        n,
        ~(block_size - 1),
        block_size.bit_length() - 1,
        1 if use_pc else 0,
        gshift,
        cmax,
        thr,
        rperiod,
        1 if tdown else 0,
        1 if sticky_unbounded else 0,
        sticky_entries,
        sticky_shift,
        proto._lat_memory,
        proto._lat_direct,
        proto._lat_indirect,
        proto.traffic.control_bytes,
        proto.traffic.data_bytes,
    )
    session = _ReplaySession(
        native, kernel_name, proto, state.get("tables_a"),
        state.get("tables_b"), state.get("sticky", False),
    )
    if not session.attach():
        # State outside the envelope (e.g. an int64-overflowing key);
        # nothing was touched.
        _kernels.record_decline(kernel_name, "overflow")
        return False
    return session.replay(proto, trace, out)


# ----------------------------------------------------------------------
# timing passes: TimingSimulator._run_columns on a crossbar
# ----------------------------------------------------------------------

def timing_pass(simulator, measured, out) -> bool:
    """Native crossbar + simple-processor timing pass."""
    from repro.timing.interconnect import CrossbarInterconnect
    from repro.timing.processor import SimpleProcessorModel

    interconnect = simulator.interconnect
    processors = simulator.processors
    per_ns = SimpleProcessorModel.INSTRUCTIONS_PER_NS
    if type(interconnect) is not CrossbarInterconnect or not all(
        type(p) is SimpleProcessorModel
        and p.INSTRUCTIONS_PER_NS == per_ns
        for p in processors
    ):
        _kernels.record_decline("timing_pass", "envelope")
        return False
    requesters = measured._requesters
    instructions = measured._instructions
    if (
        requesters.itemsize != 4
        or instructions.itemsize != 8
        or len(out.latency_ns) != len(requesters)
    ):  # pragma: no cover - lengths always match after the protocol pass
        _kernels.record_decline("timing_pass", "envelope")
        return False

    clocks = array("d", [p.now_ns for p in processors])
    link_free = array("d", interconnect._link_free)
    total_queue_ns, carried = _ext().timing_pass(
        requesters,
        instructions,
        out.latency_ns,
        out.transfer_bytes,
        clocks,
        link_free,
        float(interconnect._bandwidth),
        float(per_ns),
        float(interconnect.total_queue_ns),
    )
    for processor, clock in zip(processors, clocks):
        processor.now_ns = clock
    interconnect._link_free[:] = link_free
    interconnect.bytes_carried += carried
    interconnect.total_queue_ns = total_queue_ns
    return True


def timing_pass_detailed(simulator, measured, out) -> bool:
    """Native crossbar + detailed-processor timing pass.

    The per-processor in-flight min-heaps travel as one flat
    ``n_nodes * max_outstanding`` double buffer plus a length vector;
    the extension replicates CPython's heapq sift order so the heap
    lists written back compare equal element-for-element.
    """
    from repro.timing.interconnect import CrossbarInterconnect
    from repro.timing.processor import DetailedProcessorModel

    interconnect = simulator.interconnect
    processors = simulator.processors
    per_ns = DetailedProcessorModel.INSTRUCTIONS_PER_NS
    if type(interconnect) is not CrossbarInterconnect or not processors:
        _kernels.record_decline("timing_pass_detailed", "envelope")
        return False
    max_out = getattr(processors[0], "max_outstanding", 0)
    if (
        max_out <= 0
        or max_out > _MAX_OUTSTANDING
        or not all(
            type(p) is DetailedProcessorModel
            and p.INSTRUCTIONS_PER_NS == per_ns
            and p.max_outstanding == max_out
            and len(p._in_flight) <= max_out
            for p in processors
        )
    ):
        _kernels.record_decline("timing_pass_detailed", "envelope")
        return False
    requesters = measured._requesters
    instructions = measured._instructions
    if (
        requesters.itemsize != 4
        or instructions.itemsize != 8
        or len(out.latency_ns) != len(requesters)
    ):  # pragma: no cover - lengths always match after the protocol pass
        _kernels.record_decline("timing_pass_detailed", "envelope")
        return False

    n_nodes = len(processors)
    clocks = array("d", [p.now_ns for p in processors])
    link_free = array("d", interconnect._link_free)
    heaps = array("d", bytes(8 * n_nodes * max_out))
    heap_lens = array("i", [len(p._in_flight) for p in processors])
    for idx, p in enumerate(processors):
        if p._in_flight:
            base = idx * max_out
            heaps[base:base + len(p._in_flight)] = array("d", p._in_flight)
    total_queue_ns, carried = _ext().timing_pass_detailed(
        requesters,
        instructions,
        out.latency_ns,
        out.transfer_bytes,
        clocks,
        link_free,
        heaps,
        heap_lens,
        max_out,
        float(interconnect._bandwidth),
        float(per_ns),
        float(interconnect.total_queue_ns),
    )
    for idx, p in enumerate(processors):
        p.now_ns = clocks[idx]
        base = idx * max_out
        p._in_flight[:] = heaps[base:base + heap_lens[idx]].tolist()
    interconnect._link_free[:] = link_free
    interconnect.bytes_carried += carried
    interconnect.total_queue_ns = total_queue_ns
    return True


# ----------------------------------------------------------------------
# generator: ChunkedReferenceSource.chunks
# ----------------------------------------------------------------------

#: ``_native.c`` region kinds (GEN_* there), by sampler class.
_GENERATOR_KINDS = {
    _PrivateSampler: 0,
    _MigratorySampler: 1,
    _ProducerConsumerSampler: 2,
    _ReadMostlySampler: 3,
}

#: Zipf table modes (ZIPF_* there): ``u53 % n``, table search, block 0.
_ZIPF_UNIFORM, _ZIPF_TABLE, _ZIPF_ZERO = 0, 1, 2

_ZEROS = array("q", [0])


def _as_int64(key: int) -> int:
    """A 64-bit draw key as the int64 with the same bits."""
    return key - (1 << 64) if key >= 1 << 63 else key


class _GeneratorSession:
    """A source's native generator: samplers' state lives in C."""

    __slots__ = ("_native",)

    def __init__(self, native_generator):
        self._native = native_generator

    def chunk(self, start: int, m: int) -> ReferenceChunk:
        """Positions ``[start, start + m)`` as five int64 columns."""
        columns = [_ZEROS * m for _ in range(5)]
        self._native.fill(start, *columns)
        return ReferenceChunk(*columns)


def _region_record(sampler, zipf, zipf_at):
    """One region's int64 constants, in ``_native.c``'s RF_* order."""
    mode, offset, length = _ZIPF_UNIFORM, 0, 0
    table = sampler.zipf
    if table is not None and not table.uniform:
        thresholds = table._thresholds
        if thresholds:
            mode, length = _ZIPF_TABLE, len(thresholds)
            offset = zipf_at.get(id(table))
            if offset is None:
                offset = zipf_at[id(table)] = len(zipf)
                zipf.extend(thresholds)
        else:
            mode = _ZIPF_ZERO
    return [
        _GENERATOR_KINDS[type(sampler)],
        sampler.base,
        sampler.n_blocks,
        sampler.block_size,
        *(_as_int64(key) for key in sampler.keys),
        getattr(sampler, "t_stream", 0),
        getattr(sampler, "t_write", 0),
        mode,
        offset,
        length,
        getattr(sampler, "producer", -1),
        *(sampler._pc_site(site) for site in range(8)),
    ]


def make_generator(source) -> Optional[_GeneratorSession]:
    """A native generator for ``source``, or None when ineligible.

    Packs the source's Python-built tables (per-node selection
    thresholds, Zipf thresholds, region constants) into flat int64 /
    float64 buffers; the generator copies them and owns every
    sampler's cursor state from then on.
    """
    n = source.n_processors
    offsets = array("q", [0])
    thresholds = array("d")
    region_ids = array("q")
    for node_thresholds, node_ids in zip(
        source.node_thresholds, source.node_region_ids
    ):
        thresholds.extend(node_thresholds)
        region_ids.extend(node_ids)
        offsets.append(len(thresholds))
    regions = array("q")
    zipf = array("d")
    zipf_at = {}
    consumer_pcs = array("q", [-1]) * (len(source.samplers) * n)
    try:
        for index, sampler in enumerate(source.samplers):
            regions.extend(_region_record(sampler, zipf, zipf_at))
            if isinstance(sampler, _ProducerConsumerSampler):
                for node, pc in sampler.consumer_pc.items():
                    if 0 <= node < n:
                        consumer_pcs[index * n + node] = pc
    except OverflowError:  # a constant beyond int64
        _kernels.record_decline("generator", "overflow")
        return None
    try:
        native_generator = _ext().Generator(
            n, source.key_select, source.key_gap, source.gap_lo,
            source.gap_span, offsets, thresholds, region_ids, regions,
            zipf, consumer_pcs,
        )
    except (ValueError, OverflowError):  # outside the native envelope
        _kernels.record_decline("generator", "envelope")
        return None
    return _GeneratorSession(native_generator)


# ----------------------------------------------------------------------
# collector: TraceCollector.process_chunk
# ----------------------------------------------------------------------

class _CollectorSession:
    """Owns a collector's cache/MOSI state and instruction counters.

    Opened from the config geometry with empty state when the
    collector is built (or adopting the Python state, ``load``, when
    it reopens after a read); the Python structures are built and
    synced only by :meth:`materialise`.  It holds no reference to its
    collector, which is passed in per call.
    """

    __slots__ = ("_native",)

    def __init__(self, native_collector):
        self._native = native_collector

    def process_chunk(self, collector, chunk) -> Optional[int]:
        """Filter one chunk natively; None -> caller uses the Python loop
        (state already materialised)."""
        addresses = getattr(chunk, "addresses_np", None)
        if addresses is None:
            addresses = chunk.addresses
        result = self._native.process_chunk(
            chunk.nodes, addresses, chunk.pcs, chunk.writes,
            chunk.instructions,
        )
        if result is None:
            self.materialise(collector)
            _kernels.record_decline("collector", "overflow")
            return None
        n_miss, addr_b, pc_b, node_b, code_b, gap_b = result
        collector._references += len(chunk.nodes)
        if n_miss:
            blocks = array("q")
            blocks.frombytes(addr_b)
            pcs = array("q")
            pcs.frombytes(pc_b)
            nodes = array("i")
            nodes.frombytes(node_b)
            codes = array("b")
            codes.frombytes(code_b)
            gaps = array("q")
            gaps.frombytes(gap_b)
            collector._trace.extend_fields(blocks, pcs, nodes, codes, gaps)
        return n_miss

    def instructions(self):
        """Per-node executed instructions, read without a sync."""
        return dict(enumerate(self._native.instructions()))

    def materialise(self, collector) -> None:
        """Build (if absent) and sync the collector's Python state, then
        detach: the Python structures are authoritative again."""
        if collector._hierarchies is None:
            collector._build_state()
        self._native.sync(*_collector_state(collector))
        collector._session = None


def _collector_state(collector):
    return (
        [h.l1.raw_sets for h in collector._hierarchies],
        [h.l2.raw_sets for h in collector._hierarchies],
        collector._global._blocks,
        collector._instructions,
        collector._instructions_at_last_miss,
    )


def make_collector_session(collector) -> Optional[_CollectorSession]:
    """A native collector session, or None when ineligible.

    The session starts from the collector's Python state when it has
    one, else empty (a fresh collector builds no Python state).
    """
    config = collector._config
    n = config.n_processors
    block_size = config.block_size
    if (
        n <= 0
        or n > 62
        or block_size <= 0
        or block_size & (block_size - 1)
    ):
        _kernels.record_decline("collector", "envelope")
        return None
    try:
        native_collector = _ext().Collector(
            n,
            ~(block_size - 1),
            block_size.bit_length() - 1,
            SetAssociativeCache.set_count(
                config.l1d_size, config.l1d_assoc, block_size
            ),
            config.l1d_assoc,
            SetAssociativeCache.set_count(
                config.l2_size, config.l2_assoc, block_size
            ),
            config.l2_assoc,
        )
    except ValueError:  # geometry outside the native envelope
        _kernels.record_decline("collector", "envelope")
        return None
    if collector._hierarchies is not None and not native_collector.load(
        *_collector_state(collector)
    ):
        _kernels.record_decline("collector", "overflow")
        return None  # Python state outside the envelope
    return _CollectorSession(native_collector)


# ----------------------------------------------------------------------
# sharing: the MOSI replay behind Figures 2 and 4
# ----------------------------------------------------------------------

def required_counts(trace, block_size: int) -> Optional[bytes]:
    """Per-record required-recipient counts (int64 bytes), or None
    when the trace is outside the envelope (>128 nodes, negative
    block keys)."""
    counts = _ext().required_counts(
        trace.block_keys(block_size),
        trace.requesters,
        trace.accesses,
        trace.n_processors,
    )
    if counts is None:
        _kernels.record_decline("sharing", "envelope")
    return counts
