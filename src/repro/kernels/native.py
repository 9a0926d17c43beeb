"""Marshalling glue between the kernel ABI and the C extension.

Each function here checks the native envelope (node count, race
probability, key-index shape, column dtypes) and hands the extension
flat columns plus config scalars, folding the results back through the
exact accounting statements the Python loops execute — so a native
call is indistinguishable from the Python tier on every observable
(ResultSet JSON, predictor tables, cache/MOSI state, hex-float timing
goldens).

Mutable state lives in two session types, modelled the same way: a
``_CollectorSession`` owns a collector's cache/MOSI state while chunks
stream through it, and a ``_ReplaySession`` owns a protocol's MOSI map
and predictor tables across its replay calls.  Each adopts the Python
state once (``load``), ships only columns per call, and writes the
state back (``sync``) only when Python reads it — for a replay session
that is never, in a sweep cell.

Callers come through :mod:`repro.kernels` (``try_group_replay`` /
``try_policy_replay`` / ``try_baseline_replay`` /
``try_session_replay`` / ``try_timing_pass`` /
``try_timing_pass_detailed`` / ``collector_session``), which has
already established that the native tier is active.  Every decline is
recorded via :func:`repro.kernels.record_decline` and every session
call's phase nanoseconds via :func:`repro.kernels.record_phases`, so
sweeps can report where the native tier fell back and where its time
went.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Optional

from repro import kernels as _kernels
from repro.common import backend as _backend

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
# replay sessions: repro.protocols.fused.run_group / run_kernel, and the
# directory / broadcast-snooping _handle_fast loops
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


def _replay_geometry(proto, kernel_name, check_index=True):
    """Shared replay envelope.  Returns (n, use_pc, gshift, block_size)
    or None (decline recorded)."""
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
            # Set after the session opened; the Python tier draws the
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


def _open_session(
    proto,
    trace,
    out,
    kernel_name,
    policy,
    geometry,
    tables_a=None,
    tables_b=None,
    sticky=False,
    tuning=(0, 0, 0, False),
    sticky_geometry=(False, 0, 0),
) -> bool:
    """Create, load and attach ``proto``'s replay session, then run the
    first replay on it.  False -> caller runs the Python tier."""
    n, use_pc, gshift, block_size = geometry
    cmax, thr, rperiod, tdown = tuning
    sticky_unbounded, sticky_entries, sticky_shift = sticky_geometry
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
        native, kernel_name, proto, tables_a, tables_b, sticky
    )
    if not session.attach():
        # State outside the envelope (e.g. an int64-overflowing key);
        # nothing was touched.
        _kernels.record_decline(kernel_name, "overflow")
        return False
    return session.replay(proto, trace, out)


def group_replay(proto, trace, out=None) -> bool:
    """Native fused Group replay.  False -> caller runs the Python loop.

    Callers have established :func:`repro.protocols.fused.group_uniform`
    (stock, identically-tuned GroupPredictors); the envelope on top of
    that: zero race probability (the Python tier draws from a Mersenne
    Twister the kernel does not replicate), <= 128 nodes (two uint64
    bitmask lanes), and a power-of-two index granularity (so ``address
    // granularity`` is a shift — PredictorConfig validates this,
    checked again here because the kernel relies on it).
    """
    geometry = _replay_geometry(proto, "group_replay")
    if geometry is None:
        return False
    first = proto._predictors[0]
    return _open_session(
        proto, trace, out, "group_replay", _ext().POLICY_GROUP, geometry,
        tables_a=[p._table for p in proto._predictors],
        tuning=(
            first._counter_max, first._threshold, first._rollover_period,
            first._train_down,
        ),
    )


def policy_replay(proto, trace, out=None) -> bool:
    """Native fused replay for the non-Group compiled policies (Owner,
    Broadcast-if-shared, Owner-group, Sticky-spatial).

    Mirrors each policy's ``fused_kernel`` eligibility exactly: the
    caller has established a homogeneous predictor list whose fused
    kernel exists, and this function re-derives the same uniformity
    conditions before opening the replay session.
    False -> caller runs the Python fused loop (decline recorded).
    """
    from repro.predictors.broadcast_if_shared import (
        _COUNTER_MAX as _BIFS_COUNTER_MAX,
        BroadcastIfSharedPredictor,
    )
    from repro.predictors.group import GroupPredictor
    from repro.predictors.owner import OwnerPredictor
    from repro.predictors.owner_group import OwnerGroupPredictor
    from repro.predictors.sticky_spatial import StickySpatialPredictor

    predictors = proto._predictors
    first_type = type(predictors[0])
    ext = _ext()

    if first_type is StickySpatialPredictor:
        geometry = _replay_geometry(
            proto, "policy_replay", check_index=False
        )
        if geometry is None:
            return False
        config = predictors[0].config
        if any(p.config != config for p in predictors):
            _kernels.record_decline("policy_replay", "envelope")
            return False
        granularity = StickySpatialPredictor.BLOCK_GRANULARITY
        if granularity <= 0 or granularity & (granularity - 1):
            # pragma: no cover - the class constant is 64
            _kernels.record_decline("policy_replay", "envelope")
            return False
        unbounded = bool(config.unbounded)
        n_entries = 0 if unbounded else config.n_entries
        if not unbounded and n_entries <= 0:
            _kernels.record_decline("policy_replay", "envelope")
            return False
        return _open_session(
            proto, trace, out, "policy_replay", ext.POLICY_STICKY,
            geometry, sticky=True,
            sticky_geometry=(
                unbounded, n_entries, granularity.bit_length() - 1
            ),
        )

    if first_type is OwnerPredictor or first_type is BroadcastIfSharedPredictor:
        geometry = _replay_geometry(proto, "policy_replay")
        if geometry is None:
            return False
        tables = [p._table for p in predictors]
        bounded = tables[0]._bounded
        if any(t._bounded != bounded for t in tables):
            # The Python closures apply tables[0]'s boundedness to
            # every node; mixed tables never occur in practice, so
            # decline rather than replicate the quirk.
            _kernels.record_decline("policy_replay", "envelope")
            return False
        if first_type is OwnerPredictor:
            policy, cmax = ext.POLICY_OWNER, 0
        else:
            policy, cmax = ext.POLICY_BIFS, _BIFS_COUNTER_MAX
        return _open_session(
            proto, trace, out, "policy_replay", policy, geometry,
            tables_a=tables, tuning=(cmax, 0, 0, False),
        )

    if first_type is OwnerGroupPredictor:
        geometry = _replay_geometry(proto, "policy_replay")
        if geometry is None:
            return False
        owners = [p._owner for p in predictors]
        groups = [p._group for p in predictors]
        if any(type(o) is not OwnerPredictor for o in owners) or any(
            type(g) is not GroupPredictor for g in groups
        ):
            _kernels.record_decline("policy_replay", "envelope")
            return False
        g0 = groups[0]
        tuning = (
            g0._counter_max, g0._threshold, g0._rollover_period,
            g0._train_down,
        )
        if any(
            (g._counter_max, g._threshold, g._rollover_period,
             g._train_down) != tuning
            for g in groups
        ):
            _kernels.record_decline("policy_replay", "envelope")
            return False
        o_tables = [o._table for o in owners]
        g_tables = [g._table for g in groups]
        bounded = o_tables[0]._bounded
        if any(
            t._bounded != bounded for t in o_tables
        ) or any(t._bounded != bounded for t in g_tables):
            # fused_kernel applies o_tables[0]'s boundedness to both
            # halves on every node; see the Owner/BIFS note above.
            _kernels.record_decline("policy_replay", "envelope")
            return False
        return _open_session(
            proto, trace, out, "policy_replay", ext.POLICY_OWNER_GROUP,
            geometry, tables_a=o_tables, tables_b=g_tables, tuning=tuning,
        )

    # Uniform stock GroupPredictors route through try_group_replay;
    # anything else has no native twin.
    _kernels.record_decline("policy_replay", "envelope")
    return False


def baseline_replay(proto, trace, out=None) -> bool:
    """Native directory / broadcast-snooping replay.

    The replay kernel's two protocol modes: the same MOSI core as the
    predictor policies, with a session that holds only the block map.
    The caller has established that the protocol's ``_handle_fast`` is
    the stock one.  False -> caller runs the Python loop (decline
    recorded).
    """
    from repro.protocols.directory import DirectoryProtocol

    geometry = _replay_geometry(proto, "policy_replay", check_index=False)
    if geometry is None:
        return False
    ext = _ext()
    if isinstance(proto, DirectoryProtocol):
        policy = ext.POLICY_DIRECTORY
    else:
        policy = ext.POLICY_SNOOPING
    return _open_session(
        proto, trace, out, "policy_replay", policy, geometry
    )


# ----------------------------------------------------------------------
# timing_pass: TimingSimulator._timing_pass_simple
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
# collector: TraceCollector.process_chunk
# ----------------------------------------------------------------------

class _CollectorSession:
    """Owns the cache/MOSI state natively while chunks stream through.

    ``process_chunk`` lazily adopts (``load``) the Python-side state on
    first use after a flush; ``flush`` writes it back (``sync``) so the
    record-level APIs and inspection properties observe exactly what
    the Python loop would have left behind.
    """

    __slots__ = ("_collector", "_native", "_l1", "_l2", "_loaded")

    def __init__(self, collector, native_collector):
        self._collector = collector
        self._native = native_collector
        hierarchies = collector._hierarchies
        self._l1 = [h.l1.raw_sets for h in hierarchies]
        self._l2 = [h.l2.raw_sets for h in hierarchies]
        self._loaded = False

    def _state_args(self):
        collector = self._collector
        return (
            self._l1,
            self._l2,
            collector._global._blocks,
            collector._instructions,
            collector._instructions_at_last_miss,
        )

    def process_chunk(self, chunk) -> Optional[int]:
        """Filter one chunk natively; None -> caller uses the Python loop
        (state already flushed back)."""
        if not self._loaded:
            if not self._native.load(*self._state_args()):
                _kernels.record_decline("collector", "overflow")
                return None  # state outside the envelope
            self._loaded = True
        addresses = chunk.addresses_np
        if addresses is None:
            addresses = chunk.addresses
        result = self._native.process_chunk(
            chunk.nodes, addresses, chunk.pcs, chunk.writes,
            chunk.instructions,
        )
        if result is None:
            self.flush()
            _kernels.record_decline("collector", "overflow")
            return None
        n_miss, addr_b, pc_b, node_b, code_b, gap_b = result
        collector = self._collector
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

    def flush(self) -> None:
        """Sync native state back into the Python-side structures."""
        if self._loaded:
            self._native.sync(*self._state_args())
            self._loaded = False


def make_collector_session(collector) -> Optional[_CollectorSession]:
    """Build a native collector session, or None when ineligible."""
    config = collector._config
    n = config.n_processors
    block_size = config.block_size
    if (
        n <= 0
        or n > 62
        or block_size <= 0
        or block_size & (block_size - 1)
        or not collector._hierarchies
    ):
        _kernels.record_decline("collector", "envelope")
        return None
    h0 = collector._hierarchies[0]
    try:
        native_collector = _ext().Collector(
            n,
            ~(block_size - 1),
            block_size.bit_length() - 1,
            h0.l1.n_sets,
            h0.l1.associativity,
            h0.l2.n_sets,
            h0.l2.associativity,
        )
    except ValueError:  # geometry outside the native envelope
        _kernels.record_decline("collector", "envelope")
        return None
    return _CollectorSession(collector, native_collector)
