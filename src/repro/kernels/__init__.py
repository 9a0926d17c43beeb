"""The kernel ABI: the replay hot loops behind one boundary.

PRs 2-4 reshaped every hot path into narrow loops over flat int64
columns.  This package names that shape as an explicit ABI so the
loops can be swapped between a Python implementation and a compiled
one without either side knowing about the other:

**Inputs** — flat columns and config scalars only:

- trace columns: ``addresses``/``pcs``/``instructions`` as int64
  buffers (stdlib ``array('q')``), ``requesters`` as int32 (``'i'``),
  ``accesses`` as int8 (``'b'``);
- config scalars: node count, block/granularity shifts, predictor
  tuning (counter max/threshold/rollover), Table 4 latencies, traffic
  byte sizes — plain ints and floats;
- mutable simulation state at the boundary: cache set arrays,
  per-node clocks and in-flight heaps.  The replay state — the MOSI
  block map (``dict[block] -> (owner, sharers)``) and the predictor
  tables (:class:`repro.predictors.base.PredictorTable` flat dicts or
  the sticky-spatial ``_entries`` dicts) — does not cross per call:
  it lives in one native replay session per protocol (see "Resident
  replay state" below).

**Outputs** — :class:`repro.protocols.base.OutcomeColumns`
(``latency_ns`` float64 + ``transfer_bytes`` int64, appended in trace
order) and counter structs folded through
:meth:`~repro.protocols.base.TrafficTotals.add_batch`; state objects
are mutated in place to the exact values the scalar Python loops
produce (replay state when it is materialised, see below).

**Kernels** (one per hot loop; each has one Python fallback):

- replay — every protocol's columnar replay
  (``CoherenceProtocol._run_columns``) on a ``ReplaySession``, entered
  through :func:`try_replay`.  Its protocol modes mirror the scalar
  ``_handle_fast`` loops of the multicast protocol for the five
  compiled predictor policies (Group, Owner, Broadcast-if-shared,
  Owner-group, Sticky-spatial), of the directory and of broadcast
  snooping (whose sessions hold only the MOSI block map).  Declines
  are tallied as ``group_replay`` (Group) or ``policy_replay``
  (everything else).  While a multicast protocol's ``accuracy``
  report is set the kernel also counts coverage, precision and the
  outcome classes of every prediction
  (:mod:`repro.analysis.accuracy`), so scored runs stay compiled;
- ``generator`` — the chunked reference source
  (:meth:`repro.workloads.genchunks.ChunkedReferenceSource.chunks`):
  ``_native.Generator`` takes each region's ``batch_spec()``
  constants and the Python-built selection and Zipf threshold tables
  as int64 / float64 buffers, keeps every sampler's cursor state, and
  fills each chunk's five columns as ``array('q')`` buffers, record by
  record in position order (mirroring the ``sample_py`` samplers);
  declines are tallied as ``generator``;
- ``collector`` — the chunk-consuming cache/MOSI filter
  (:meth:`repro.cache.pipeline.TraceCollector.process_chunk`) on a
  ``_native.Collector`` session (see "Resident collector state"); it
  reads int64 buffer columns in place and unboxes list columns;
- ``sharing`` — ``_native.required_counts``, the omniscient MOSI
  replay behind Figures 2 and 4 (a port of
  :meth:`repro.coherence.state.GlobalCoherenceState.apply_fast` over
  the kernel's int64 hash map), counting each request's required
  recipients (:func:`repro.analysis.sharing._required_counts`);
- ``timing_pass`` — the crossbar + simple-processor timing pass
  (the generic loop of
  :meth:`repro.timing.system.TimingSimulator._run_columns`);
- ``timing_pass_detailed`` — the crossbar + detailed-processor pass
  (bounded outstanding misses via per-node min-heaps), replicating
  CPython's heapq op order so clocks and heap contents stay
  bit-identical.

**Resident replay state.**  The replay kernel runs on one
``_native.ReplaySession`` per protocol, created on the protocol's
first native replay.  It adopts whatever Python state the protocol
holds (empty for a fresh one) and from then on each call ships only
trace columns: the warm-up and measured calls of a cell share it, and
a sweep cell that never reads the state never writes it back.  The
mechanism that keeps Python readers correct is one attribute: every
holder of replay state — the protocol and each of its predictors —
carries ``_session`` (``None`` unless a session shadows it), and a
Python reader calls ``_session.materialise()`` first when it is set.
``materialise`` syncs the native state into the same Python objects
and detaches the session from every holder.  The readers are the
protocol's ``state`` and ``predictors`` properties, ``handle()`` (the
record path), the scalar loop of ``_run_columns`` (a decline or a
backend switch mid-life), and predictor-level readers
(``stats()``).  Hot paths check nothing: they are entered through
those doors, which test one attribute per call.  A session belongs to
one protocol; a second thread entering it while a call is in flight
gets ``ValueError``.  ``ReplaySession`` reports marshal / compute /
write-back nanoseconds, tallied by :func:`record_phases` next to the
decline tally.

**Resident collector state.**  A :class:`~repro.cache.pipeline.
TraceCollector` built under the native tier opens its
``_native.Collector`` session from the config geometry alone: the
cache sets, the MOSI map and the instruction counters start empty in
C, and the 16 Python ``CacheHierarchy`` objects are never built unless
something reads them.  ``result()`` reads the counters from the
session and syncs nothing.  The readers that need the Python state —
``hierarchy()``, ``global_state``, the record path ``process()`` and
the Python chunk loop (a decline or a backend switch) — go through the
collector's one ``_session`` attribute: ``materialise()`` builds the
Python structures, syncs the native state into them and detaches.  A
later chunk under the native tier reopens a session that adopts the
Python state.

**Hostile input.**  Every entry point above validates what it indexes
— column dtypes (int64 buffers, or lists where accepted), matching
column lengths, node and requester ranges, table offsets — and raises
``ValueError`` after the GIL is reacquired, with the native state
untouched; it never reads past a buffer.

**Backends.**  ``pure`` is the scalar Python loops (with or without
the numpy accelerator for derived columns, see
:mod:`repro.common.backend`); ``native`` is the C extension
:mod:`repro.kernels._native` (built by ``python -m
repro.kernels.build`` or the wheel).  The contract is *byte
identity*, record path ≡ scalar loop ≡ native kernel: same ResultSet
JSON, same predictor table state, same hex-float timing goldens —
enforced by the equivalence suites and
``tests/integration/test_kernel_abi.py``.

The ``try_*`` entry points below are the dispatch seam: they return
``False``/``None`` when the native tier is inactive
(:func:`repro.common.backend.native_active`) or the call is outside
the native kernel's envelope (>128 replay or sharing nodes / >62
collector nodes, constants beyond int64, nonzero race probability, non-power-of-two granularity,
int64-overflowing keys), in which case the caller falls back to its
scalar Python loop.  Those fallbacks are *counted*, not silent: each
decline increments a per-kernel/per-reason counter
(:func:`decline_counts`) that the experiment runner snapshots into
``ResultSet.perf`` so a decline is visible as more than an
unexplained slowdown.  A protocol with no native twin at all (oracle,
bandwidth-adaptive, static or mixed predictor lists, subclassed
predictors or ``_handle_fast`` overrides) runs the scalar loop
without a decline.  Replay eligibility is checked when a protocol's
session opens (:func:`repro.kernels.native.replay`, the single
statement of the envelope), and again per call only for what can
change between calls (the backend, the race probability); the scalar
loop is always correct.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.common import backend as _backend

#: Decline tallies keyed ``"<kernel>:<reason>"`` — e.g.
#: ``"policy_replay:envelope"``.  Reasons: ``envelope`` (geometry,
#: dtype, or predictor mix outside the compiled envelope),
#: ``overflow`` (runtime values the int64/uint128 lanes cannot carry),
#: ``race-probability`` (the Python tier draws random numbers the
#: kernel does not replicate).  The tally is process-wide and sweep
#: cells may replay on threads, so every access goes through
#: ``_declines_lock`` — the read-modify-write in
#: :func:`record_decline` is not atomic once the native kernels drop
#: the GIL around their compute phases.
_declines: Dict[str, int] = {}
_declines_lock = threading.Lock()


def record_decline(kernel: str, reason: str) -> None:
    """Count one native-kernel decline (kernel fell back to Python)."""
    key = f"{kernel}:{reason}"
    with _declines_lock:
        _declines[key] = _declines.get(key, 0) + 1


def decline_counts() -> Dict[str, int]:
    """Snapshot of decline tallies since the last reset."""
    with _declines_lock:
        return dict(_declines)


def reset_decline_counts() -> None:
    """Zero the decline tallies (runner calls this per run)."""
    with _declines_lock:
        _declines.clear()


#: Native phase nanoseconds — ``marshal_ns`` (GIL held: argument and
#: state conversion in), ``compute_ns`` (GIL released: the replay
#: loop) and ``writeback_ns`` (materialising native state into Python
#: objects) — summed over every ``ReplaySession`` call since the last
#: reset.  Guarded like the decline tally.
PHASES = ("marshal_ns", "compute_ns", "writeback_ns")
_phases: Dict[str, int] = dict.fromkeys(PHASES, 0)


def record_phases(marshal_ns: int, compute_ns: int, writeback_ns: int) -> None:
    """Add one native call's phase nanoseconds to the tally."""
    with _declines_lock:
        _phases["marshal_ns"] += marshal_ns
        _phases["compute_ns"] += compute_ns
        _phases["writeback_ns"] += writeback_ns


def phase_totals() -> Dict[str, int]:
    """Snapshot of the phase tally since the last reset."""
    with _declines_lock:
        return dict(_phases)


def reset_phase_totals() -> None:
    """Zero the phase tally (the runner calls this per run)."""
    with _declines_lock:
        _phases.update(dict.fromkeys(PHASES, 0))


def available_backends() -> Tuple[str, ...]:
    """Registered kernel backends on this machine, floor first."""
    if _backend.native_available():
        return ("pure", "native")
    return ("pure",)


def native_available() -> bool:
    """True when the compiled kernel extension is importable."""
    return _backend.native_available()


def try_replay(proto, trace, out=None) -> bool:
    """Replay ``trace`` natively; False -> caller runs its scalar
    ``_handle_fast`` loop.

    Replays on the protocol's attached session, or opens one when the
    protocol has a native twin inside the envelope
    (:func:`repro.kernels.native.replay`).  A session that cannot take
    the call (the backend switched away from native, or a per-call
    decline) materialises itself first, so the scalar loop sees
    current state.
    """
    session = proto._session
    if not _backend.native_active():
        if session is not None:
            session.materialise()
        return False
    if session is not None:
        return session.replay(proto, trace, out)
    from repro.kernels import native

    return native.replay(proto, trace, out)


def try_timing_pass(simulator, measured, out) -> bool:
    """Run the crossbar+simple timing pass natively; False -> fall back."""
    if not _backend.native_active():
        return False
    from repro.kernels import native

    return native.timing_pass(simulator, measured, out)


def try_timing_pass_detailed(simulator, measured, out) -> bool:
    """Run the crossbar+detailed timing pass natively; False -> fall back."""
    if not _backend.native_active():
        return False
    from repro.kernels import native

    return native.timing_pass_detailed(simulator, measured, out)


def collector_session(collector):
    """A native collector session for ``collector``; None when the
    native tier is inactive, False when its geometry is outside the
    envelope (a counted decline).

    The session holds the cache/MOSI state and instruction counters
    while chunks stream through it, starting from the collector's
    Python state when it has one (see "Resident collector state").
    """
    if not _backend.native_active():
        return None
    from repro.kernels import native

    return native.make_collector_session(collector) or False


def try_collect(collector, chunk) -> Optional[int]:
    """Filter ``chunk`` natively; None -> caller runs its Python loop.

    Opens a session when the collector has none (``_session is
    None``) and the native tier is active.  A session that cannot take
    the call (the backend switched away from native, or a decline)
    materialises itself first, so the Python loop sees current state.
    """
    session = collector._session
    if not _backend.native_active():
        if session:
            session.materialise(collector)
        return None
    if session is None:
        session = collector._session = collector_session(collector)
    if not session:
        return None
    return session.process_chunk(collector, chunk)


def generator(source) -> Optional[object]:
    """A native generator for a ``ChunkedReferenceSource``, or None
    (the source then generates with numpy or pure Python)."""
    if not _backend.native_active():
        return None
    from repro.kernels import native

    return native.make_generator(source)


def try_required_counts(trace, block_size: int) -> Optional[bytes]:
    """The Figure 2/4 MOSI replay natively: per-record counts of other
    processors that must observe each request, as int64 bytes; None ->
    caller uses the numpy closed form."""
    if not _backend.native_active():
        return None
    from repro.kernels import native

    return native.required_counts(trace, block_size)
