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
- ``collector`` — the chunk-consuming cache/MOSI filter
  (:meth:`repro.cache.pipeline.TraceCollector.process_chunk`),
  session-based so cache state stays native across chunks;
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
the native kernel's envelope (>128 replay nodes / >62 collector
nodes, nonzero race probability, non-power-of-two granularity,
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


def collector_session(collector) -> Optional[object]:
    """A native chunk-collector session, or None to use the Python loop.

    The session owns the cache/MOSI state while chunks stream through
    it; the collector flushes it (syncing every Python-side structure
    back to the exact values the Python loop would have produced)
    before any record-level or inspection API touches that state.
    """
    if not _backend.native_active():
        return None
    from repro.kernels import native

    return native.make_collector_session(collector)
