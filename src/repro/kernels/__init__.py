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
- mutable simulation state at the boundary: the MOSI block map
  (``dict[block] -> (owner, sharers)``), predictor tables
  (:class:`repro.predictors.base.PredictorTable` flat dicts or the
  sticky-spatial ``_entries`` dicts), cache set arrays, per-node
  clocks and in-flight heaps.

**Outputs** — :class:`repro.protocols.base.OutcomeColumns`
(``latency_ns`` float64 + ``transfer_bytes`` int64, appended in trace
order) and counter structs folded through
:meth:`~repro.protocols.base.TrafficTotals.add_batch`; state objects
are mutated in place to the exact values the Python loops produce.

**Kernels** (one per hot loop):

- ``group_replay`` — the fused Group-predictor multicast replay
  (:func:`repro.protocols.fused.run_group`);
- ``policy_replay`` — the fused replay for the other compiled
  policies: Owner, Broadcast-if-shared, Owner-group, Sticky-spatial
  (:func:`repro.protocols.fused.run_kernel` with each policy's
  ``fused_kernel`` closures);
- accuracy scoring — not a kernel of its own: while a multicast
  protocol's ``accuracy`` report is set, ``group_replay`` /
  ``policy_replay`` also count coverage, precision and the outcome
  classes of every prediction
  (:mod:`repro.analysis.accuracy`), so scored runs stay compiled;
- ``baseline_replay`` — the directory and broadcast-snooping replays
  (``DirectoryProtocol`` / ``BroadcastSnoopingProtocol._handle_fast``)
  as two protocol modes of the same ``policy_replay`` kernel, which
  round-trip only the MOSI block map;
- ``collector`` — the chunk-consuming cache/MOSI filter
  (:meth:`repro.cache.pipeline.TraceCollector.process_chunk`),
  session-based so cache state stays native across chunks;
- ``timing_pass`` — the crossbar + simple-processor timing pass
  (:meth:`repro.timing.system.TimingSimulator._timing_pass_simple`);
- ``timing_pass_detailed`` — the crossbar + detailed-processor pass
  (bounded outstanding misses via per-node min-heaps), replicating
  CPython's heapq op order so clocks and heap contents stay
  bit-identical.

**Backends.**  ``pure`` and ``numpy`` are the existing Python loops
(they differ only in how derived columns are produced); ``native`` is
the C extension :mod:`repro.kernels._native` (built by
``python -m repro.kernels.build`` or the wheel).  The contract for
every backend is *byte identity*: same ResultSet JSON, same predictor
table state, same hex-float timing goldens — enforced by the
equivalence suites and ``tests/integration/test_kernel_abi.py``.

The ``try_*`` entry points below are the dispatch seam: they return
``False``/``None`` when the native tier is inactive
(:func:`repro.common.backend.native_active`) or the call is outside
the native kernel's envelope (>128 replay nodes / >62 collector
nodes, nonzero race probability, non-power-of-two granularity,
exotic predictor mixes, int64-overflowing keys), in which case the
caller falls back to the Python loops.  Fallbacks are *counted*, not
silent: each decline increments a per-kernel/per-reason counter
(:func:`decline_counts`) that the experiment runner snapshots into
``ResultSet.perf`` so a decline is visible as more than an
unexplained slowdown.  Eligibility is per call, and the Python tier
is always correct.
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


def available_backends() -> Tuple[str, ...]:
    """Registered kernel backends on this machine, floor first."""
    names = ["pure"]
    if _backend._numpy_available():
        names.append("numpy")
    if _backend.native_available():
        names.append("native")
    return tuple(names)


def native_available() -> bool:
    """True when the compiled kernel extension is importable."""
    return _backend.native_available()


def try_group_replay(proto, trace, out=None) -> bool:
    """Run the fused Group replay natively; False -> caller falls back.

    Callers have already established :func:`fused.group_uniform`; this
    adds the native envelope checks and the state round-trip.
    """
    if not _backend.native_active():
        return False
    from repro.kernels import native

    return native.group_replay(proto, trace, out)


def try_policy_replay(proto, trace, out=None) -> bool:
    """Run a non-Group fused policy replay natively; False -> fall back.

    Callers have already established a homogeneous predictor list with
    a fused kernel (Owner, Broadcast-if-shared, Owner-group, or
    Sticky-spatial); this adds the native envelope checks and the
    table-state round-trip.
    """
    if not _backend.native_active():
        return False
    from repro.kernels import native

    return native.policy_replay(proto, trace, out)


def try_baseline_replay(proto, trace, out=None) -> bool:
    """Run a directory or broadcast-snooping replay natively; False ->
    caller falls back to its ``_handle_fast`` loop.

    Callers have already established that the protocol's
    ``_handle_fast`` is the stock one; this adds the shared replay
    envelope checks and the MOSI-state round-trip.
    """
    if not _backend.native_active():
        return False
    from repro.kernels import native

    return native.baseline_replay(proto, trace, out)


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
