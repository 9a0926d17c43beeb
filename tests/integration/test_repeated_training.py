"""Runs of repeated requests: record path ≡ scalar loop ≡ native kernel.

A run of requests to one block makes the block's home node train its
predictor on the same key over and over (external-request training,
Section 3.1), while the requester trains on the responses.  These
runs are where a kernel that shortcuts repeated same-key training
would drift from the per-event semantics: Group's 5-bit rollover
decay, Owner-group's nested tables, Sticky-spatial's per-entry
targets.  Each case replays one such run through the record oracle
(``protocol.handle``), the scalar ``_handle_fast`` loop with numpy
off and on, and — when the extension is built — the native kernel,
and requires identical totals, coherence state and predictor tables.
"""

import pytest

from repro import kernels
from repro.common import backend as _backend
from repro.common.params import PredictorConfig, SystemConfig
from repro.common.types import AccessType
from repro.predictors.group import GroupPredictor
from repro.protocols.multicast import MulticastSnoopingProtocol
from repro.trace import columns as trace_columns
from repro.trace.record import TraceRecord
from repro.trace.trace import Trace

from test_columnar_equivalence import _predictor_table_state

N_NODES = 4
BLOCK_SIZE = 64
PC = 0x10
#: Block 5 is homed at node 1 (5 mod 4), so node 1 receives every
#: request to it and trains externally on each one.
KEY = 5
HOME = KEY % N_NODES
OWNER = 3
REQUESTER = 2

POLICIES = (
    "owner",
    "broadcast-if-shared",
    "group",
    "owner-group",
    "bandwidth-adaptive",
    "sticky-spatial",
)


def _config():
    return SystemConfig(n_processors=N_NODES, block_size=BLOCK_SIZE)


def _predictor_config():
    return PredictorConfig(n_entries=64, index_granularity=BLOCK_SIZE)


def _records(count, access, seeded=True):
    """``count`` requests by REQUESTER to block KEY.

    When ``seeded``, OWNER first takes the block exclusive and HOME
    then requests it, so HOME's predictor holds an entry for KEY
    (entries allocate only when the minimal set was insufficient)
    before the run starts.
    """
    address = KEY * BLOCK_SIZE
    records = []
    if seeded:
        records.append(TraceRecord(address, PC, OWNER, AccessType.GETX))
        records.append(TraceRecord(address, PC, HOME, AccessType.GETX))
    records.extend(
        TraceRecord(address, PC, REQUESTER, access) for _ in range(count)
    )
    return records


def _snapshot(protocol):
    state = protocol.state
    state.check_invariants()
    return (
        protocol.totals,
        dict(state._blocks),
        _predictor_table_state(protocol),
    )


def _assert_replays_match_record(build, records):
    """Record oracle vs every replay configuration available here."""
    oracle = build()
    for record in records:
        oracle.handle(record)
    expected = _snapshot(oracle)

    trace = Trace(records, n_processors=N_NODES)
    for numpy_tier in ("python", "numpy"):
        if numpy_tier == "numpy" and trace_columns.numpy_module() is None:
            continue
        trace_columns.set_backend(numpy_tier)
        try:
            protocol = build()
            protocol.run(trace[:])
        finally:
            trace_columns.set_backend("auto")
        assert _snapshot(protocol) == expected, numpy_tier

    if not kernels.native_available():
        return expected
    previous = _backend.backend_name()
    _backend.set_backend("native")
    try:
        kernels.reset_decline_counts()
        protocol = build()
        protocol.run(trace[:])
        assert kernels.decline_counts() == {}
    finally:
        _backend.set_backend(previous)
    assert _snapshot(protocol) == expected, "native"
    return expected


def _stock(policy):
    def build():
        return MulticastSnoopingProtocol(
            _config(), predictor=policy,
            predictor_config=_predictor_config(),
        )
    return build


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("count", (1, 2, 3, 7, 40))
@pytest.mark.parametrize("access", (AccessType.GETS, AccessType.GETX))
def test_repeated_requests_match_record(policy, count, access):
    _assert_replays_match_record(_stock(policy), _records(count, access))


@pytest.mark.parametrize("policy", POLICIES)
def test_repeated_requests_without_entry_match_record(policy):
    """A run against a key HOME has no entry for trains harmlessly."""
    _assert_replays_match_record(
        _stock(policy), _records(3, AccessType.GETX, seeded=False)
    )


def test_group_run_crosses_rollover_decay():
    """A run long enough to wrap the 5-bit rollover counter decays."""
    _assert_replays_match_record(
        _stock("group"), _records(70, AccessType.GETS)
    )


def test_group_run_without_train_down():
    """With train-down off, HOME's entry learns the requester once the
    run crosses the threshold and keeps it."""

    def build():
        protocol = _stock("group")()
        protocol.predictors = [
            GroupPredictor(N_NODES, _predictor_config(), train_down=False)
            for _ in range(N_NODES)
        ]
        return protocol

    _assert_replays_match_record(build, _records(5, AccessType.GETS))
    protocol = build()
    protocol.run(Trace(_records(5, AccessType.GETS), n_processors=N_NODES))
    entry = protocol.predictors[HOME]._table.lookup(KEY)
    assert entry.bits & (1 << REQUESTER)
