"""Record ≡ scalar ≡ native, on generated inputs.

Prediction scoring lives in exactly three places — the record path
(``MulticastSnoopingProtocol._handle``), the scalar columnar loop
(``_handle_fast``) and the compiled replay kernel
(``_native.ReplaySession``).  This property test drives all three over
small adversarial traces and asserts the same :class:`AccuracyReport`
(every counter and outcome class), the same totals and the same
predictor-table and MOSI state — the native state as materialised from
its replay session, checked against
:meth:`GlobalCoherenceState.check_invariants`:

- few blocks, so requests collide on MOSI state;
- tiny bounded tables, so LRU eviction decides what is predicted;
- pc and address indexing at several granularities;
- node counts at the native envelope's edges, including 129, where
  the kernel must decline (counted) and the scalar loop scores;
- the five compiled policies plus two without a native twin, and the
  directory / broadcast-snooping protocol modes of the same kernel.

Three lifecycle cases ride along: a native warm-up followed by the
record path (``handle()`` materialises the session, then must track
the record oracle request by request), and two threads entering one
replay session at once (exactly one gets ``ValueError``; the state is
what one uncontended replay leaves).

It also pins the retired probe's access pattern: the probe looked up
every scored prediction twice, bumping bounded-table LRU stamps twice.
Only the relative order of stamps drives eviction, so a replay that
predicts twice per request must score exactly like one that predicts
once.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.analysis.accuracy import AccuracyReport
from repro.common import backend as _backend
from repro.common.params import PredictorConfig, SystemConfig
from repro.evaluation.runtime import make_protocol
from repro.protocols.multicast import MulticastSnoopingProtocol
from repro.trace.trace import Trace

from tests.conftest import gets, getx
from test_columnar_equivalence import _predictor_table_state

COMPILED_POLICIES = (
    "owner", "broadcast-if-shared", "group", "owner-group", "sticky-spatial",
)
#: Policies without a native twin: scored runs take the scalar loop.
SCALAR_POLICIES = ("minimal", "bandwidth-adaptive")
#: The baselines: protocol modes of the same native replay kernel.
PROTOCOL_MODES = ("directory", "broadcast-snooping")
NODE_COUNTS = (1, 2, 63, 64, 65, 128, 129)
#: Past the two-lane destination-mask envelope.
DECLINED_NODE_COUNT = 129

NATIVE = "native" in kernels.available_backends()


@st.composite
def cases(draw, policies=COMPILED_POLICIES + SCALAR_POLICIES):
    """One (policy, n, predictor config, records, warm-up) case."""
    policy = draw(st.sampled_from(policies))
    n = draw(st.sampled_from(NODE_COUNTS))
    n_entries = draw(st.sampled_from((None, 1, 2, 4)))
    associativity = 1
    if n_entries is not None and n_entries > 1:
        associativity = draw(st.sampled_from((1, 2)))
    predictor_config = PredictorConfig(
        n_entries=n_entries,
        associativity=associativity,
        index_granularity=draw(st.sampled_from((64, 128, 1024))),
        use_pc_index=draw(st.booleans()),
    )
    # A handful of nodes (the top one is the envelope edge) and blocks.
    nodes = draw(st.lists(
        st.one_of(st.just(n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=5,
    ))
    blocks = draw(st.lists(
        st.integers(0, 4095), min_size=1, max_size=6, unique=True
    ))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(nodes),
            st.sampled_from(blocks),
            st.integers(0, 63),   # byte offset within the block
            st.booleans(),        # GETX
            st.integers(0, 3),    # pc site
        ),
        min_size=1,
        max_size=80,
    ))
    records = [
        (getx if write else gets)(
            block * 64 + offset, node, pc=0x400 + site * 4
        )
        for node, block, offset, write, site in ops
    ]
    n_warmup = draw(st.integers(0, len(records)))
    return policy, n, predictor_config, records, n_warmup


class _PredictTwice(MulticastSnoopingProtocol):
    """The retired probe's access pattern: an extra predict per request.

    Overriding ``_handle`` keeps every replay on the record path.
    """

    def _handle(self, record):
        self.predictors[record.requester].predict(
            record.address, record.pc, record.access
        )
        return super()._handle(record)


def _record_leg(cls, policy, config, predictor_config, records, n_warmup):
    protocol = cls(config, policy, predictor_config)
    report = AccuracyReport(policy=policy, workload="generated")
    for record in records[:n_warmup]:
        protocol.handle(record)
    protocol.accuracy = report
    for record in records[n_warmup:]:
        protocol.handle(record)
    return protocol, report


def _columnar_leg(backend, policy, config, predictor_config, trace, n_warmup):
    protocol = MulticastSnoopingProtocol(config, policy, predictor_config)
    report = AccuracyReport(policy=policy, workload="generated")
    warmup, measured = trace.split_warmup(n_warmup)
    with _backend.use(backend):
        protocol.run(warmup)
        protocol.accuracy = report
        protocol.run(measured)
    return protocol, report


def _materialised_state(protocol):
    """The MOSI map as Python readers see it (syncing a native
    session first), after checking the coherence invariants."""
    state = protocol.state
    assert protocol._session is None  # the read detached the session
    state.check_invariants()
    return state._blocks


def _observables(protocol, report):
    return (
        report,
        protocol.totals,
        _materialised_state(protocol),
        _predictor_table_state(protocol),
    )


def _assert_same(leg, oracle):
    # Smallest first, so a failing example (and every shrink step)
    # diffs the report, not 128 predictor tables.
    for got, want in zip(leg, oracle):
        assert got == want


@settings(max_examples=150, deadline=None)
@given(cases())
def test_record_scalar_native_identical(case):
    policy, n, predictor_config, records, n_warmup = case
    config = SystemConfig(n_processors=n)
    trace = Trace(records, n_processors=n, name="generated")

    record = _observables(*_record_leg(
        MulticastSnoopingProtocol, policy, config, predictor_config,
        records, n_warmup,
    ))
    assert record[0].predictions == len(records) - n_warmup

    # Pure backend: the scored half runs the scalar _handle_fast loop.
    scalar = _observables(*_columnar_leg(
        "pure", policy, config, predictor_config, trace, n_warmup
    ))
    _assert_same(scalar, record)

    if policy in COMPILED_POLICIES:
        twice = _observables(*_record_leg(
            _PredictTwice, policy, config, predictor_config, records,
            n_warmup,
        ))
        assert twice[0] == record[0]

    if not NATIVE:
        return
    kernels.reset_decline_counts()
    native = _observables(*_columnar_leg(
        "native", policy, config, predictor_config, trace, n_warmup
    ))
    declines = kernels.decline_counts()
    _assert_same(native, record)
    if policy in COMPILED_POLICIES and n == DECLINED_NODE_COUNT:
        assert declines and set(declines) <= {
            "group_replay:envelope", "policy_replay:envelope",
        }, declines
    else:
        assert declines == {}, declines


@st.composite
def protocol_mode_cases(draw):
    """A directory / broadcast-snooping case over the same traces."""
    _, n, _, records, n_warmup = draw(cases())
    return draw(st.sampled_from(PROTOCOL_MODES)), n, records, n_warmup


@settings(max_examples=80, deadline=None)
@given(protocol_mode_cases())
def test_protocol_modes_record_scalar_native_identical(case):
    """The baselines: same totals and MOSI state on every tier."""
    label, n, records, n_warmup = case
    config = SystemConfig(n_processors=n)
    trace = Trace(records, n_processors=n, name="generated")
    warmup, measured = trace.split_warmup(n_warmup)

    oracle = make_protocol(label, config)
    for record in records:
        oracle.handle(record)
    want = (oracle.totals, oracle.state._blocks)

    backends = ["pure"] + (["native"] if NATIVE else [])
    for backend in backends:
        kernels.reset_decline_counts()
        protocol = make_protocol(label, config)
        with _backend.use(backend):
            protocol.run(warmup)
            protocol.run(measured)
        assert (protocol.totals, _materialised_state(protocol)) == want
        if backend == "native":
            expected = (
                {"policy_replay:envelope": 2}
                if n == DECLINED_NODE_COUNT else {}
            )
            assert kernels.decline_counts() == expected


@settings(max_examples=80, deadline=None)
@given(cases(policies=COMPILED_POLICIES + PROTOCOL_MODES))
def test_native_warmup_then_record_path(case):
    """Mixed tiers: a native warm-up, then ``handle()`` per record.

    The first ``handle()`` materialises the warm-up's session; from
    there every outcome, the running totals and the final state must
    equal a protocol that took the record path throughout.
    """
    if not NATIVE:
        pytest.skip("native backend unavailable")
    policy, n, predictor_config, records, n_warmup = case
    config = SystemConfig(n_processors=n)
    trace = Trace(records, n_processors=n, name="generated")

    oracle = make_protocol(policy, config, predictor_config)
    mixed = make_protocol(policy, config, predictor_config)
    for record in records[:n_warmup]:
        oracle.handle(record)
    with _backend.use("native"):
        mixed.run(trace.split_warmup(n_warmup)[0])
    scored = policy not in PROTOCOL_MODES
    if scored:
        oracle.accuracy = AccuracyReport(policy=policy, workload="o")
        mixed.accuracy = AccuracyReport(policy=policy, workload="o")
    for record in records[n_warmup:]:
        assert mixed.handle(record) == oracle.handle(record)
        assert mixed._session is None
        assert mixed.totals == oracle.totals
    if scored:
        assert mixed.accuracy == oracle.accuracy
        assert _predictor_table_state(mixed) == _predictor_table_state(
            oracle
        )
    mixed.state.check_invariants()
    assert mixed.state._blocks == oracle.state._blocks


def _long_trace(n, repeats):
    """A trace of ``repeats`` copies of a small sharing pattern, built
    column-wise so a multi-million-record trace costs no per-record
    Python work."""
    base = Trace(n_processors=n)
    for i in range(512):
        node = (i * 7) % n
        block = (i * 13) % 97
        base.append_fields(block * 64, 0x400 + (i % 5) * 4, node, i % 3 == 0, 1)
    return Trace._from_columns(
        base._addresses * repeats, base._pcs * repeats,
        base._requesters * repeats, base._accesses * repeats,
        base._instructions * repeats, n, "long",
    )


@pytest.mark.parametrize("label", ("group", "directory"))
def test_concurrent_replay_on_one_session(label):
    """Two threads entering one session: exactly one ``ValueError``,
    and the state is what one uncontended replay leaves."""
    if not NATIVE:
        pytest.skip("native backend unavailable")
    n = 16
    config = SystemConfig(n_processors=n)
    trace = _long_trace(n, 4000)  # ~2M records: the loop outlasts a
    # thread switch by orders of magnitude
    warm = _long_trace(n, 1)

    with _backend.use("native"):
        shared = make_protocol(label, config)
        shared.run(warm)  # opens the session
        oracle = make_protocol(label, config)
        oracle.run(warm)
        oracle.run(trace)
    session = shared._session
    assert session is not None

    barrier = threading.Barrier(2, timeout=60)
    errors = []

    def replay():
        barrier.wait()
        try:
            session.replay(shared, trace, None)
        except ValueError as exc:
            errors.append(exc)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _backend.use("native"):
            threads = [threading.Thread(target=replay) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(errors) == 1, errors
    assert "concurrent call" in str(errors[0])
    assert shared.totals == oracle.totals
    assert _materialised_state(shared) == oracle.state._blocks
    if label != "directory":
        assert _predictor_table_state(shared) == _predictor_table_state(
            oracle
        )


def test_native_leg_present():
    """Make a missing native leg visible rather than silently skipped."""
    if not NATIVE:
        pytest.skip(
            "native backend unavailable (build the extension with"
            " `python -m repro.kernels.build`); the property test"
            " checked record ≡ scalar only"
        )
    assert (
        _backend.native_module().ABI_VERSION == _backend.NATIVE_ABI_VERSION
    )
