"""Accuracy scoring: record ≡ scalar ≡ native, on generated inputs.

Prediction scoring lives in exactly three places — the record path
(``MulticastSnoopingProtocol._handle``), the scalar columnar loop
(``_handle_fast``) and the compiled ``policy_replay`` kernel.  This
property test drives all three over small adversarial traces and
asserts the same :class:`AccuracyReport` (every counter and outcome
class), the same totals and the same predictor-table state:

- few blocks, so requests collide on MOSI state;
- tiny bounded tables, so LRU eviction decides what is predicted;
- pc and address indexing at several granularities;
- node counts at the native envelope's edges, including 129, where
  the kernel must decline (counted) and the scalar loop scores;
- the five compiled policies plus two without a native twin.

It also pins the retired probe's access pattern: the probe looked up
every scored prediction twice, bumping bounded-table LRU stamps twice.
Only the relative order of stamps drives eviction, so a replay that
predicts twice per request must score exactly like one that predicts
once.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.analysis.accuracy import AccuracyReport
from repro.common import backend as _backend
from repro.common.params import PredictorConfig, SystemConfig
from repro.protocols.multicast import MulticastSnoopingProtocol
from repro.trace.trace import Trace

from tests.conftest import gets, getx
from test_columnar_equivalence import _predictor_table_state

COMPILED_POLICIES = (
    "owner", "broadcast-if-shared", "group", "owner-group", "sticky-spatial",
)
#: Policies without a native twin: scored runs take the scalar loop.
SCALAR_POLICIES = ("minimal", "bandwidth-adaptive")
NODE_COUNTS = (1, 2, 63, 64, 65, 128, 129)
#: Past the two-lane destination-mask envelope.
DECLINED_NODE_COUNT = 129

NATIVE = "native" in kernels.available_backends()


@st.composite
def cases(draw):
    """One (policy, n, predictor config, records, warm-up) case."""
    policy = draw(st.sampled_from(COMPILED_POLICIES + SCALAR_POLICIES))
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


def _observables(protocol, report):
    return (
        report,
        protocol.totals,
        protocol.state._blocks,
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


def test_native_leg_present():
    """Make a missing native leg visible rather than silently skipped."""
    if not NATIVE:
        pytest.skip(
            "native backend unavailable (build the extension with"
            " `python -m repro.kernels.build`); the property test"
            " checked record ≡ scalar only"
        )
    assert _backend.native_module().ABI_VERSION == 5
