"""Kernel-ABI conformance: every backend, every kernel, same bytes.

:mod:`repro.kernels` names the replay hot loops (protocol replay,
chunk collector, simple + detailed timing passes) as an explicit ABI
with two registered backends — ``pure`` and ``native``.  The contract
is that the unified backend switch (:mod:`repro.common.backend`)
selects *speed only*: every kernel must produce byte-identical traces,
totals, predictor-table state, coherence state, and timing results
under every backend, for every protocol and predictor — including
configurations where a backend's fastest tier declines (falls back)
mid-run.

Each kernel is also checked on the ``pure`` tier with the numpy
accelerator off (``pure-python``, the ``REPRO_PURE_PYTHON=1``
configuration), which is where the ground truth is computed.

The native parametrization is skipped with a reason when the compiled
extension is absent (source-only checkout, no compiler), keeping the
suite green on the no-compiler CI leg.
"""

import pytest

from repro import kernels
from repro.cache.pipeline import TraceCollector
from repro.common import backend as _backend
from repro.common.params import PredictorConfig, SystemConfig
from repro.evaluation.runtime import make_protocol
from repro.predictors.registry import PAPER_POLICIES
from repro.timing.system import TimingSimulator
from repro.trace import columns as trace_columns
from repro.workloads import create_workload

from test_columnar_equivalence import _predictor_table_state

N_REFERENCES = 2_500
WORKLOAD = "oltp"
PROTOCOL_LABELS = (
    "directory", "broadcast-snooping", *PAPER_POLICIES, "sticky-spatial"
)
PROCESSOR_MODELS = ("simple", "detailed")

ALL_BACKENDS = _backend.BACKENDS  # pure, native
#: The pure tier with the numpy accelerator off.
PURE_PYTHON = "pure-python"


@pytest.fixture(params=(PURE_PYTHON, *ALL_BACKENDS))
def unified_backend(request):
    """Select one registered backend (or the pure tier with numpy
    off); skip-with-reason when absent."""
    name = request.param
    if name == PURE_PYTHON:
        trace_columns.set_backend("python")
        yield name
        trace_columns.set_backend("auto")
        return
    if name not in kernels.available_backends():
        pytest.skip(
            f"{name} backend unavailable on this machine"
            + (
                " (build the extension with"
                " `python -m repro.kernels.build`)"
                if name == "native"
                else ""
            )
        )
    _backend.set_backend(name)
    yield name
    _backend.set_backend("auto")


@pytest.fixture(scope="module")
def reference():
    """Ground truth computed under the pure backend, numpy off."""
    trace_columns.set_backend("python")
    try:
        collector, result = _collect()
        trace = result.trace
        collector_state = _collector_end_state(collector, result)
        runs = {}
        for label in PROTOCOL_LABELS:
            config = SystemConfig()
            protocol = make_protocol(label, config, PredictorConfig())
            protocol.run(trace[:])
            tables = (
                _predictor_table_state(protocol)
                if hasattr(protocol, "predictors")
                else None
            )
            runtimes = {}
            for model in PROCESSOR_MODELS:
                simulator = TimingSimulator(
                    config,
                    make_protocol(label, config, PredictorConfig()),
                    processor_model=model,
                )
                runtimes[model] = simulator.run(trace[:])
            protocol.state.check_invariants()
            runs[label] = (
                protocol.totals,
                tables,
                dict(protocol.state._blocks),
                runtimes,
            )
    finally:
        trace_columns.set_backend("auto")
    return {"trace": trace, "collector": collector_state, "runs": runs}


def _collect():
    model = create_workload(WORKLOAD, seed=13)
    collector = TraceCollector(model.scaled_config(), name=model.name)
    return collector, collector.run_chunks(
        model.reference_chunks(N_REFERENCES)
    )


def _collector_end_state(collector, result):
    """Every cache set in LRU order, the MOSI map and the counters —
    read through the public readers, which materialise a session."""
    sets = [
        [list(s) for s in hierarchy.l1.raw_sets + hierarchy.l2.raw_sets]
        for hierarchy in map(
            collector.hierarchy,
            range(collector._config.n_processors),
        )
    ]
    state = collector.global_state
    state.check_invariants()
    return sets, dict(state._blocks), result.instructions, result.references


def test_collector_kernel_conformance(unified_backend, reference):
    """The chunk-collector kernel emits the identical miss trace and
    leaves the identical cache, MOSI and counter state."""
    collector, result = _collect()
    if unified_backend == "native":
        # result() read the counters from the session: nothing was
        # materialised, not even the Python cache structures.
        assert collector._session
        assert collector._hierarchies is None
        assert collector._global is None
    trace = result.trace
    expected = reference["trace"]
    assert list(trace._addresses) == list(expected._addresses)
    assert list(trace._pcs) == list(expected._pcs)
    assert list(trace._requesters) == list(expected._requesters)
    assert list(trace._accesses) == list(expected._accesses)
    assert list(trace._instructions) == list(expected._instructions)
    assert _collector_end_state(collector, result) == reference["collector"]
    assert not collector._session


@pytest.mark.parametrize("label", PROTOCOL_LABELS)
def test_replay_kernel_conformance(unified_backend, reference, label):
    """Replay kernels leave identical totals/tables/coherence state.

    On the native leg every label (the directory and broadcast-snooping
    protocol modes included) must replay compiled, never declining, and
    the state compared below is the native session's, materialised by
    the first read.
    """
    trace = reference["trace"][:]
    protocol = make_protocol(label, SystemConfig(), PredictorConfig())
    kernels.reset_decline_counts()
    protocol.run(trace)
    if unified_backend == "native":
        assert kernels.decline_counts() == {}
        assert protocol._session is not None
    totals, tables, blocks, _ = reference["runs"][label]
    assert protocol.totals == totals
    state = protocol.state
    assert protocol._session is None
    state.check_invariants()
    assert state._blocks == blocks
    if tables is not None:
        assert _predictor_table_state(protocol) == tables


@pytest.mark.parametrize("model", PROCESSOR_MODELS)
@pytest.mark.parametrize("label", PROTOCOL_LABELS)
def test_timing_kernel_conformance(
    unified_backend, reference, label, model
):
    """The timing-pass kernels reproduce the exact RuntimeResult for
    both processor models."""
    trace = reference["trace"][:]
    config = SystemConfig()
    simulator = TimingSimulator(
        config,
        make_protocol(label, config, PredictorConfig()),
        processor_model=model,
    )
    runtime = simulator.run(trace)
    assert runtime == reference["runs"][label][3][model]
    # Warm-up and measured calls shared one session; materialise it.
    state = simulator.protocol.state
    state.check_invariants()
    assert state._blocks == reference["runs"][label][2]


def test_backend_registry_shape():
    """available_backends() lists the floor first and native last."""
    names = kernels.available_backends()
    assert names[0] == "pure"
    assert set(names) <= set(ALL_BACKENDS)
    assert kernels.native_available() == ("native" in names)


@pytest.mark.parametrize(
    "predictors", ("oracle", "bandwidth-adaptive", "mixed")
)
def test_lists_without_native_twin_replay_scalar(
    reference, monkeypatch, predictors
):
    """Predictor lists with no native twin replay on the scalar loop.

    Under ``REPRO_BACKEND=native`` the oracle, bandwidth-adaptive and
    a mixed Owner/Group list each equal the record oracle and record
    no decline; ``numpy`` is no longer a backend and is rejected.
    """
    from repro.predictors.group import GroupPredictor

    previous = _backend.backend_name()
    monkeypatch.setenv(_backend.BACKEND_ENV, "numpy")
    with pytest.raises(ValueError):
        _backend.set_backend("auto")
    with pytest.raises(ValueError):
        _backend.set_backend("numpy")
    if not kernels.native_available():
        pytest.skip("native backend unavailable on this machine")

    config = SystemConfig()

    def build():
        label = "owner" if predictors == "mixed" else predictors
        protocol = make_protocol(label, config, PredictorConfig())
        if predictors == "mixed":
            protocol.predictors[1] = GroupPredictor(
                config.n_processors, protocol.predictor_config
            )
        return protocol

    trace = reference["trace"][:]
    oracle = build()
    for record in trace:
        oracle.handle(record)

    monkeypatch.setenv(_backend.BACKEND_ENV, "native")
    _backend.set_backend("auto")
    try:
        assert _backend.backend_name() == "native"
        kernels.reset_decline_counts()
        protocol = build()
        protocol.run(trace)
        assert kernels.decline_counts() == {}
        assert protocol._session is None
    finally:
        _backend.set_backend(previous)
    assert protocol.totals == oracle.totals
    assert protocol.state._blocks == oracle.state._blocks
    assert _predictor_table_state(protocol) == _predictor_table_state(
        oracle
    )
