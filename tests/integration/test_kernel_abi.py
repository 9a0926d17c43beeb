"""Kernel-ABI conformance: every backend, every kernel, same bytes.

:mod:`repro.kernels` names the replay hot loops (group + policy
replays, chunk collector, simple + detailed timing passes) as an
explicit ABI with three registered
backends — ``pure``, ``numpy``, ``native``.  The contract is that the
unified backend switch (:mod:`repro.common.backend`) selects *speed
only*: every kernel must produce byte-identical traces, totals,
predictor-table state, coherence state, and timing results under every
backend, for every protocol and predictor — including configurations
where a backend's fastest tier declines (falls back) mid-run.

The native parametrization is skipped with a reason when the compiled
extension is absent (source-only checkout, no compiler), keeping the
suite green on the no-compiler CI leg.
"""

import pytest

from repro import kernels
from repro.common import backend as _backend
from repro.common.params import PredictorConfig, SystemConfig
from repro.evaluation.runtime import make_protocol
from repro.predictors.registry import PAPER_POLICIES
from repro.timing.system import TimingSimulator
from repro.workloads import create_workload

from test_columnar_equivalence import _predictor_table_state

N_REFERENCES = 2_500
WORKLOAD = "oltp"
PROTOCOL_LABELS = (
    "directory", "broadcast-snooping", *PAPER_POLICIES, "sticky-spatial"
)
PROCESSOR_MODELS = ("simple", "detailed")

ALL_BACKENDS = _backend.BACKENDS  # pure, numpy, native


@pytest.fixture(params=ALL_BACKENDS)
def unified_backend(request):
    """Select one registered backend; skip-with-reason when absent."""
    name = request.param
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
    """Ground truth computed under the pure backend."""
    _backend.set_backend("pure")
    try:
        trace = create_workload(WORKLOAD, seed=13).collect(
            N_REFERENCES
        ).trace
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
            runs[label] = (
                protocol.totals,
                tables,
                dict(protocol.state._blocks),
                runtimes,
            )
    finally:
        _backend.set_backend("auto")
    return {"trace": trace, "runs": runs}


def test_collector_kernel_conformance(unified_backend, reference):
    """The chunk-collector kernel emits the identical miss trace."""
    result = create_workload(WORKLOAD, seed=13).collect(N_REFERENCES)
    trace = result.trace
    expected = reference["trace"]
    assert list(trace._addresses) == list(expected._addresses)
    assert list(trace._pcs) == list(expected._pcs)
    assert list(trace._requesters) == list(expected._requesters)
    assert list(trace._accesses) == list(expected._accesses)
    assert list(trace._instructions) == list(expected._instructions)


@pytest.mark.parametrize("label", PROTOCOL_LABELS)
def test_replay_kernel_conformance(unified_backend, reference, label):
    """Replay kernels leave identical totals/tables/coherence state.

    On the native leg every label (the directory and broadcast-snooping
    protocol modes included) must replay compiled, never declining.
    """
    trace = reference["trace"][:]
    protocol = make_protocol(label, SystemConfig(), PredictorConfig())
    kernels.reset_decline_counts()
    protocol.run(trace)
    if unified_backend == "native":
        assert kernels.decline_counts() == {}
    totals, tables, blocks, _ = reference["runs"][label]
    assert protocol.totals == totals
    if tables is not None:
        assert _predictor_table_state(protocol) == tables
    assert protocol.state._blocks == blocks


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


def test_backend_registry_shape():
    """available_backends() lists the floor first and native last."""
    names = kernels.available_backends()
    assert names[0] == "pure"
    assert set(names) <= set(ALL_BACKENDS)
    assert kernels.native_available() == ("native" in names)
