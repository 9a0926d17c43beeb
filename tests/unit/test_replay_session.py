"""The native replay session's lifecycle.

One ``_native.ReplaySession`` per protocol holds the MOSI map and the
predictor tables between replay calls; Python objects are rebuilt from
it only when a Python reader asks (see "Resident replay state" in
:mod:`repro.kernels`).  These tests pin where that write-back happens
(and that a sweep never pays it), that every reader sees current
state, and that the runner reports the native phase and decline
tallies under every executor.
"""

import pytest

from repro import kernels
from repro.common import backend as _backend
from repro.common.params import PredictorConfig, SystemConfig
from repro.evaluation.runtime import make_protocol
from repro.experiment import ExperimentSpec, Runner
from repro.trace.trace import Trace
from repro.workloads import create_workload

NATIVE = "native" in kernels.available_backends()

pytestmark = pytest.mark.skipif(
    not NATIVE,
    reason="native backend unavailable (build the extension with"
    " `python -m repro.kernels.build`)",
)


@pytest.fixture(scope="module")
def trace():
    with _backend.use("pure"):
        return create_workload("ocean", seed=3).collect(3000).trace


def _run(label, backend, *traces, config=None):
    protocol = make_protocol(label, config or SystemConfig(), PredictorConfig())
    with _backend.use(backend):
        for part in traces:
            protocol.run(part)
    return protocol


def test_native_sweep_reports_compute_and_no_writeback():
    spec = ExperimentSpec(
        workloads=("ocean",), kind="tradeoff", n_references=3000,
        policies=("owner", "group", "sticky-spatial"),
    )
    with _backend.use("native"):
        results = Runner(jobs=1).run(spec)
    phases = results.perf.native_phases
    assert phases["compute_ns"] > 0
    assert phases["marshal_ns"] > 0
    assert phases["writeback_ns"] == 0
    assert "native replay phases" in str(results.perf)


def test_reading_state_after_a_run_writes_back(trace):
    kernels.reset_phase_totals()
    protocol = _run("group", "native", trace)
    assert protocol._session is not None
    assert kernels.phase_totals()["writeback_ns"] == 0
    protocol.state
    assert protocol._session is None
    assert kernels.phase_totals()["writeback_ns"] > 0
    # Materialising twice costs nothing more: the session is gone.
    before = kernels.phase_totals()["writeback_ns"]
    protocol.predictors
    assert kernels.phase_totals()["writeback_ns"] == before


@pytest.mark.parametrize(
    "label", ("owner", "broadcast-if-shared", "group", "owner-group",
              "sticky-spatial"),
)
def test_predictor_stats_materialise(trace, label):
    """A predictor reference taken before the run reads current state."""
    native = make_protocol(label, SystemConfig(), PredictorConfig())
    held = native.predictors[5]
    with _backend.use("native"):
        native.run(trace)
    assert native._session is not None
    got = held.stats()
    assert native._session is None
    assert got == _run(label, "pure", trace).predictors[5].stats()


def test_swapped_out_predictor_keeps_its_trained_state(trace):
    native = _run("owner", "native", trace)
    replaced = native._predictors[2]
    resident = native._predictors  # held across the swap
    resident[2] = make_protocol(
        "owner", SystemConfig(), PredictorConfig()
    )._predictors[2]
    assert native._session is None
    assert replaced.stats() == _run("owner", "pure", trace).predictors[
        2
    ].stats()


@pytest.mark.parametrize("label", ("directory", "group", "sticky-spatial"))
def test_backend_switch_mid_life_continues_in_python(trace, label):
    warmup, measured = trace.split_warmup(1000)
    protocol = make_protocol(label, SystemConfig(), PredictorConfig())
    kernels.reset_decline_counts()
    with _backend.use("native"):
        protocol.run(warmup)
    assert protocol._session is not None
    with _backend.use("pure"):
        protocol.run(measured)
    assert protocol._session is None
    assert kernels.decline_counts() == {}
    oracle = _run(label, "pure", warmup, measured)
    assert protocol.totals == oracle.totals
    assert protocol.state._blocks == oracle.state._blocks


@pytest.mark.parametrize("label", ("broadcast-snooping", "owner-group"))
def test_bad_requester_leaves_resident_state_untouched(trace, label):
    warmup, measured = trace.split_warmup(1000)
    protocol = _run(label, "native", warmup)
    bad = Trace(n_processors=16)
    bad.append_fields(4096, 0, 1, 0, 5)
    bad.append_fields(8192, 0, 16, 1, 5)  # one past the last node
    with _backend.use("native"):
        with pytest.raises(ValueError, match="requester out of range"):
            protocol.run(bad)
        protocol.run(measured)  # the session is still usable
    oracle = _run(label, "pure", warmup, measured)
    assert protocol.totals == oracle.totals
    assert protocol.state._blocks == oracle.state._blocks


def test_race_probability_set_later_declines_to_python(trace):
    from repro.protocols.multicast import MulticastSnoopingProtocol

    warmup, measured = trace.split_warmup(1000)
    protocol = MulticastSnoopingProtocol(SystemConfig(), "group", seed=4)
    oracle = MulticastSnoopingProtocol(SystemConfig(), "group", seed=4)
    kernels.reset_decline_counts()
    with _backend.use("native"):
        protocol.run(warmup)
        protocol.race_probability = 0.2
        protocol.run(measured)
    assert kernels.decline_counts() == {"group_replay:race-probability": 1}
    with _backend.use("pure"):
        oracle.run(warmup)
        oracle.race_probability = 0.2
        oracle.run(measured)
    assert protocol.totals == oracle.totals
    assert protocol.state._blocks == oracle.state._blocks


def test_process_pool_reports_the_serial_declines(tmp_path):
    """Worker processes return their cells' tallies to the parent."""
    spec = ExperimentSpec(
        workloads=("ocean",), kind="tradeoff", n_references=2000,
        policies=("owner", "group"),
        # Past both the collector's and the replay's node envelopes.
        system_config=SystemConfig(n_processors=129),
    )
    with _backend.use("native"):
        serial = Runner(jobs=1).run(spec)
        pooled = Runner(
            jobs=2, executor="processes", cache_dir=tmp_path
        ).run(spec)
    assert serial.perf.native_declines
    assert pooled.perf.native_declines == serial.perf.native_declines
    assert pooled == serial


def test_process_pool_reports_native_phases(tmp_path):
    spec = ExperimentSpec(
        workloads=("ocean",), kind="tradeoff", n_references=2000,
        policies=("owner",),
    )
    with _backend.use("native"):
        pooled = Runner(
            jobs=2, executor="processes", cache_dir=tmp_path
        ).run(spec)
    assert pooled.perf.native_phases["compute_ns"] > 0
    assert pooled.perf.native_phases["writeback_ns"] == 0
