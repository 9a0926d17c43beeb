"""Columnar engine vs. record-object engine equivalence.

The columnar trace engine replays traces through fused batch loops
(and allocation-free scalar kernels); the record-oriented path builds
:class:`TraceRecord`/:class:`RequestOutcome` objects per request.
Both must produce *identical* results — totals, runtime results,
accuracy numbers, and predictor table state — for every protocol and
predictor on every registered workload, on both column backends
(numpy-vectorized and pure Python).  This is the correctness contract
that lets the fast paths exist at all.

The backend is parametrized in-process via
:func:`repro.trace.columns.set_backend`; CI additionally runs the
whole suite with ``REPRO_PURE_PYTHON=1`` on an interpreter without
numpy installed.
"""

import pytest

from repro.common.params import PredictorConfig, SystemConfig
from repro.evaluation.runtime import make_protocol
from repro.predictors.registry import PAPER_POLICIES
from repro.timing.system import TimingSimulator
from repro.trace import columns as trace_columns
from repro.trace.trace import Trace
from repro.workloads import WORKLOAD_NAMES, create_workload

N_REFERENCES = 4_000

PROTOCOL_LABELS = ("directory", "broadcast-snooping", *PAPER_POLICIES)


def _available_backends():
    backends = ["python"]
    try:
        import numpy  # noqa: F401
    except ImportError:
        pass
    else:
        backends.insert(0, "numpy")
    return backends


BACKENDS = _available_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Run the test under one column backend, then restore detection."""
    trace_columns.set_backend(request.param)
    yield request.param
    trace_columns.set_backend("auto")


@pytest.fixture(scope="module")
def base_traces():
    """One small trace per registered workload (records + columns)."""
    collected = {}
    for name in WORKLOAD_NAMES:
        model = create_workload(name, seed=7)
        collected[name] = model.collect(N_REFERENCES).trace
    return collected


@pytest.fixture
def traces(base_traces, backend):
    """Fresh trace objects so derived columns build under ``backend``."""
    return {
        name: trace[:] for name, trace in base_traces.items()
    }


def _object_trace(trace: Trace):
    """The same requests as a plain list of records (object path)."""
    return list(trace)


def _predictor_table_state(protocol):
    """A deep, comparable snapshot of every predictor's mutable state.

    Walks ``__dict__``/slots recursively so any policy's counters,
    owner fields, bitmasks, and direct-mapped entries are captured;
    LRU access stamps and clocks are deliberately excluded (fused
    batches collapse repeated same-key touches, which preserves
    recency *order* but not absolute tick values).
    """

    def snapshot(value, depth=0):
        assert depth < 10, "unexpectedly deep predictor state"
        if isinstance(value, (int, float, str, bool, type(None))):
            return value
        if isinstance(value, (list, tuple)):
            return [snapshot(v, depth + 1) for v in value]
        if isinstance(value, dict):
            return {
                k: snapshot(v, depth + 1)
                for k, v in sorted(value.items())
            }
        # Entry/table/predictor objects: slots or __dict__.
        state = {}
        for slot in getattr(type(value), "__slots__", ()):
            if slot in ("_stamps", "_tick", "_config", "_entry_factory"):
                continue
            state[slot] = snapshot(getattr(value, slot), depth + 1)
        for name, attr in vars(value).items() if hasattr(
            value, "__dict__"
        ) else ():
            if name.startswith("__") or callable(attr):
                continue
            if name in ("config", "_state"):
                continue
            state[name] = snapshot(attr, depth + 1)
        return {"type": type(value).__name__, "state": state}

    return [snapshot(p) for p in protocol.predictors]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("label", PROTOCOL_LABELS)
def test_protocol_totals_identical(traces, workload, label):
    trace = traces[workload]
    config = SystemConfig()
    predictor_config = PredictorConfig()

    columnar = make_protocol(label, config, predictor_config)
    assert columnar._fast_ok, f"{label} lost its fast path"
    columnar.run(trace)

    objects = make_protocol(label, config, predictor_config)
    objects.run(_object_trace(trace))

    assert columnar.totals == objects.totals


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("label", PROTOCOL_LABELS)
def test_runtime_result_identical(traces, workload, label):
    trace = traces[workload]
    config = SystemConfig()
    predictor_config = PredictorConfig()

    fast = TimingSimulator(
        config, make_protocol(label, config, predictor_config)
    )
    fast_result = fast.run(trace)

    slow = TimingSimulator(
        config, make_protocol(label, config, predictor_config)
    )
    slow_result = slow.run(trace, columnar=False)

    assert fast_result == slow_result


@pytest.mark.parametrize(
    "policy", (*PAPER_POLICIES, "sticky-spatial", "bandwidth-adaptive")
)
def test_predictor_tables_identical(traces, policy):
    """Fused batch training leaves tables exactly as per-event calls.

    Replays the same trace through the batched columnar engine and
    the record-object engine, then compares every predictor's full
    mutable state (counters, owners, predicted bitmasks, allocation
    and eviction counts) — not just the aggregate totals.
    """
    trace = traces["oltp"]
    config = SystemConfig()
    predictor_config = PredictorConfig()

    columnar = make_protocol(policy, config, predictor_config)
    columnar.run(trace)
    objects = make_protocol(policy, config, predictor_config)
    objects.run(_object_trace(trace))

    assert columnar.totals == objects.totals
    assert _predictor_table_state(columnar) == _predictor_table_state(
        objects
    )
    assert columnar.state._blocks == objects.state._blocks


@pytest.mark.parametrize("policy", ("group", "owner", "minimal"))
def test_race_probability_path_identical(traces, policy):
    """The window-of-vulnerability retry path draws the same RNG
    sequence (and produces the same totals) in the fused loops as in
    the record-object engine."""
    from repro.protocols.multicast import MulticastSnoopingProtocol

    trace = traces["oltp"]
    config = SystemConfig()

    columnar = MulticastSnoopingProtocol(
        config, policy, race_probability=0.3, seed=9
    )
    columnar.run(trace)
    objects = MulticastSnoopingProtocol(
        config, policy, race_probability=0.3, seed=9
    )
    objects.run(_object_trace(trace))

    assert columnar.totals == objects.totals
    assert columnar.totals.retries > 0  # the race path actually fired


def test_resultset_json_identical_across_backends_and_runners(tmp_path):
    """One spec, four executions, byte-identical ResultSet JSON.

    numpy vs pure-python columns x serial vs process-parallel: the
    acceptance contract for the batch execution layer.
    """
    from repro.experiment import ExperimentSpec, Runner

    spec = ExperimentSpec(
        workloads=("barnes-hut",),
        kind="tradeoff",
        n_references=3000,
        policies=("owner", "group", "sticky-spatial"),
    )
    texts = {}
    for backend in BACKENDS:
        trace_columns.set_backend(backend)
        try:
            serial = Runner(
                jobs=1, cache_dir=tmp_path / f"serial-{backend}"
            ).run(spec)
            parallel = Runner(
                jobs=2, cache_dir=tmp_path / f"parallel-{backend}"
            ).run(spec)
        finally:
            trace_columns.set_backend("auto")
        texts[f"{backend}-serial"] = serial.to_json()
        texts[f"{backend}-parallel"] = parallel.to_json()
    reference = texts[f"{BACKENDS[0]}-serial"]
    for label, text in texts.items():
        assert text == reference, f"{label} diverged"


@pytest.mark.parametrize("policy", PAPER_POLICIES)
def test_accuracy_identical_on_object_trace(traces, policy):
    """Per-record ``handle()`` scoring matches the columnar replay.

    :func:`prediction_accuracy` scores inside the columnar replay
    (compiled or scalar); feeding the same requests one record object
    at a time through ``handle()`` — the record oracle — must produce
    the identical report.
    """
    from repro.analysis.accuracy import AccuracyReport, prediction_accuracy
    from repro.evaluation.tradeoff import DEFAULT_WARMUP_FRACTION
    from repro.protocols.multicast import MulticastSnoopingProtocol

    trace = traces["barnes-hut"]
    columnar = prediction_accuracy(trace, policy)

    config = SystemConfig()
    protocol = MulticastSnoopingProtocol(config, policy)
    records = _object_trace(trace)
    n_warmup = int(len(records) * DEFAULT_WARMUP_FRACTION)
    for record in records[:n_warmup]:
        protocol.handle(record)
    protocol.accuracy = AccuracyReport(policy=policy, workload=trace.name)
    for record in records[n_warmup:]:
        protocol.handle(record)

    assert protocol.accuracy == columnar
    assert columnar.predictions == len(records) - n_warmup
