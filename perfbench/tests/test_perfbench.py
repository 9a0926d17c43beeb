"""Self-tests of the benchmark: spans, metric names, checks, layers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os

import pytest

import metrics
import run
import workloads
from layers import instrumented
from repro.common import backend
from repro.experiment.results import ResultRecord
from spans import Span, Tracer

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(workloads.__file__)), "BENCHMARK.json"
)


def _spans(tracer, rows):
    for span_id, parent, name, start, end in rows:
        tracer.spans.append(Span(span_id, parent, 0, name, start, end))


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    _spans(tracer, [
        (0, None, "pass", 0, 1000),
        (1, 0, "cell", 100, 700),
        (2, 1, "replay.owner", 150, 550),
        (3, 2, "derive", 200, 250),
        (4, 0, "cell", 750, 900),
    ])
    self_times = tracer.self_times(0)
    assert self_times["derive"] == pytest.approx(50e-9)
    assert self_times["replay.owner"] == pytest.approx(350e-9)
    assert self_times["cell"] == pytest.approx((600 - 400 + 150) * 1e-9)
    assert self_times["pass"] == pytest.approx((1000 - 750) * 1e-9)
    # Self times account for the whole pass.
    assert sum(self_times.values()) == pytest.approx(
        tracer.pass_seconds(0))


def test_live_spans_nest_and_share_the_pass_id():
    tracer = Tracer()
    with tracer.pass_span(7):
        with tracer.span("runner"):
            with tracer.span("cell"):
                tracer.count("replay.records", 3)
    assert [s.pass_id for s in tracer.spans] == [7, 7, 7]
    assert [s.parent_id for s in tracer.spans] == [None, 0, 1]
    assert tracer.counters[7] == {"replay.records": 3}
    assert sum(tracer.self_times(7).values()) == pytest.approx(
        tracer.pass_seconds(7))


def test_metric_names_are_well_formed_and_unique():
    names = [name for name, *_ in metrics.END_TO_END]
    names += [name for name, *_ in metrics.per_layer()]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_PATTERN.fullmatch(name), name


def test_benchmark_json_lists_the_metrics_run_py_reports():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == metrics.per_layer()
    assert [w["name"] for w in spec["workloads"]] == list(
        metrics.WORKLOAD_NAMES)


class _Checked:
    name = "paper_warm"
    seed = -1

    def __init__(self, reference):
        self._reference = reference

    def reference(self):
        return self._reference


class _ResultSet:
    def __init__(self, records):
        self.records = records


def _record(indirection_pct):
    return ResultRecord(
        workload="oltp", seed=42, label="owner",
        metrics={"indirection_pct": indirection_pct, "misses": 10},
    )


def test_check_flags_a_corrupted_record():
    good = workloads.result_digests("tradeoff", _ResultSet([_record(12.5)]))
    bad = workloads.result_digests(
        "tradeoff", _ResultSet([_record(12.500000000000002)]))
    passes = [workloads.PassResult(1, 1.0, dict(good)),
              workloads.PassResult(1, 1.0, dict(bad)),
              workloads.PassResult(1, 1.0, dict(good))]
    attempted, failed, _kind = run.check(_Checked(good), passes)
    assert (attempted, failed) == (3, 1)


def test_check_counts_cell_failures_and_missing_operations():
    good = workloads.result_digests("tradeoff", _ResultSet([_record(1.0)]))
    passes = [workloads.PassResult(1, 1.0, dict(good),
                                   failures=["oltp/owner: boom"]),
              workloads.PassResult(0, 1.0, {})]
    attempted, failed, _kind = run.check(_Checked(good), passes)
    assert (attempted, failed) == (1, 2)


@pytest.fixture
def small_workloads(monkeypatch, tmp_path):
    """Every workload at a few thousand references."""
    monkeypatch.setattr(workloads.PaperWarm, "n_references", 3000)
    monkeypatch.setattr(workloads.CorpusCold, "n_references", 3000)
    monkeypatch.setattr(workloads.AccuracyWarm, "n_references", 2000)
    name = "native" if backend.native_available() else "auto"
    with backend.use(name):
        yield {name: cls(42, str(tmp_path))
               for name, cls in workloads.WORKLOADS.items()}


def test_traced_pass_yields_a_span_for_every_layer(small_workloads):
    from repro.experiment import runner

    original = runner.run_cell
    tracer = Tracer()
    with instrumented(tracer):
        for pass_id, (name, workload) in enumerate(
                small_workloads.items()):
            workload.setup()
            workload.run_pass(lambda: tracer.pass_span(pass_id))
            seen = set(tracer.self_times(pass_id))
            expected = set(metrics.SPAN_METRICS[name]) - {
                "unattributed", "runner.overhead"}
            if "runner.overhead" in metrics.SPAN_METRICS[name]:
                expected |= {"runner", "cell"}
            assert expected <= seen, (name, expected - seen)
            counted = set(tracer.counters[pass_id])
            wanted = {count for count, _unit in metrics.COUNT_METRICS[name]
                      if count not in ("kernels.declines", "store.misses",
                                       "cache.records_per_reference")}
            assert wanted <= counted, (name, wanted - counted)
            workload.close()
    # The wrappers are gone once the block ends.
    assert runner.run_cell is original
