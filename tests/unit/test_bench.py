"""Unit tests for the perf microbenchmark suite and sweep perf stats."""

import json

import pytest

from repro.evaluation import bench
from repro.experiment import ExperimentSpec, PerfStats, Runner
from repro.workloads import create_workload

N_REFERENCES = 1_500


@pytest.fixture(scope="module")
def small_trace():
    return create_workload("barnes-hut", seed=3).collect(N_REFERENCES).trace


class TestBenchSuite:
    def test_suite_reports_every_benchmark(self, small_trace):
        report = bench.run_suite(
            small_trace, "barnes-hut", N_REFERENCES, 3, repeats=1
        )
        names = [b["name"] for b in report["benchmarks"]]
        assert "fig5_tradeoff" in names
        assert "protocol_directory" in names
        assert "timing_runtime" in names
        assert "accuracy_sweep" in names
        assert "timing_constrained_bw" in names
        for entry in report["benchmarks"]:
            assert entry["records"] > 0
            assert entry["records_per_sec"] > 0
            assert entry["calibrated"] > 0

    def test_report_round_trips_as_json(self, small_trace, tmp_path):
        report = bench.run_suite(
            small_trace, "barnes-hut", N_REFERENCES, 3, repeats=1
        )
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(report))
        assert bench.load_report(path) == report

    def test_baseline_speedup_only_on_reference_config(self, small_trace):
        report = bench.run_suite(
            small_trace, "barnes-hut", N_REFERENCES, 3, repeats=1
        )
        # Different workload/refs than the pre-columnar measurement:
        # no speedup claim is attached.
        assert "pre_columnar_baseline" not in report

    def test_render_report_is_textual(self, small_trace):
        report = bench.run_suite(
            small_trace, "barnes-hut", N_REFERENCES, 3, repeats=1
        )
        text = bench.render_report(report)
        assert "fig5_tradeoff" in text
        assert "records/sec" in text
        assert "thread scaling" in text

    def test_thread_entries_report_parallel_efficiency(self, small_trace):
        report = bench.run_suite(
            small_trace, "barnes-hut", N_REFERENCES, 3, repeats=1
        )
        entries = {b["name"]: b for b in report["benchmarks"]}
        for name, execution in bench.SWEEP_EXECUTION_ENTRIES.items():
            entry = entries[name]
            assert entry["executor"] == execution["executor"]
            assert entry["threads"] == execution["threads"]
            assert entry["backend"] == report["columns_backend"]
        efficiency = report["parallel_efficiency"]
        assert efficiency["threads"] == bench.SWEEP_THREADS
        assert efficiency["speedup"] > 0
        # speedup is rounded to 2 decimals and efficiency to 3, so
        # the two can disagree by up to 0.005 / SWEEP_THREADS.
        assert efficiency["efficiency"] == pytest.approx(
            efficiency["speedup"] / bench.SWEEP_THREADS, abs=2.5e-3
        )


class TestBaselineCheck:
    def _report(self, calibrated):
        return {
            "benchmarks": [
                {"name": "fig5_tradeoff", "calibrated": calibrated}
            ]
        }

    def test_passes_within_tolerance(self):
        failures = bench.check_against_baseline(
            self._report(8.0), self._report(10.0), tolerance=0.30
        )
        assert failures == []

    def test_fails_beyond_tolerance(self):
        failures = bench.check_against_baseline(
            self._report(6.0), self._report(10.0), tolerance=0.30
        )
        assert len(failures) == 1
        assert "fig5_tradeoff" in failures[0]

    def test_missing_benchmark_fails(self):
        failures = bench.check_against_baseline(
            {"benchmarks": []}, self._report(10.0)
        )
        assert failures and "missing" in failures[0]

    def test_faster_run_passes(self):
        assert not bench.check_against_baseline(
            self._report(20.0), self._report(10.0)
        )

    def test_multi_thread_entries_not_gated(self):
        # Thread-scaling throughput depends on the machine's core
        # count, so a baseline from a different topology must not
        # gate it (the CI parallel_efficiency assertion does).
        baseline = {
            "benchmarks": [
                {"name": "sweep_threads_4", "calibrated": 10.0,
                 "threads": 4},
                {"name": "sweep_threads_1", "calibrated": 10.0,
                 "threads": 1},
            ]
        }
        report = {
            "benchmarks": [
                {"name": "sweep_threads_4", "calibrated": 1.0,
                 "threads": 4},
                {"name": "sweep_threads_1", "calibrated": 9.0,
                 "threads": 1},
            ]
        }
        assert bench.check_against_baseline(report, baseline) == []


class TestSweepPerfStats:
    def test_runner_reports_throughput(self):
        spec = ExperimentSpec(
            workloads=("barnes-hut",),
            kind="tradeoff",
            n_references=N_REFERENCES,
            policies=("owner",),
        )
        results = Runner().run(spec)
        # 1 workload x (2 baselines + 1 policy) replays of the trace.
        assert results.perf.records_processed > 0
        assert results.perf.records_processed % 3 == 0
        assert results.perf.wall_seconds > 0
        assert results.perf.records_per_sec > 0

    def test_perf_excluded_from_serialization_and_equality(self):
        spec = ExperimentSpec(
            workloads=("barnes-hut",),
            kind="tradeoff",
            n_references=N_REFERENCES,
            policies=("owner",),
        )
        results = Runner().run(spec)
        data = results.to_dict()
        assert "perf" not in data
        from repro.experiment import ResultSet

        rebuilt = ResultSet.from_dict(data)
        assert rebuilt.perf == PerfStats()  # not carried through JSON
        assert rebuilt == results  # equality ignores perf/cache stats

    def test_perf_stats_str_and_rates(self):
        stats = PerfStats(records_processed=1000, wall_seconds=2.0)
        assert stats.records_per_sec == 500.0
        assert "records/sec" in str(stats)
        assert PerfStats().records_per_sec == 0.0
