"""Unit tests for the unified experiment API."""

import dataclasses
import json

import pytest

from repro.common.params import PredictorConfig, SystemConfig
from repro.experiment import (
    ExperimentSpec,
    PersistentTraceCorpus,
    ResultRecord,
    ResultSet,
    Runner,
    TraceCache,
    bandwidth_sweep,
    run_experiment,
)

#: Small-but-nonempty settings shared by the runner tests.
SMALL = dict(n_references=2000, policies=("owner",))


class TestExperimentSpec:
    def test_json_round_trip(self):
        spec = ExperimentSpec(
            name="rt",
            kind="runtime",
            workloads=("oltp", "apache"),
            n_references=5000,
            seeds=(1, 2),
            policies=("owner", "group"),
            predictor_config=PredictorConfig(n_entries=None),
            system_config=SystemConfig(n_processors=8),
            processor_model="detailed",
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.predictor_config.unbounded
        assert restored.system_config.n_processors == 8

    def test_from_dict_partial_configs(self):
        spec = ExperimentSpec.from_dict(
            {
                "workloads": ["ocean"],
                "predictor_config": {"n_entries": None},
                "system_config": {"n_processors": 4},
            }
        )
        assert spec.predictor_config.unbounded
        # Unnamed fields keep their defaults.
        assert spec.predictor_config.index_granularity == 1024
        assert spec.system_config.n_processors == 4
        assert spec.kind == "tradeoff"

    def test_sequences_normalized_to_tuples(self):
        spec = ExperimentSpec(
            workloads=["ocean"], seeds=[1], policies=["owner"]
        )
        assert spec.workloads == ("ocean",)
        assert spec.seeds == (1,)
        assert spec == ExperimentSpec(
            workloads=("ocean",), seeds=(1,), policies=("owner",)
        )

    def test_expand_cross_product(self):
        spec = ExperimentSpec(
            workloads=("ocean", "oltp"), seeds=(1, 2, 3)
        )
        jobs = spec.expand()
        # Per-label cells: 2 workloads x 3 seeds x (2 baselines + 4
        # paper policies).
        labels = ("directory", "broadcast-snooping") + spec.policies
        assert spec.n_jobs == len(jobs) == 6 * len(labels)
        assert [j.index for j in jobs] == list(range(len(jobs)))
        assert {(j.workload, j.seed, j.label) for j in jobs} == {
            (w, s, label)
            for w in ("ocean", "oltp")
            for s in (1, 2, 3)
            for label in labels
        }

    def test_expand_label_cells_by_kind(self):
        tradeoff = ExperimentSpec(
            workloads=("ocean",), policies=("owner",),
            include_baselines=False,
        )
        assert tradeoff.cell_labels() == ("owner",)
        # Runtime always carries its normalization baselines.
        runtime = ExperimentSpec(
            workloads=("ocean",), kind="runtime", policies=("owner",),
            include_baselines=False,
        )
        assert runtime.cell_labels() == (
            "directory", "broadcast-snooping", "owner",
        )
        accuracy = ExperimentSpec(
            workloads=("ocean",), kind="accuracy", policies=("owner",)
        )
        assert accuracy.cell_labels() == ("owner",)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(workloads=("nope",)), "unknown workload"),
            (dict(workloads=()), "at least one workload"),
            (dict(workloads=("ocean",), kind="nope"), "unknown kind"),
            (
                dict(workloads=("ocean",), policies=("nope",)),
                "unknown policy",
            ),
            (
                dict(workloads=("ocean",), n_references=0),
                "n_references",
            ),
            (
                dict(workloads=("ocean",), warmup_fraction=1.0),
                "warmup_fraction",
            ),
            (
                dict(workloads=("ocean",), max_outstanding=0),
                "max_outstanding",
            ),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(**kwargs)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            ExperimentSpec.from_dict(
                {"workloads": ["ocean"], "worklods": ["oltp"]}
            )
        with pytest.raises(ValueError, match="unknown PredictorConfig"):
            ExperimentSpec.from_dict(
                {
                    "workloads": ["ocean"],
                    "predictor_config": {"entries": 64},
                }
            )

    def test_digest_stable_and_sensitive(self):
        a = ExperimentSpec(workloads=("ocean",))
        b = ExperimentSpec(workloads=("ocean",))
        c = ExperimentSpec(workloads=("oltp",))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestBandwidthAxis:
    def test_expand_nests_bandwidth_between_seed_and_label(self):
        spec = bandwidth_sweep(
            ("ocean",), (10.0, 1.0), policies=("owner",)
        )
        jobs = spec.expand()
        assert spec.kind == "runtime"
        assert spec.n_jobs == len(jobs) == 2 * 3  # 2 bw x 3 labels
        assert [j.bandwidth for j in jobs] == [10.0] * 3 + [1.0] * 3
        assert [j.index for j in jobs] == list(range(len(jobs)))

    def test_job_config_substitutes_bandwidth_only(self):
        spec = bandwidth_sweep(("ocean",), (2.0,), policies=("owner",))
        job = spec.expand()[0]
        config = spec.job_config(job)
        assert config.link_bandwidth_bytes_per_ns == 2.0
        assert config == dataclasses.replace(
            spec.system_config, link_bandwidth_bytes_per_ns=2.0
        )
        # Without the axis, the spec's config is returned unchanged
        # (identity, so default runs cannot drift).
        plain = ExperimentSpec(workloads=("ocean",), kind="runtime")
        assert plain.job_config(plain.expand()[0]) is plain.system_config

    def test_round_trip_preserves_axis(self):
        spec = bandwidth_sweep(
            ("ocean",), (10.0, 2.5, 1.0, 0.25), policies=("owner",)
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.link_bandwidths == (10.0, 2.5, 1.0, 0.25)

    def test_old_spec_json_defaults_to_no_axis_and_crossbar(self):
        # A pre-interconnect spec file has neither key; it must load
        # with today's crossbar defaults so cached results stay valid.
        spec = ExperimentSpec.from_dict(
            {"workloads": ["ocean"], "kind": "runtime"}
        )
        assert spec.link_bandwidths == ()
        assert spec.system_config.interconnect == "crossbar"

    def test_axis_requires_runtime_kind(self):
        with pytest.raises(ValueError, match="kind='runtime'"):
            ExperimentSpec(
                workloads=("ocean",), link_bandwidths=(1.0,)
            )

    def test_rejects_non_positive_bandwidths(self):
        with pytest.raises(ValueError, match="positive"):
            bandwidth_sweep(("ocean",), (10.0, 0.0))

    def test_rejects_unknown_interconnect(self):
        with pytest.raises(ValueError, match="unknown interconnect"):
            ExperimentSpec(
                workloads=("ocean",),
                system_config=SystemConfig(interconnect="warp"),
            )

    def test_sweep_produces_per_bandwidth_curves(self, tmp_path):
        spec = bandwidth_sweep(
            ("ocean",), (10.0, 0.5), n_references=2000,
            policies=("owner",),
        )
        results = Runner(jobs=1).run(spec)
        assert len(results) == 6
        assert results.has_bandwidth_axis()
        # Normalization is per bandwidth point: directory == 100 at
        # every link size, not just the spec default.
        for record in results:
            assert record.bandwidth in (10.0, 0.5)
            if record.label == "directory":
                assert record["normalized_runtime"] == pytest.approx(
                    100.0
                )
        curves = results.bandwidth_curves("runtime_ns")
        assert set(curves) == {
            "directory", "broadcast-snooping", "owner",
        }
        for points in curves.values():
            assert [bandwidth for bandwidth, _ in points] == [0.5, 10.0]
            assert all(value > 0 for _, value in points)
        # The axis round-trips through ResultSet JSON.
        restored = ResultSet.from_json(results.to_json())
        assert restored == results
        assert restored.bandwidth_curves("runtime_ns") == curves
        # ...and lands in the tidy exports.
        assert "bandwidth" in results.table().splitlines()[0]
        path = tmp_path / "curves.csv"
        results.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("workload,seed,label,bandwidth,")

    def test_curves_average_across_seeds(self):
        records = [
            ResultRecord(
                workload="ocean", seed=seed, label="owner",
                bandwidth=bandwidth,
                metrics={"runtime_ns": value},
            )
            for seed, bandwidth, value in (
                (1, 10.0, 100.0), (2, 10.0, 300.0),
                (1, 1.0, 500.0), (2, 1.0, 700.0),
            )
        ]
        spec = bandwidth_sweep(
            ("ocean",), (10.0, 1.0), seeds=(1, 2), policies=("owner",)
        )
        results = ResultSet(spec, records)
        # One averaged value per bandwidth point, not one per seed.
        assert results.bandwidth_curves("runtime_ns") == {
            "owner": [(1.0, 600.0), (10.0, 200.0)],
        }

    def test_parallel_matches_serial_with_axis(self, tmp_path):
        spec = bandwidth_sweep(
            ("ocean",), (10.0, 0.5), n_references=2000,
            policies=("owner",),
        )
        serial = Runner(jobs=1, cache_dir=tmp_path / "s").run(spec)
        parallel = Runner(jobs=2, cache_dir=tmp_path / "p").run(spec)
        assert serial == parallel
        # Bandwidth cells share one trace: a two-point sweep of one
        # (workload, seed) generates exactly one cache entry.
        assert serial.cache_stats.misses == 1

    def test_tree_interconnect_spec_runs(self):
        spec = ExperimentSpec(
            workloads=("ocean",),
            kind="runtime",
            n_references=2000,
            policies=("owner",),
            system_config=SystemConfig(interconnect="tree"),
        )
        results = run_experiment(spec)
        assert len(results) == 3
        assert not results.has_bandwidth_axis()


class TestTraceCache:
    def test_store_load_round_trip(self, tmp_path):
        corpus = PersistentTraceCorpus(cache_dir=tmp_path)
        first = corpus.collect("ocean", 2000, seed=7)
        assert corpus.cache_stats.misses == 1
        assert corpus.cache_stats.hits == 0

        # A fresh corpus (fresh process stand-in) hits the disk.
        warm = PersistentTraceCorpus(cache_dir=tmp_path)
        second = warm.collect("ocean", 2000, seed=7)
        assert warm.cache_stats.hits == 1
        assert warm.cache_stats.misses == 0
        assert list(second.trace) == list(first.trace)
        assert second.trace.name == first.trace.name
        assert second.trace.n_processors == first.trace.n_processors
        assert second.instructions == first.instructions
        assert second.references == first.references

    def test_memory_layer_shields_disk(self, tmp_path):
        corpus = PersistentTraceCorpus(cache_dir=tmp_path)
        corpus.collect("ocean", 2000)
        corpus.collect("ocean", 2000)
        # Second call is an in-memory hit: no extra disk lookups.
        assert corpus.cache_stats.lookups == 1

    def test_config_change_invalidates(self, tmp_path):
        PersistentTraceCorpus(cache_dir=tmp_path).collect("ocean", 2000)
        small = PersistentTraceCorpus(
            config=SystemConfig(n_processors=4), cache_dir=tmp_path
        )
        small.collect("ocean", 2000)
        # Different system config => different key => regeneration.
        assert small.cache_stats.misses == 1
        assert small.cache_stats.hits == 0

    def test_refs_and_seed_are_part_of_key(self, tmp_path):
        config = SystemConfig()
        key = TraceCache.key("ocean", 2000, 42, config)
        assert key != TraceCache.key("ocean", 2001, 42, config)
        assert key != TraceCache.key("ocean", 2000, 43, config)
        assert key != TraceCache.key("oltp", 2000, 42, config)
        assert key == TraceCache.key("ocean", 2000, 42, SystemConfig())

    def test_pre_refactor_keys_still_resolve(self):
        """Cache keys minted before the interconnect fields existed
        are reproduced exactly (hard-coded digests captured at the
        preceding commit), so existing corpora stay warm without a
        CACHE_FORMAT bump."""
        assert (
            TraceCache.key("ocean", 2000, 42, SystemConfig())
            == "868d8a94c6077e4f7cccc471"
        )
        assert (
            TraceCache.key(
                "oltp", 60000, 42,
                SystemConfig(link_bandwidth_bytes_per_ns=1.0),
            )
            == "0de2ee87c86f135206f94480"
        )

    def test_timing_only_fields_do_not_shape_keys(self):
        """Interconnect kind and hop latency never change which
        references miss, so they share the default config's trace."""
        default = TraceCache.key("ocean", 2000, 42, SystemConfig())
        for config in (
            SystemConfig(interconnect="tree"),
            SystemConfig(interconnect="ideal", hop_latency_ns=2.0),
        ):
            assert TraceCache.key("ocean", 2000, 42, config) == default
        # Trace-shaping fields still invalidate.
        assert (
            TraceCache.key(
                "ocean", 2000, 42, SystemConfig(n_processors=8)
            )
            != default
        )

    def test_corrupt_entry_regenerates(self, tmp_path):
        corpus = PersistentTraceCorpus(cache_dir=tmp_path)
        corpus.collect("ocean", 2000)
        for path in tmp_path.iterdir():
            path.write_text("garbage")
        rebuilt = PersistentTraceCorpus(cache_dir=tmp_path)
        result = rebuilt.collect("ocean", 2000)
        assert rebuilt.cache_stats.misses == 1
        assert len(result.trace) > 0

    def test_clear(self, tmp_path):
        corpus = PersistentTraceCorpus(cache_dir=tmp_path)
        corpus.collect("ocean", 2000)
        assert corpus.disk.clear() == 2  # .bin2 + .json
        assert corpus.disk.load(
            TraceCache.key("ocean", 2000, 42, corpus.config)
        ) is None


class TestRunner:
    def test_parallel_matches_serial(self, tmp_path):
        spec = ExperimentSpec(
            workloads=("ocean", "barnes-hut"), kind="tradeoff", **SMALL
        )
        serial = Runner(jobs=1, cache_dir=tmp_path / "c1").run(spec)
        parallel = Runner(jobs=2, cache_dir=tmp_path / "c2").run(spec)
        assert serial == parallel
        assert [r.to_dict() for r in serial] == [
            r.to_dict() for r in parallel
        ]

    def test_parallel_reuses_disk_cache(self, tmp_path):
        spec = ExperimentSpec(
            workloads=("ocean", "barnes-hut"), kind="tradeoff", **SMALL
        )
        cold = Runner(jobs=2, cache_dir=tmp_path).run(spec)
        assert cold.cache_stats.misses == 2
        warm = Runner(jobs=2, cache_dir=tmp_path).run(spec)
        assert warm.cache_stats.hits == 2
        assert warm.cache_stats.misses == 0
        assert warm == cold

    def test_without_cache_dir_stays_in_memory(self, tmp_path):
        spec = ExperimentSpec(workloads=("ocean",), **SMALL)
        results = Runner(jobs=1).run(spec)
        assert results.cache_stats.lookups == 0
        assert len(results) == 3  # two baselines + owner

    def test_runtime_kind_includes_baselines(self):
        spec = ExperimentSpec(
            workloads=("ocean",), kind="runtime", **SMALL
        )
        results = run_experiment(spec)
        assert results.labels() == [
            "directory", "broadcast-snooping", "owner",
        ]
        directory = results.records[0]
        assert directory["normalized_runtime"] == pytest.approx(100.0)

    def test_accuracy_kind(self):
        spec = ExperimentSpec(
            workloads=("ocean",), kind="accuracy", **SMALL
        )
        results = run_experiment(spec)
        assert results.labels() == ["owner"]
        record = results.records[0]
        assert 0.0 <= record["coverage_pct"] <= 100.0
        assert record["predictions"] > 0

    def test_shared_corpus_injection(self, config16):
        corpus_spec = ExperimentSpec(workloads=("ocean",), **SMALL)
        corpus = PersistentTraceCorpus(config16, cache_dir=None)
        # cache_dir=None would normally mean "no disk"; explicit corpus
        # wins over the runner's own construction.
        runner = Runner(corpus=corpus)
        runner.run(corpus_spec)
        assert corpus.cache_stats.lookups == 1

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            Runner(jobs=0)

    def test_jobs_none_resolves_to_available_cpus(self, monkeypatch):
        import repro.experiment.runner as runner_module

        monkeypatch.setattr(
            runner_module.os, "sched_getaffinity",
            lambda pid: set(range(6)), raising=False,
        )
        assert runner_module.default_jobs() == 6
        assert Runner(jobs=None).jobs == 6
        # Explicit values are never overridden by the adaptive default.
        assert Runner(jobs=2).jobs == 2

    def test_default_jobs_falls_back_to_cpu_count(self, monkeypatch):
        import repro.experiment.runner as runner_module

        monkeypatch.delattr(
            runner_module.os, "sched_getaffinity", raising=False
        )
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: 4)
        assert runner_module.default_jobs() == 4
        monkeypatch.setattr(runner_module.os, "cpu_count", lambda: None)
        assert runner_module.default_jobs() == 1

    def test_process_pool_rejects_injected_corpus(self):
        # The thread executor shares an injected corpus directly;
        # only the process pool (which would have to pickle it) still
        # rejects one, pointing at the alternatives.
        spec = ExperimentSpec(
            workloads=("ocean", "barnes-hut"), **SMALL
        )
        runner = Runner(
            jobs=2, executor="processes", corpus=PersistentTraceCorpus()
        )
        with pytest.raises(ValueError, match="injected corpus"):
            runner.run(spec)

    def test_max_outstanding_round_trips_and_changes_results(self):
        base = ExperimentSpec(
            workloads=("ocean",), kind="runtime", **SMALL
        )
        wide = dataclasses.replace(base, max_outstanding=8)
        assert ExperimentSpec.from_json(wide.to_json()) == wide
        assert wide.digest() != base.digest()


class TestResultSet:
    @pytest.fixture
    def results(self):
        spec = ExperimentSpec(workloads=("ocean",), **SMALL)
        return run_experiment(spec)

    def test_json_round_trip(self, results, tmp_path):
        path = tmp_path / "results.json"
        results.to_json(path)
        restored = ResultSet.from_json(path)
        assert restored == results
        # Text form round-trips too.
        assert ResultSet.from_json(results.to_json()) == results

    def test_csv_export(self, results, tmp_path):
        path = tmp_path / "results.csv"
        results.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("workload,seed,label,")
        assert len(lines) == 1 + len(results)
        assert lines[1].startswith("ocean,42,directory,")

    def test_rows_and_table(self, results):
        rows = results.rows()
        assert rows[0]["workload"] == "ocean"
        assert "indirection_pct" in rows[0]
        text = results.table()
        assert "broadcast-snooping" in text
        assert "indirection_pct" in text

    def test_tradeoff_points_conversion(self, results):
        points = results.tradeoff_points()
        assert [p.label for p in points] == results.labels()
        assert all(isinstance(p.misses, int) for p in points)

    def test_equality_ignores_cache_stats(self, results):
        clone = ResultSet.from_dict(results.to_dict())
        clone.cache_stats.hits += 5
        assert clone == results

    def test_record_metrics_access(self):
        record = ResultRecord(
            workload="ocean", seed=1, label="owner",
            metrics={"x": 1.0},
        )
        assert record["x"] == 1.0
        assert record.to_dict()["metrics"] == {"x": 1.0}
        assert ResultRecord.from_dict(record.to_dict()) == record


class TestGracefulFailure:
    """A raising cell is retried once, then reported — never fatal."""

    @staticmethod
    def _flaky(real, fail_labels, times):
        """Wrap execute_job to fail ``times`` times for some labels."""
        budget = dict.fromkeys(fail_labels, times)

        def fake(spec, job, corpus):
            if budget.get(job.label, 0) > 0:
                budget[job.label] -= 1
                raise RuntimeError(f"injected fault in {job.label}")
            return real(spec, job, corpus)

        return fake

    def test_transient_fault_is_retried_and_succeeds(
        self, monkeypatch
    ):
        import repro.experiment.runner as runner_module

        spec = ExperimentSpec(workloads=("ocean",), **SMALL)
        reference = Runner(jobs=1).run(spec)
        monkeypatch.setattr(
            runner_module, "execute_job",
            self._flaky(runner_module.execute_job, ("owner",), 1),
        )
        results = Runner(jobs=1).run(spec)
        assert results.failures == []
        assert results == reference

    def test_persistent_fault_reported_not_fatal(self, monkeypatch):
        import repro.experiment.runner as runner_module
        from repro.experiment import CellFailure

        spec = ExperimentSpec(workloads=("ocean",), **SMALL)
        monkeypatch.setattr(
            runner_module, "execute_job",
            self._flaky(runner_module.execute_job, ("owner",), 99),
        )
        results = Runner(jobs=1).run(spec)
        # The sweep completed: baselines present, owner absent but
        # reported as structured failure metadata with the traceback.
        assert results.labels() == ["directory", "broadcast-snooping"]
        assert len(results.failures) == 1
        failure = results.failures[0]
        assert isinstance(failure, CellFailure)
        assert failure.label == "owner"
        assert failure.attempts == 2  # initial + one retry
        assert "injected fault" in failure.error
        assert "RuntimeError" in failure.traceback
        assert failure.to_dict()["workload"] == "ocean"

    def test_failures_excluded_from_serialization_and_equality(
        self, monkeypatch
    ):
        import repro.experiment.runner as runner_module

        spec = ExperimentSpec(workloads=("ocean",), **SMALL)
        monkeypatch.setattr(
            runner_module, "execute_job",
            self._flaky(runner_module.execute_job, ("owner",), 99),
        )
        results = Runner(jobs=1).run(spec)
        clone = ResultSet.from_dict(results.to_dict())
        assert clone.failures == []  # run metadata, like perf/cache
        assert clone == results
        assert "failures" not in results.to_dict()

    def test_runtime_missing_baseline_does_not_crash(
        self, monkeypatch
    ):
        import repro.experiment.runner as runner_module

        spec = ExperimentSpec(
            workloads=("ocean",), kind="runtime", **SMALL
        )
        monkeypatch.setattr(
            runner_module, "execute_job",
            self._flaky(
                runner_module.execute_job, ("directory",), 99
            ),
        )
        # The directory baseline failed; normalization must degrade
        # (0.0 = "no baseline" convention) instead of KeyError.
        results = Runner(jobs=1).run(spec)
        assert len(results.failures) == 1
        assert results.failures[0].label == "directory"
        for record in results.records:
            assert record["normalized_runtime"] == pytest.approx(0.0)


class TestThreadedRunner:
    """``executor='threads'``: byte identity with serial everywhere.

    The thread pool shares one in-memory corpus and reassembles in
    canonical job order, so on every registered backend — pure, numpy,
    and the GIL-releasing native kernels — a threaded sweep must equal
    the serial one down to the serialized JSON bytes, for every
    protocol and predictor the spec expands to.
    """

    ALL_POLICIES = (
        "owner", "broadcast-if-shared", "group", "owner-group",
        "sticky-spatial",
    )

    @pytest.fixture(params=("pure", "numpy", "native"))
    def unified_backend(self, request):
        from repro import kernels
        from repro.common import backend as _backend

        name = request.param
        if name not in kernels.available_backends():
            pytest.skip(f"{name} backend unavailable on this machine")
        _backend.set_backend(name)
        yield name
        _backend.set_backend("auto")

    def test_threads_match_serial_every_protocol(self, unified_backend):
        spec = ExperimentSpec(
            workloads=("ocean", "barnes-hut"),
            kind="tradeoff",
            n_references=2000,
            policies=self.ALL_POLICIES,
        )
        serial = Runner(jobs=1).run(spec)
        threaded = Runner(jobs=4, executor="threads").run(spec)
        assert serial == threaded
        assert serial.to_json() == threaded.to_json()

    def test_runtime_threads_match_serial(self, unified_backend):
        # Runtime sweeps normalize during reassembly; canonical-order
        # reassembly must make that path thread-order independent too.
        spec = ExperimentSpec(
            workloads=("ocean",),
            kind="runtime",
            n_references=2000,
            policies=("owner", "group"),
            seeds=(1, 2),
        )
        serial = Runner(jobs=1).run(spec)
        threaded = Runner(jobs=4, executor="threads").run(spec)
        assert serial == threaded
        assert serial.to_json() == threaded.to_json()

    def test_injected_corpus_shared_across_threads(self):
        from repro.evaluation.corpus import TraceCorpus

        spec = ExperimentSpec(
            workloads=("ocean", "barnes-hut"), seeds=(1, 2), **SMALL
        )
        corpus = TraceCorpus(spec.system_config)
        threaded = Runner(
            jobs=4, executor="threads", corpus=corpus
        ).run(spec)
        assert not threaded.failures
        # One generation per unique (workload, seed) cell, shared by
        # every label cell of the sweep.
        assert len(corpus._cache) == 4
        assert threaded == Runner(jobs=1, corpus=corpus).run(spec)

    def test_resolved_executor_follows_backend(self):
        from repro import kernels
        from repro.common import backend as _backend

        assert Runner(jobs=2, executor="threads").resolved_executor() \
            == "threads"
        assert Runner(jobs=2, executor="processes").resolved_executor() \
            == "processes"
        if "native" in kernels.available_backends():
            _backend.set_backend("native")
            try:
                assert Runner(jobs=2).resolved_executor() == "threads"
            finally:
                _backend.set_backend("auto")
        _backend.set_backend("pure")
        try:
            assert Runner(jobs=2).resolved_executor() == "processes"
        finally:
            _backend.set_backend("auto")

    def test_rejects_bad_executor(self):
        with pytest.raises(ValueError, match="executor"):
            Runner(jobs=2, executor="fibers")
