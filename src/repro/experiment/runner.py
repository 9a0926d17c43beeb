"""Spec execution: serial, thread-parallel, or process-parallel fan-out.

:class:`Runner` expands an :class:`ExperimentSpec` into independent
jobs — one per (workload, seed, configuration label) cell — and
executes them in process (``jobs=1`` — bit-identical to the
historical hand-rolled loops), across a
:class:`concurrent.futures.ThreadPoolExecutor`
(``executor="threads"``), or across a
:class:`concurrent.futures.ProcessPoolExecutor`
(``executor="processes"``).  Every path runs the same
:func:`execute_job` function, and results are reassembled in
canonical job order, so a parallel run produces a :class:`ResultSet`
equal to the serial one.

Threads vs processes: the native kernels release the GIL around their
compute phases, so with the native backend active threaded cells run
concurrently on one shared in-memory :class:`TraceCorpus` — zero
pickling, zero per-cell disk loads — and ``executor=None`` resolves
to threads in that case.  The pure tier holds the GIL for the
whole replay, so it defaults to the process pool, which shares
traces through the on-disk cache instead (a warm phase generates one
task per unique (workload, seed), then the label cells load the
memoized trace).  Runtime sweeps evaluate raw per-label results in
the cells and normalize (directory=100, snooping=100) during
reassembly.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import shutil
import tempfile
import time
import traceback as traceback_module
from typing import Dict, List, Optional, Tuple, Union

from repro import kernels as _kernels
from repro.analysis.accuracy import prediction_accuracy
from repro.common import backend as _backend
from repro.evaluation.corpus import TraceCorpus
from repro.evaluation.runtime import (
    evaluate_runtime_raw,
    make_protocol,
    normalized_runtime_metrics,
)
from repro.evaluation.tradeoff import evaluate_protocol
from repro.experiment.cache import (
    CacheStats,
    PersistentTraceCorpus,
    make_corpus,
)
from repro.experiment.results import (
    CellFailure,
    PerfStats,
    ResultRecord,
    ResultSet,
)
from repro.experiment.spec import ExperimentSpec, Job

PathLike = Union[str, "os.PathLike[str]"]


def default_jobs() -> int:
    """The adaptive worker count used when ``jobs`` is ``None``.

    One worker per CPU core *available to this process* — the
    scheduling affinity where the platform reports it (so cgroup- or
    ``taskset``-restricted environments are not oversubscribed),
    falling back to ``os.cpu_count()``.  Single-core boxes (and
    platforms where the count is unknown) resolve to the serial
    runner.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - platform specific
            pass
    return max(1, os.cpu_count() or 1)


def execute_job(
    spec: ExperimentSpec, job: Job, corpus: TraceCorpus
) -> "Tuple[List[ResultRecord], int]":
    """Evaluate one (workload, seed, label) cell of ``spec``.

    This is the single execution path shared by the serial runner and
    the process-pool workers; determinism of the whole sweep reduces
    to determinism of this function.  Returns the cell's result
    records plus the number of trace records it replayed.  Runtime
    cells return *raw* metrics; the runner normalizes each
    (workload, seed) group once all of its cells are in.
    """
    trace = corpus.trace(job.workload, spec.n_references, job.seed)
    label = job.label
    records: List[ResultRecord] = []
    if spec.kind == "tradeoff":
        protocol = make_protocol(
            label, spec.system_config, spec.predictor_config
        )
        point = evaluate_protocol(
            protocol,
            trace,
            label=label,
            warmup_fraction=spec.warmup_fraction,
        )
        records.append(
            ResultRecord(
                workload=job.workload,
                seed=job.seed,
                label=label,
                metrics={
                    "indirection_pct": point.indirection_pct,
                    "request_messages_per_miss": (
                        point.request_messages_per_miss
                    ),
                    "traffic_bytes_per_miss": point.traffic_bytes_per_miss,
                    "average_latency_ns": point.average_latency_ns,
                    "misses": point.misses,
                    "retries": point.retries,
                },
            )
        )
    elif spec.kind == "runtime":
        # Timing cells honour the job's bandwidth point (identity
        # outside a bandwidth sweep); the trace above is always loaded
        # under the spec's base config, because trace generation is
        # timing-blind — every bandwidth cell shares one trace.
        result = evaluate_runtime_raw(
            trace,
            label,
            config=spec.job_config(job),
            predictor_config=spec.predictor_config,
            processor_model=spec.processor_model,
            max_outstanding=spec.max_outstanding,
            warmup_fraction=spec.warmup_fraction,
        )
        records.append(
            ResultRecord(
                workload=job.workload,
                seed=job.seed,
                label=label,
                bandwidth=job.bandwidth,
                metrics={
                    "runtime_ns": result.runtime_ns,
                    "traffic_bytes_per_miss": (
                        result.traffic_bytes_per_miss
                    ),
                    "indirection_pct": result.indirection_pct,
                    "queue_ns_per_miss": result.queue_ns_per_miss,
                },
            )
        )
    else:  # accuracy
        report = prediction_accuracy(
            trace,
            label,
            config=spec.system_config,
            predictor_config=spec.predictor_config,
            warmup_fraction=spec.warmup_fraction,
        )
        records.append(
            ResultRecord(
                workload=job.workload,
                seed=job.seed,
                label=label,
                metrics={
                    "coverage_pct": report.coverage_pct,
                    "precision_pct": report.precision_pct,
                    "predictions": report.predictions,
                    **{
                        f"{outcome.value}_pct": report.outcome_pct(outcome)
                        for outcome in report.outcomes
                    },
                },
            )
        )
    return records, len(trace)


def run_cell(
    spec: ExperimentSpec, job: Job, corpus: TraceCorpus
) -> "Tuple[List[ResultRecord], int, Optional[CellFailure]]":
    """:func:`execute_job` with the runner's graceful-failure contract.

    A cell that raises is retried once (transient trouble — a racing
    cache writer, a flaky mount — usually clears); a second failure
    is converted into a :class:`CellFailure` carrying the traceback,
    so one bad cell no longer aborts a whole sweep mid-pool.
    """
    failure: Optional[CellFailure] = None
    for attempt in (1, 2):
        try:
            records, processed = execute_job(spec, job, corpus)
            return records, processed, None
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            failure = CellFailure(
                workload=job.workload,
                seed=job.seed,
                label=job.label,
                bandwidth=job.bandwidth,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback_module.format_exc(),
                attempts=attempt,
            )
    return [], 0, failure


def _normalize_runtime_records(
    spec: ExperimentSpec, records: List[ResultRecord]
) -> List[ResultRecord]:
    """Normalize raw runtime cells per (workload, seed, bandwidth).

    Applies :func:`repro.evaluation.runtime.normalized_runtime_metrics`
    (the same formulas :func:`normalize_runtime_points` uses):
    runtime normalized to directory=100, traffic per miss to
    broadcast-snooping=100.  Bandwidth-sweep cells normalize against
    the baselines *at their own bandwidth point*, so each point of a
    curve answers "who wins at this link size".
    """
    if spec.kind != "runtime":
        return records
    Key = Tuple[str, int, Optional[float]]
    baselines: Dict[Key, Tuple[float, float]] = {}
    for record in records:
        cell = (record.workload, record.seed, record.bandwidth)
        if record.label == "directory":
            runtime = record["runtime_ns"]
            baselines[cell] = (
                runtime, baselines.get(cell, (0.0, 0.0))[1]
            )
        elif record.label == "broadcast-snooping":
            traffic = record["traffic_bytes_per_miss"]
            baselines[cell] = (
                baselines.get(cell, (0.0, 0.0))[0], traffic
            )
    normalized = []
    for record in records:
        # A failed baseline cell leaves its group without a reference
        # point; the group's records then normalize to 0.0 (the
        # helper's "no baseline" convention) instead of crashing the
        # reassembly of every other cell.
        directory_runtime, snooping_traffic = baselines.get(
            (record.workload, record.seed, record.bandwidth), (0.0, 0.0)
        )
        metrics = record.metrics
        normalized_runtime, normalized_traffic = (
            normalized_runtime_metrics(
                metrics["runtime_ns"],
                metrics["traffic_bytes_per_miss"],
                directory_runtime,
                snooping_traffic,
            )
        )
        normalized.append(
            ResultRecord(
                workload=record.workload,
                seed=record.seed,
                label=record.label,
                bandwidth=record.bandwidth,
                metrics={
                    "normalized_runtime": normalized_runtime,
                    "normalized_traffic_per_miss": normalized_traffic,
                    "runtime_ns": metrics["runtime_ns"],
                    "traffic_bytes_per_miss": (
                        metrics["traffic_bytes_per_miss"]
                    ),
                    "indirection_pct": metrics["indirection_pct"],
                    "queue_ns_per_miss": metrics["queue_ns_per_miss"],
                },
            )
        )
    return normalized


def normalize_records(
    spec: ExperimentSpec, records: List[ResultRecord]
) -> List[ResultRecord]:
    """Public reassembly hook: canonical-order records → final records.

    The runner and the distributed fabric share this one path, so a
    sweep reassembled from fabric result-store artifacts is
    byte-identical to a serial in-process run of the same spec.
    """
    return _normalize_runtime_records(spec, records)


def _reset_native_tallies() -> None:
    _kernels.reset_decline_counts()
    _kernels.reset_phase_totals()


def _native_tallies() -> Tuple[Dict[str, int], Dict[str, int]]:
    """The native decline and phase tallies since the last reset (an
    empty phase dict when no native replay ran)."""
    phases = _kernels.phase_totals()
    return _kernels.decline_counts(), phases if any(phases.values()) else {}


def _merge_counts(total: Dict[str, int], part: Dict[str, int]) -> None:
    for key, count in part.items():
        total[key] = total.get(key, 0) + count


def _run_job_worker(
    spec_dict: dict, index: int, cache_dir: Optional[str]
) -> Tuple[
    int, List[dict], int, Optional[dict], Dict[str, int], Dict[str, int]
]:
    """Process-pool entry point (module-level, hence picklable).

    Returns the cell's own native decline and phase tallies too: a
    worker process counts in its own copy of them, so the parent
    merges what each cell reports.
    """
    spec = ExperimentSpec.from_dict(spec_dict)
    corpus = make_corpus(spec.system_config, cache_dir)
    _reset_native_tallies()
    records, processed, failure = run_cell(
        spec, spec.expand()[index], corpus
    )
    declines, phases = _native_tallies()
    return (
        index,
        [r.to_dict() for r in records],
        processed,
        dataclasses.asdict(failure) if failure is not None else None,
        declines,
        phases,
    )


def _warm_trace_worker(
    spec_dict: dict, workload: str, seed: int, cache_dir: str
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Ensure one (workload, seed) trace is in the disk cache.

    Returns the corpus' cache counters and the native declines of the
    collection (a collector decline happens here, not in the cells).
    A generation failure here is swallowed: the label cells that need
    the trace will hit the same error and report it through the
    graceful per-cell path, instead of the warm phase aborting the
    pool before any cell has run.
    """
    spec = ExperimentSpec.from_dict(spec_dict)
    corpus = make_corpus(spec.system_config, cache_dir)
    _reset_native_tallies()
    try:
        corpus.trace(workload, spec.n_references, seed)
    except Exception:  # noqa: BLE001 - the cells re-raise and report
        pass
    assert isinstance(corpus, PersistentTraceCorpus)
    return corpus.cache_stats.to_dict(), _kernels.decline_counts()


class Runner:
    """Executes :class:`ExperimentSpec` instances.

    ``jobs=1`` runs everything in the calling process; ``jobs>1`` fans
    the spec's per-label cells out over workers; ``jobs=None``
    resolves adaptively to one worker per CPU core
    (:func:`default_jobs`).

    ``executor`` picks the worker kind: ``"threads"`` shares one
    in-memory :class:`TraceCorpus` across a thread pool (scales only
    when the native backend is active — its kernels release the GIL
    around compute), ``"processes"`` is the historical process pool,
    and ``None`` resolves to threads when the native backend is
    active and to processes otherwise.

    Pass ``cache_dir`` to persist (and reuse) collected traces on
    disk, or a pre-built ``corpus`` to share in-memory traces with
    other work.  An injected corpus is a single-process object: the
    thread executor shares it directly, while the process executor
    rejects it — multi-process runs share traces through ``cache_dir``
    (an ephemeral directory is used when none is configured, so traces
    are still generated only once per run).
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache_dir: Optional[PathLike] = None,
        corpus: Optional[TraceCorpus] = None,
        executor: Optional[str] = None,
    ):
        if jobs is None:
            jobs = default_jobs()
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if executor not in (None, "auto", "threads", "processes"):
            raise ValueError(
                "executor must be 'threads', 'processes', or None"
            )
        self.jobs = jobs
        self.cache_dir = (
            os.fspath(cache_dir) if cache_dir is not None else None
        )
        self.corpus = corpus
        self.executor = None if executor == "auto" else executor

    # ------------------------------------------------------------------
    def resolved_executor(self) -> str:
        """The worker kind ``run`` will use when ``jobs > 1``."""
        if self.executor is not None:
            return self.executor
        return "threads" if _backend.native_active() else "processes"

    def run(self, spec: ExperimentSpec) -> ResultSet:
        """Execute ``spec`` and return its :class:`ResultSet`."""
        jobs = spec.expand()
        if self.jobs == 1 or len(jobs) <= 1:
            return self._run_serial(spec, jobs)
        if self.resolved_executor() == "threads":
            return self._run_threads(spec, jobs)
        if self.corpus is not None:
            raise ValueError(
                "an injected corpus cannot be shared across worker "
                "processes; use cache_dir, jobs=1, or "
                "executor='threads' instead"
            )
        return self._run_parallel(spec, jobs)

    # ------------------------------------------------------------------
    def _make_corpus(self, spec: ExperimentSpec) -> TraceCorpus:
        if self.corpus is not None:
            return self.corpus
        return make_corpus(spec.system_config, self.cache_dir)

    def _run_serial(
        self, spec: ExperimentSpec, jobs: Tuple[Job, ...]
    ) -> ResultSet:
        corpus = self._make_corpus(spec)
        records: List[ResultRecord] = []
        failures: List[CellFailure] = []
        processed = 0
        started = time.perf_counter()
        _reset_native_tallies()
        for job in jobs:
            job_records, job_processed, failure = run_cell(
                spec, job, corpus
            )
            records.extend(job_records)
            processed += job_processed
            if failure is not None:
                failures.append(failure)
        records = _normalize_runtime_records(spec, records)
        elapsed = time.perf_counter() - started
        stats = CacheStats()
        if isinstance(corpus, PersistentTraceCorpus):
            stats.merge(corpus.cache_stats)
        return ResultSet(
            spec, records, stats,
            PerfStats(
                processed, elapsed, _backend.backend_name(),
                *_native_tallies(),
            ),
            failures=failures,
        )

    def _run_threads(
        self, spec: ExperimentSpec, jobs: Tuple[Job, ...]
    ) -> ResultSet:
        """Fan cells out over threads sharing one in-memory corpus.

        Every thread replays against the same :class:`TraceCorpus`
        object — no pickling, no per-cell disk loads.  Generate-once
        is enforced by the corpus' per-key locks; a warm phase still
        submits one task per unique (workload, seed) first so
        distinct traces generate concurrently instead of the label
        cells serializing behind whichever generation a thread picked
        up first.  Reassembly is in canonical job order, so the
        result set equals the serial one byte for byte.
        """
        corpus = self._make_corpus(spec)
        by_index: Dict[int, List[ResultRecord]] = {}
        failures_by_index: Dict[int, CellFailure] = {}
        processed = 0
        started = time.perf_counter()
        _reset_native_tallies()
        cells = []  # unique (workload, seed), canonical order
        for job in jobs:
            if (job.workload, job.seed) not in cells:
                cells.append((job.workload, job.seed))

        def warm(workload: str, seed: int) -> None:
            # Generation failures surface through the per-cell path.
            try:
                corpus.trace(workload, spec.n_references, seed)
            except Exception:  # noqa: BLE001 - the cells re-raise
                pass

        max_workers = min(self.jobs, len(jobs))
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers
        ) as pool:
            warm_futures = [
                pool.submit(warm, workload, seed)
                for workload, seed in cells
            ]
            concurrent.futures.wait(warm_futures)
            futures = {
                pool.submit(run_cell, spec, job, corpus): job.index
                for job in jobs
            }
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                job_records, job_processed, failure = future.result()
                by_index[index] = job_records
                if failure is not None:
                    failures_by_index[index] = failure
                processed += job_processed
        elapsed = time.perf_counter() - started
        records: List[ResultRecord] = []
        failures: List[CellFailure] = []
        for job in jobs:  # reassemble in canonical order
            records.extend(by_index[job.index])
            if job.index in failures_by_index:
                failures.append(failures_by_index[job.index])
        records = _normalize_runtime_records(spec, records)
        stats = CacheStats()
        if isinstance(corpus, PersistentTraceCorpus):
            stats.merge(corpus.cache_stats)
        # Threads share the process-wide (lock-guarded) tallies.
        return ResultSet(
            spec, records, stats,
            PerfStats(
                processed, elapsed, _backend.backend_name(),
                *_native_tallies(),
            ),
            failures=failures,
        )

    def _run_parallel(
        self, spec: ExperimentSpec, jobs: Tuple[Job, ...]
    ) -> ResultSet:
        if self.cache_dir is not None:
            return self._run_parallel_cached(spec, jobs, self.cache_dir)
        # No configured cache: share traces through an ephemeral
        # directory so per-label cells never regenerate them, while
        # reporting zero cache traffic (the user asked for no cache).
        scratch = tempfile.mkdtemp(prefix="repro-run-")
        try:
            results = self._run_parallel_cached(spec, jobs, scratch)
            results.cache_stats = CacheStats()
            return results
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def _run_parallel_cached(
        self, spec: ExperimentSpec, jobs: Tuple[Job, ...], cache_dir: str
    ) -> ResultSet:
        spec_dict = spec.to_dict()
        by_index: Dict[int, List[ResultRecord]] = {}
        failures_by_index: Dict[int, CellFailure] = {}
        stats = CacheStats()
        declines: Dict[str, int] = {}
        phases: Dict[str, int] = {}
        processed = 0
        started = time.perf_counter()
        cells = []  # unique (workload, seed), canonical order
        for job in jobs:
            if (job.workload, job.seed) not in cells:
                cells.append((job.workload, job.seed))
        max_workers = min(self.jobs, len(jobs))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers
        ) as pool:
            # Phase 1: one warm task per unique trace, so label cells
            # share memoized generation instead of racing to collect.
            warm = [
                pool.submit(
                    _warm_trace_worker, spec_dict, workload, seed,
                    cache_dir,
                )
                for workload, seed in cells
            ]
            for future in concurrent.futures.as_completed(warm):
                cache_counts, warm_declines = future.result()
                stats.merge(CacheStats(**cache_counts))
                _merge_counts(declines, warm_declines)
            # Phase 2: the per-label cells (cache hits by now).
            futures = [
                pool.submit(
                    _run_job_worker, spec_dict, job.index, cache_dir
                )
                for job in jobs
            ]
            for future in concurrent.futures.as_completed(futures):
                (
                    index, record_dicts, job_processed, failure,
                    job_declines, job_phases,
                ) = future.result()
                _merge_counts(declines, job_declines)
                _merge_counts(phases, job_phases)
                by_index[index] = [
                    ResultRecord.from_dict(r) for r in record_dicts
                ]
                if failure is not None:
                    failures_by_index[index] = CellFailure(**failure)
                processed += job_processed
        elapsed = time.perf_counter() - started
        records: List[ResultRecord] = []
        failures: List[CellFailure] = []
        for job in jobs:  # reassemble in canonical order
            records.extend(by_index[job.index])
            if job.index in failures_by_index:
                failures.append(failures_by_index[job.index])
        records = _normalize_runtime_records(spec, records)
        return ResultSet(
            spec, records, stats,
            PerfStats(
                processed, elapsed, _backend.backend_name(), declines,
                phases,
            ),
            failures=failures,
        )


def run_experiment(
    spec: ExperimentSpec,
    jobs: Optional[int] = 1,
    cache_dir: Optional[PathLike] = None,
    executor: Optional[str] = None,
) -> ResultSet:
    """One-call convenience wrapper around :class:`Runner`.

    ``jobs=None`` resolves to :func:`default_jobs` (one worker per
    CPU core); ``executor`` as on :class:`Runner`.
    """
    return Runner(
        jobs=jobs, cache_dir=cache_dir, executor=executor
    ).run(spec)
