"""Core-simulation performance microbenchmarks (``repro bench``).

Measures the throughput of the hot paths the columnar trace engine
optimizes — protocol replay, the full Figure 5 tradeoff sweep, the
timing simulator, and the trace analyses — in *trace records per
second*, plus the cold path: ``trace_generation`` regenerates the
workload trace end-to-end (chunked reference synthesis through the
chunk-consuming cache/MOSI filter, no trace cache) and reports
*references* per second.  The ``sweep_inprocess``/``fabric_overhead``
pair runs one identical warm-cache sweep through the in-process
runner and through the distributed fabric (queue, claims, store,
reassembly); their gap prices the fabric's dispatch machinery.  The
``sweep_threads_1``/``sweep_threads_4`` pair runs one identical
multi-cell sweep through the thread executor over a shared in-memory
corpus at one and at :data:`SWEEP_THREADS` worker threads; their
ratio is the thread-scaling ``parallel_efficiency`` block — near 1×
under the GIL-bound pure tier, multi-core under the native
kernels, which release the GIL around their compute phases.  All
four sweep entries run on the *selected* backend (they benchmark the
execution machinery, not a pinned Python tier) and record their
``executor``/``threads``/``backend`` alongside the throughput.

Two artifacts build on this module:

- ``repro bench --out BENCH.json`` writes the suite results; the
  committed ``BENCH.json`` documents the engine's measured speedup
  over the pre-columnar baseline (see :data:`PRE_COLUMNAR_BASELINE`).
- ``repro bench --check BENCH_baseline.json`` compares a fresh run
  against a committed reference and fails on regression; CI runs this
  on a small workload.  Comparisons use *calibrated* throughput —
  records/sec divided by a machine-speed score measured on the spot —
  so a slower CI runner does not read as an engine regression.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import pathlib
import platform
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.accuracy import prediction_accuracy
from repro.analysis.locality import locality_cdf
from repro.analysis.sharing import degree_of_sharing, sharing_histogram
from repro.common import backend as _backend
from repro.common.params import PredictorConfig, SystemConfig
from repro.evaluation.runtime import make_protocol
from repro.evaluation.tradeoff import (
    evaluate_design_space,
    evaluate_protocol,
)
from repro.predictors.registry import PAPER_POLICIES
from repro.timing.system import TimingSimulator
from repro.trace import columns as _columns
from repro.trace.stats import compute_trace_stats
from repro.trace.trace import Trace
from repro.workloads.registry import create_workload

#: Bump when the BENCH.json layout changes.
BENCH_FORMAT = 1

#: Pre-columnar engine throughput on the reference configuration
#: (``oltp``, 60,000 references, seed 42 — the Figure 5 predictor
#: tradeoff sweep), measured on the development machine at the commit
#: preceding the columnar engine, interleaved with the new engine
#: (best of 3 after warm-up) so both saw identical load.
#: ``repro bench`` reports the current engine's speedup against this
#: when run at the same configuration.
PRE_COLUMNAR_BASELINE = {
    "workload": "oltp",
    "n_references": 60_000,
    "seed": 42,
    "fig5_tradeoff_records_per_sec": 52_900.0,
}

#: Cold-path throughput on the reference configuration at the commit
#: preceding the batched generation layer, measured interleaved with
#: the new engine (best of 3 after warm-up) on the development
#: machine.  ``trace_generation`` is end-to-end cold collection
#: (references/sec through the record-loop generator + per-record
#: collector); ``analysis_sharing`` is the PR-3 record-loop entry
#: (trace records/sec, from the committed BENCH.json at that commit).
PRE_BATCHED_BASELINE = {
    "workload": "oltp",
    "n_references": 60_000,
    "seed": 42,
    "trace_generation_records_per_sec": 99_900.0,
    "analysis_sharing_records_per_sec": 1_498_634.0,
}

#: Default benchmark configuration (matches the baseline above).
DEFAULT_WORKLOAD = "oltp"
DEFAULT_REFERENCES = 60_000
DEFAULT_SEED = 42

#: Quick configuration for CI smoke runs.
QUICK_WORKLOAD = "barnes-hut"
QUICK_REFERENCES = 8_000

#: Entries re-run under the native kernel tier (as ``<name>_native``)
#: when the unified backend resolves to ``native``.  The regular
#: entries are pinned to the ``pure`` tier (the scalar Python loops,
#: numpy accelerator as the environment leaves it) so their numbers
#: stay comparable across machines and commits regardless of whether
#: the extension is built; the ``_native`` twins (plus the
#: ``pre_native_baseline`` block) document the compiled tier's
#: speedup on the same machine in the same run.  One twin per
#: compiled replay mode or kernel: the directory and broadcast-snooping
#: protocol modes, the four multicast policy modes, accuracy scoring
#: (the same replay with its scoring counters on), both timing passes,
#: the 64-node scaling entry (which exercises the two-word
#: destination-mask envelope), and the cold path (native generator
#: feeding the native collector).
NATIVE_BENCH_ENTRIES = (
    "trace_generation",
    "protocol_directory",
    "protocol_snooping",
    "protocol_multicast_group",
    "protocol_multicast_owner",
    "protocol_multicast_bifs",
    "protocol_multicast_sticky",
    "accuracy_sweep",
    "timing_runtime",
    "timing_detailed",
    "protocol_scale64",
)

#: Worker threads for the ``sweep_threads_4`` scaling entry.
SWEEP_THREADS = 4

#: Entries pinned to the *selected* backend rather than the Python
#: tier: they price execution machinery (runner dispatch, fabric
#: overhead, thread scaling), so they must measure the backend the
#: user actually sweeps with.  Each records its ``executor`` /
#: ``threads`` / ``backend`` in the report entry.
#: Worker processes for the ``sweep_coldstart`` entry.
COLDSTART_PROCESSES = 2

SWEEP_EXECUTION_ENTRIES = {
    "sweep_inprocess": {"executor": "serial", "threads": 1},
    "fabric_overhead": {"executor": "fabric", "threads": 1},
    "sweep_threads_1": {"executor": "threads", "threads": 1},
    "sweep_threads_4": {"executor": "threads", "threads": SWEEP_THREADS},
    # Process-pool sweep against a warmed on-disk cache: prices worker
    # spawn plus each worker's per-process trace-store loads — the
    # cold-start cost the zero-copy v2 store attacks.  `threads` here
    # is the worker count; >1 keeps it out of the cross-machine
    # calibrated gate (like sweep_threads_4, it measures topology).
    "sweep_coldstart": {
        "executor": "processes", "threads": COLDSTART_PROCESSES,
    },
}


@dataclasses.dataclass(frozen=True)
class BenchResult:
    """One microbenchmark's measured throughput."""

    name: str
    records: int
    seconds: float
    calibration_score: float
    #: Execution metadata (executor/threads/backend) for the sweep
    #: entries; None for the plain replay benchmarks.
    extra: Optional[dict] = None

    @property
    def records_per_sec(self) -> float:
        return self.records / self.seconds if self.seconds else 0.0

    @property
    def calibrated(self) -> float:
        """Throughput normalized by the machine-speed score.

        Dimensionless: comparable across machines of different speeds,
        which is what the CI regression check needs.
        """
        if not self.calibration_score:
            return 0.0
        return self.records_per_sec / self.calibration_score

    def to_dict(self) -> dict:
        entry = {
            "name": self.name,
            "records": self.records,
            "seconds": round(self.seconds, 6),
            "records_per_sec": round(self.records_per_sec, 1),
            "calibrated": round(self.calibrated, 4),
        }
        if self.extra:
            entry.update(self.extra)
        return entry


def calibration_score(loops: int = 200_000) -> float:
    """A machine-speed score in pure-Python kilo-operations per second.

    Runs a fixed dict/int workload resembling the simulator's inner
    loops.  Dividing a benchmark's records/sec by this score yields a
    machine-independent throughput used for CI regression checks.
    """
    best = float("inf")
    for _ in range(3):
        table: Dict[int, int] = {}
        started = time.perf_counter()
        acc = 0
        for i in range(loops):
            key = (i * 2654435761) & 0xFFFF
            value = table.get(key)
            if value is None:
                table[key] = i
            else:
                table[key] = value + 1
            acc += (key >> 3) & 7
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return loops / best / 1000.0


#: Minimum wall-clock per timing sample; sub-millisecond benchmarks
#: are looped until a sample is at least this long, so the regression
#: gate measures throughput rather than timer/scheduler noise.
MIN_SAMPLE_SECONDS = 0.05

def _time_best(function: Callable[[], int], repeats: int) -> Tuple[int, float]:
    """Best-of-``repeats`` per-call seconds for ``function``.

    One untimed warm-up call primes per-trace caches (e.g. the block
    key columns) so they are not charged to the first sample; fast
    functions are auto-ranged to several calls per sample.
    """
    records = function()  # warm-up
    inner = 1
    while True:
        started = time.perf_counter()
        for _ in range(inner):
            function()
        elapsed = time.perf_counter() - started
        if elapsed >= MIN_SAMPLE_SECONDS or inner >= 1024:
            break
        scale = MIN_SAMPLE_SECONDS / max(elapsed, 1e-9)
        inner = min(1024, max(inner * 2, int(inner * scale) + 1))
    best = elapsed / inner
    for _ in range(repeats - 1):
        started = time.perf_counter()
        for _ in range(inner):
            function()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed / inner)
    return records, best


def _benchmarks(
    trace: Trace,
    config: SystemConfig,
    predictor_config: PredictorConfig,
    workload: str,
    n_references: int,
    seed: int,
) -> "List[Tuple[str, Callable[[], int]]]":
    """The suite: name -> callable returning records processed."""

    def trace_generation() -> int:
        # Cold path end-to-end: chunked reference synthesis plus the
        # chunk-consuming cache/MOSI filter (no trace cache involved).
        # Throughput unit is *references*/sec, unlike the replay
        # benchmarks' trace records/sec.
        model = create_workload(workload, seed=seed)
        model.collect(n_references)
        return n_references

    def fig5_tradeoff() -> int:
        points = evaluate_design_space(
            trace, config=config, predictor_config=predictor_config
        )
        return len(trace) * len(points)

    def protocol(label: str) -> int:
        instance = make_protocol(label, config, predictor_config)
        evaluate_protocol(instance, trace, label=label)
        return len(trace)

    def accuracy_sweep() -> int:
        # Prediction scoring for the paper's four policies: the
        # accuracy sweep over the bench trace.
        for policy in PAPER_POLICIES:
            prediction_accuracy(
                trace, policy, config=config,
                predictor_config=predictor_config,
            )
        return len(trace) * len(PAPER_POLICIES)

    def timing_runtime() -> int:
        instance = make_protocol("group", config, predictor_config)
        simulator = TimingSimulator(config, instance)
        simulator.run(trace)
        return len(trace)

    def timing_detailed() -> int:
        # The detailed (bounded-outstanding-miss) processor model:
        # its per-node min-heaps are the second compiled timing pass.
        instance = make_protocol("group", config, predictor_config)
        simulator = TimingSimulator(
            config, instance, processor_model="detailed"
        )
        simulator.run(trace)
        return len(trace)

    def protocol_scale64() -> int:
        # The ROADMAP big-system gate: Group replay on a 64-node
        # machine, past the old single-word native envelope.  The
        # 64-node trace is collected once (during the untimed warm-up
        # call) and reused.
        if "scale64" not in state:
            scale_config = dataclasses.replace(config, n_processors=64)
            scale_trace = create_workload(
                workload, config=scale_config, seed=seed
            ).collect(n_references).trace
            state["scale64"] = (scale_config, scale_trace)
        scale_config, scale_trace = state["scale64"]
        instance = make_protocol("group", scale_config, predictor_config)
        evaluate_protocol(instance, scale_trace, label="group")
        return len(scale_trace)

    def timing_constrained_bw() -> int:
        # Timing throughput at a tenth of the configured link
        # bandwidth: the queueing/serialization arithmetic actually
        # fires (at the paper's ample 10 GB/s links it mostly
        # reduces to max() against the base latency), so bandwidth
        # sweeps are gated at the contended end of the axis too.
        constrained = dataclasses.replace(
            config,
            link_bandwidth_bytes_per_ns=(
                config.link_bandwidth_bytes_per_ns / 10.0
            ),
        )
        instance = make_protocol("group", constrained, predictor_config)
        simulator = TimingSimulator(constrained, instance)
        simulator.run(trace)
        return len(trace)

    def analysis_sharing() -> int:
        sharing_histogram(trace, block_size=config.block_size)
        degree_of_sharing(trace, config.block_size)
        return 2 * len(trace)

    def analysis_locality() -> int:
        for kind in ("block", "macroblock", "pc"):
            locality_cdf(
                trace,
                kind=kind,
                block_size=config.block_size,
                macroblock_size=config.macroblock_size,
            )
        return 3 * len(trace)

    def trace_stats() -> int:
        compute_trace_stats(
            trace, config.block_size, config.macroblock_size
        )
        return len(trace)

    # -- fabric dispatch overhead --------------------------------------
    # `sweep_inprocess` and `fabric_overhead` run the *same* one-cell-
    # per-label sweep against the *same* warmed on-disk trace cache;
    # the throughput gap between them is the cost of the distributed
    # fabric's machinery (queue files, claims, heartbeats, store
    # writes, reassembly) on top of identical simulation work.
    state: dict = {}

    def _sweep_spec():
        from repro.experiment.spec import ExperimentSpec

        return ExperimentSpec(
            workloads=(workload,),
            kind="tradeoff",
            n_references=n_references,
            seeds=(seed,),
            policies=("owner",),
            predictor_config=predictor_config,
            system_config=config,
        )

    def _shared_traces() -> pathlib.Path:
        if "traces" not in state:
            from repro.experiment.cache import PersistentTraceCorpus

            state["tmp"] = tempfile.TemporaryDirectory(
                prefix="repro-bench-fabric-"
            )
            root = pathlib.Path(state["tmp"].name)
            traces = root / "traces"
            # Warm once so neither contender pays trace generation.
            PersistentTraceCorpus(config, traces).collect(
                workload, n_references, seed
            )
            state["root"] = root
            state["traces"] = traces
            state["counter"] = itertools.count()
        return state["traces"]

    def sweep_inprocess() -> int:
        from repro.experiment.runner import Runner

        spec = _sweep_spec()
        Runner(jobs=1, cache_dir=_shared_traces()).run(spec)
        return spec.n_jobs * len(trace)

    def sweep_coldstart() -> int:
        from repro.experiment.runner import Runner

        spec = _sweep_spec()
        Runner(
            jobs=COLDSTART_PROCESSES,
            executor="processes",
            cache_dir=_shared_traces(),
        ).run(spec)
        return spec.n_jobs * len(trace)

    # -- trace store load path ----------------------------------------
    # `trace_load_binary` vs `trace_load_v2` price the per-cell setup
    # the v2 store deletes.  The v1 sidecar copies every column byte
    # (`array.frombytes`) and then recomputes the derived replay
    # columns from scratch; the v2 sidecar mmaps, serving the base
    # columns and the persisted block/macroblock keys as zero-copy
    # views — the replay-ready state for the compiled tier, which
    # consumes raw columns directly.  (The scalar loops still box
    # lists on first use; that cost is deferred to replay, not paid
    # per load, and the store serves it via C-level copies.)
    def _store_paths():
        if "store_bin" not in state:
            from repro.experiment.cache import derived_config
            from repro.trace.io import write_trace_binary, write_trace_v2

            _shared_traces()  # owns the tempdir
            root = state["root"]
            state["store_bin"] = root / "bench-trace.bin"
            state["store_bin2"] = root / "bench-trace.bin2"
            write_trace_binary(trace, state["store_bin"])
            write_trace_v2(
                trace, state["store_bin2"], derived_config(config)
            )
        return state["store_bin"], state["store_bin2"]

    def trace_load_binary() -> int:
        from repro.trace.io import read_trace_binary

        bin_path, _ = _store_paths()
        loaded = read_trace_binary(bin_path)
        loaded.derived_columns(
            config.block_size,
            config.n_processors,
            predictor_config.index_granularity,
            False,
        )
        loaded.block_keys(config.block_size)
        loaded.block_keys(config.macroblock_size)
        return len(loaded)

    def trace_load_v2() -> int:
        from repro.trace.io import read_trace_v2

        _, v2_path = _store_paths()
        loaded = read_trace_v2(v2_path)
        loaded.block_keys(config.block_size)
        loaded.block_keys(config.macroblock_size)
        return len(loaded)

    # -- thread scaling -----------------------------------------------
    # `sweep_threads_1` / `sweep_threads_4` run the *same* eight-cell
    # sweep (two seeds x four compiled policies) through the thread
    # executor over one pre-warmed in-memory corpus; the throughput
    # ratio is the thread-scaling factor the parallel_efficiency
    # block reports.  Trace generation happens once, in the untimed
    # warm-up call.
    def _thread_corpus():
        if "thread_corpus" not in state:
            from repro.evaluation.corpus import TraceCorpus

            corpus = TraceCorpus(config)
            for thread_seed in (seed, seed + 1):
                corpus.collect(workload, n_references, thread_seed)
            state["thread_corpus"] = corpus
        return state["thread_corpus"]

    def _thread_spec():
        from repro.experiment.spec import ExperimentSpec

        return ExperimentSpec(
            workloads=(workload,),
            kind="tradeoff",
            n_references=n_references,
            seeds=(seed, seed + 1),
            policies=(
                "owner",
                "group",
                "broadcast-if-shared",
                "sticky-spatial",
            ),
            predictor_config=predictor_config,
            system_config=config,
        )

    def sweep_threads(n_threads: int) -> int:
        from repro.experiment.runner import Runner

        spec = _thread_spec()
        Runner(
            jobs=n_threads, executor="threads", corpus=_thread_corpus()
        ).run(spec)
        return spec.n_jobs * len(trace)

    def fabric_overhead() -> int:
        from repro.fabric import FabricCoordinator, FabricWorker

        traces = _shared_traces()
        fabric = state["root"] / f"fabric-{next(state['counter'])}"
        fabric.mkdir()
        # Share the warmed cache; everything else (queue, claims,
        # store, assembly) is paid fresh on every call.
        (fabric / "traces").symlink_to(traces)
        spec = _sweep_spec()
        coordinator = FabricCoordinator(fabric)
        coordinator.enqueue_missing(spec)
        FabricWorker(fabric).run()
        if coordinator.try_assemble(spec) is None:
            raise RuntimeError("fabric benchmark sweep incomplete")
        shutil.rmtree(fabric)
        return spec.n_jobs * len(trace)

    return [
        ("trace_generation", trace_generation),
        ("fig5_tradeoff", fig5_tradeoff),
        ("protocol_directory", lambda: protocol("directory")),
        ("protocol_snooping", lambda: protocol("broadcast-snooping")),
        ("protocol_multicast_group", lambda: protocol("group")),
        # Per-predictor multicast entries so the CI regression gate
        # covers every predictor policy's replay, not just Group's.
        ("protocol_multicast_owner", lambda: protocol("owner")),
        (
            "protocol_multicast_bifs",
            lambda: protocol("broadcast-if-shared"),
        ),
        (
            "protocol_multicast_sticky",
            lambda: protocol("sticky-spatial"),
        ),
        ("accuracy_sweep", accuracy_sweep),
        ("timing_runtime", timing_runtime),
        ("timing_detailed", timing_detailed),
        ("timing_constrained_bw", timing_constrained_bw),
        # Big-system scaling gate (ROADMAP): 64 nodes, two-word masks.
        ("protocol_scale64", protocol_scale64),
        ("analysis_sharing", analysis_sharing),
        ("analysis_locality", analysis_locality),
        ("trace_stats", trace_stats),
        ("trace_load_binary", trace_load_binary),
        ("trace_load_v2", trace_load_v2),
        ("sweep_inprocess", sweep_inprocess),
        ("sweep_coldstart", sweep_coldstart),
        ("fabric_overhead", fabric_overhead),
        ("sweep_threads_1", lambda: sweep_threads(1)),
        ("sweep_threads_4", lambda: sweep_threads(SWEEP_THREADS)),
    ]


def run_suite(
    trace: Trace,
    workload: str,
    n_references: int,
    seed: int,
    config: Optional[SystemConfig] = None,
    predictor_config: Optional[PredictorConfig] = None,
    repeats: int = 2,
) -> dict:
    """Run every microbenchmark over ``trace``; return the BENCH dict."""
    config = config if config is not None else SystemConfig()
    predictor_config = (
        predictor_config if predictor_config is not None
        else PredictorConfig()
    )
    score = calibration_score()
    results: List[BenchResult] = []
    suite = _benchmarks(
        trace, config, predictor_config, workload, n_references, seed
    )

    def pinned(function, backend_name):
        def wrapped() -> int:
            with _backend.use(backend_name):
                return function()
        return wrapped

    # Pin the regular entries to the pure tier and twin the native-
    # accelerated hot paths (see NATIVE_BENCH_ENTRIES), so the
    # cross-commit trajectory stays comparable and the native twins
    # have a same-report denominator.  The numpy accelerator stays as
    # the environment set it (REPRO_PURE_PYTHON=1 measures the
    # numpy-free floor).  The sweep/fabric/thread entries instead run
    # on the *selected* backend — they benchmark the execution
    # machinery (SWEEP_EXECUTION_ENTRIES) — and stamp the
    # executor/threads/backend they ran with into their report entry.
    unified = _backend.backend_name()
    timed = [
        (
            name,
            pinned(
                fn, unified if name in SWEEP_EXECUTION_ENTRIES else "pure"
            ),
        )
        for name, fn in suite
    ]
    if unified == "native":
        by_name = dict(suite)
        timed += [
            (f"{name}_native", pinned(by_name[name], "native"))
            for name in NATIVE_BENCH_ENTRIES
        ]
    for name, function in timed:
        records, seconds = _time_best(function, repeats)
        extra = None
        if name in SWEEP_EXECUTION_ENTRIES:
            extra = dict(
                SWEEP_EXECUTION_ENTRIES[name], backend=unified
            )
        results.append(BenchResult(name, records, seconds, score, extra))

    report = {
        "format": BENCH_FORMAT,
        "workload": workload,
        "n_references": n_references,
        "seed": seed,
        "trace_records": len(trace),
        "python": platform.python_version(),
        # Machine shape, so the thread-scaling / parallel_efficiency
        # entries are interpretable from the committed file alone
        # (earlier baselines were measured on a 1-core container with
        # no way to tell).
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "columns_backend": unified,
        "numpy": _columns.backend_name() == "numpy",
        "calibration_kops": round(score, 1),
        "benchmarks": [r.to_dict() for r in results],
    }
    by_result = {r.name: r for r in results}
    threads_1 = by_result.get("sweep_threads_1")
    threads_4 = by_result.get("sweep_threads_4")
    if threads_1 is not None and threads_4 is not None:
        speedup = (
            threads_4.records_per_sec / threads_1.records_per_sec
            if threads_1.records_per_sec
            else 0.0
        )
        report["parallel_efficiency"] = {
            "executor": "threads",
            "backend": unified,
            "threads": SWEEP_THREADS,
            "cpus": os.cpu_count() or 1,
            "sweep_threads_1_records_per_sec": round(
                threads_1.records_per_sec, 1
            ),
            "sweep_threads_4_records_per_sec": round(
                threads_4.records_per_sec, 1
            ),
            "speedup": round(speedup, 2),
            "efficiency": round(speedup / SWEEP_THREADS, 3),
        }
    if unified == "native":
        natives = {}
        by_result = {r.name: r for r in results}
        for name in NATIVE_BENCH_ENTRIES:
            base = by_result[name]
            fast = by_result[f"{name}_native"]
            natives[f"{name}_records_per_sec"] = round(
                base.records_per_sec, 1
            )
            natives[f"{name}_native_speedup"] = round(
                fast.records_per_sec / base.records_per_sec, 2
            ) if base.records_per_sec else 0.0
        report["pre_native_baseline"] = natives

    baseline = PRE_COLUMNAR_BASELINE
    if (
        workload == baseline["workload"]
        and n_references == baseline["n_references"]
        and seed == baseline["seed"]
    ):
        fig5 = next(r for r in results if r.name == "fig5_tradeoff")
        reference = baseline["fig5_tradeoff_records_per_sec"]
        report["pre_columnar_baseline"] = {
            "fig5_tradeoff_records_per_sec": reference,
            "fig5_tradeoff_speedup": round(
                fig5.records_per_sec / reference, 2
            ),
        }
    batched = PRE_BATCHED_BASELINE
    if (
        workload == batched["workload"]
        and n_references == batched["n_references"]
        and seed == batched["seed"]
    ):
        entries = {}
        for name in ("trace_generation", "analysis_sharing"):
            reference = batched[f"{name}_records_per_sec"]
            measured = next(r for r in results if r.name == name)
            entries[f"{name}_records_per_sec"] = reference
            entries[f"{name}_speedup"] = round(
                measured.records_per_sec / reference, 2
            )
        report["pre_batched_baseline"] = entries
    return report


def check_against_baseline(
    report: dict, baseline: dict, tolerance: float = 0.30
) -> List[str]:
    """Regression check of ``report`` against a saved baseline report.

    Compares the *calibrated* throughput of benchmarks present in both
    reports; returns a list of human-readable failures (empty when the
    run passes).  ``tolerance`` is the allowed fractional drop.
    """
    failures = []
    current = {b["name"]: b for b in report.get("benchmarks", ())}
    for entry in baseline.get("benchmarks", ()):
        name = entry["name"]
        if entry.get("threads", 1) > 1:
            # Multi-thread scaling entries measure machine topology
            # (core count, GIL contention pattern), not engine speed;
            # calibration does not transfer across core counts, so CI
            # gates them with the parallel_efficiency assertion on a
            # known runner instead.
            continue
        reference = entry.get("calibrated", 0.0)
        observed = current.get(name, {}).get("calibrated")
        if observed is None:
            failures.append(f"{name}: missing from this run")
            continue
        if not reference:
            continue
        floor = (1.0 - tolerance) * reference
        if observed < floor:
            drop = 100.0 * (1.0 - observed / reference)
            failures.append(
                f"{name}: calibrated throughput {observed:.3f} is "
                f"{drop:.0f}% below baseline {reference:.3f} "
                f"(tolerance {tolerance:.0%})"
            )
    return failures


def load_report(path) -> dict:
    """Load a BENCH.json report from disk."""
    with open(path, "r", encoding="ascii") as handle:
        return json.load(handle)


def render_report(report: dict) -> str:
    """A human-readable table of one BENCH report."""
    backend_label = report.get("columns_backend", "pure")
    if "numpy" in report:
        backend_label += ", numpy " + ("on" if report["numpy"] else "off")
    lines = [
        f"workload={report['workload']} "
        f"refs={report['n_references']} seed={report['seed']} "
        f"trace={report['trace_records']} records  "
        f"(calibration {report['calibration_kops']:.0f} kops/s, "
        f"python {report['python']}, backend {backend_label})",
        f"{'benchmark':31s} {'records':>10s} {'seconds':>9s} "
        f"{'records/sec':>12s} {'calibrated':>10s}",
    ]
    for entry in report["benchmarks"]:
        lines.append(
            f"{entry['name']:31s} {entry['records']:>10,d} "
            f"{entry['seconds']:>9.3f} {entry['records_per_sec']:>12,.0f} "
            f"{entry['calibrated']:>10.3f}"
        )
    baseline = report.get("pre_columnar_baseline")
    if baseline:
        lines.append(
            "fig5 tradeoff speedup vs pre-columnar engine "
            f"({baseline['fig5_tradeoff_records_per_sec']:,.0f} "
            f"records/sec): {baseline['fig5_tradeoff_speedup']:.2f}x"
        )
    batched = report.get("pre_batched_baseline")
    if batched:
        units = {
            "trace_generation": "references/sec",
            "analysis_sharing": "records/sec",
        }
        for name, unit in units.items():
            lines.append(
                f"{name} speedup vs pre-batched cold path "
                f"({batched[f'{name}_records_per_sec']:,.0f} "
                f"{unit}): {batched[f'{name}_speedup']:.2f}x"
            )
    native = report.get("pre_native_baseline")
    if native:
        for name in NATIVE_BENCH_ENTRIES:
            lines.append(
                f"{name} native-kernel speedup vs the Python tier "
                f"({native[f'{name}_records_per_sec']:,.0f} "
                f"records/sec): "
                f"{native[f'{name}_native_speedup']:.2f}x"
            )
    efficiency = report.get("parallel_efficiency")
    if efficiency:
        lines.append(
            f"thread scaling ({efficiency['backend']} backend, "
            f"{efficiency['threads']} threads on "
            f"{efficiency['cpus']} CPU(s)): "
            f"{efficiency['speedup']:.2f}x speedup, "
            f"{efficiency['efficiency']:.0%} parallel efficiency"
        )
    return "\n".join(lines)
