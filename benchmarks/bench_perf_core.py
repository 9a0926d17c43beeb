"""Core-engine throughput microbenchmarks (the ``repro bench`` suite).

Not a paper figure: measures the simulation core itself — protocol
replay, the Figure 5 tradeoff sweep, the timing simulator, and the
trace analyses — in records per second, and checks the columnar
engine's speedup claim against the committed ``BENCH_baseline.json``.

Run ``repro bench --out BENCH.json`` for the standalone CLI version;
this wrapper integrates the same suite with the pytest-benchmark
harness and persists the rendered table under ``benchmarks/results/``.
"""

import json
import pathlib

from repro.evaluation import bench

from benchmarks.conftest import run_once

BASELINE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_baseline.json"


def test_perf_core_suite(benchmark, corpus, n_references, save_result):
    trace = corpus.trace("oltp", n_references)

    def experiment():
        return bench.run_suite(
            trace, "oltp", n_references, 42, repeats=1
        )

    report = run_once(benchmark, experiment)
    save_result("perf_core_bench", bench.render_report(report))

    by_name = {b["name"]: b for b in report["benchmarks"]}
    # The engine claim: every hot path clears 100k records/sec on any
    # development-class machine; the calibrated regression gate against
    # the committed baseline is the precise check (done in CI via
    # ``repro bench --check``).
    assert by_name["fig5_tradeoff"]["records_per_sec"] > 100_000
    assert by_name["protocol_directory"]["records_per_sec"] > 100_000
    # Cold-path entries (batched generation layer): generation clears
    # 100k references/sec and the columnar analyses stay in the
    # records/sec leagues of the replay kernels.
    assert by_name["trace_generation"]["records_per_sec"] > 100_000
    assert by_name["analysis_sharing"]["records_per_sec"] > 100_000
    assert by_name["analysis_locality"]["records_per_sec"] > 100_000
    # Every predictor policy's multicast replay is measured
    # individually, so a regression in any one policy trips the gate.
    for name in (
        "protocol_multicast_group",
        "protocol_multicast_owner",
        "protocol_multicast_bifs",
        "protocol_multicast_sticky",
    ):
        assert by_name[name]["records_per_sec"] > 100_000, name
    # Timing throughput holds up when the link-contention arithmetic
    # actually fires (1/10th bandwidth — the contended end of a
    # bandwidth sweep), not just at the paper's ample 10 GB/s.
    assert by_name["timing_constrained_bw"]["records_per_sec"] > 100_000

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        same_config = (
            baseline.get("workload") == report["workload"]
            and baseline.get("n_references") == report["n_references"]
        )
        if same_config:
            failures = bench.check_against_baseline(
                report, baseline, tolerance=0.5
            )
            assert not failures, failures
