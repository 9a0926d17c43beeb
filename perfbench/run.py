"""Whole-paper benchmark of the ``repro`` package.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload paper_warm --seed 42 \\
        --seconds 30 --trace 0

It builds the native kernel extension if needed, pins the native
backend (exiting non-zero when it is not active), sets up the
workload's input from ``--seed``, times whole passes for ``--seconds``
seconds and checks every pass's outputs against a reference the timed
passes do not produce.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it (``detail: {...}``) carries the run's
stamp: backend, executor, jobs, CPU count, Python version, trace
sizes, pass counts and quartiles.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time

from calibrate import speed
from metrics import (
    WORKLOAD_NAMES, layer_values, median_values, per_layer, quartiles,
)
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Import and set-up repetitions; ``setup_s`` sums their medians.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
#: Passes always timed, even when one pass outlasts ``--seconds``.
MIN_PASSES = 3

IMPORTS = (
    "import repro.experiment, repro.analysis.sharing, "
    "repro.analysis.locality, repro.trace.stats; "
    "from repro.common import backend; backend.set_backend('native')"
)


def fail(message: str, code: int) -> "NoReturn":
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_PURE_PYTHON", None)
    return env


def ensure_native() -> None:
    """Compile the kernel extension when it is missing or stale."""
    kernels = os.path.join(SRC, "repro", "kernels")
    source = os.path.join(kernels, "_native.c")
    if not os.path.isfile(source):
        fail(f"no repro sources under {SRC}", 2)
    built = os.path.join(
        kernels, "_native" + (sysconfig.get_config_var("EXT_SUFFIX") or ".so"))
    if (os.path.isfile(built)
            and os.path.getmtime(built) >= os.path.getmtime(source)):
        return
    completed = subprocess.run(
        [sys.executable, "-m", "repro.kernels.build"], cwd=ROOT,
        env=child_env(), stdout=sys.stderr, stderr=sys.stderr,
    )
    if completed.returncode != 0:
        fail("native kernel build failed", 3)


def timed_import() -> float:
    """Wall seconds of a fresh interpreter importing the package."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", IMPORTS], cwd=ROOT, env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    if completed.returncode != 0:
        fail(completed.stderr.decode(errors="replace"), 3)
    return time.perf_counter() - started


def bracketed(work) -> tuple:
    """``work()``'s value and the host speed read just before and after
    it, averaged."""
    before = speed()
    value = work()
    return value, (before + speed()) / 2


def pin_native() -> None:
    from repro.common import backend

    try:
        backend.set_backend("native")
    except RuntimeError as exc:
        fail(str(exc), 3)
    if not backend.native_active():
        fail("native backend is not active", 3)


def one_pass(workload, region=contextlib.nullcontext):
    """One pass from a collected heap and a zero decline tally, with the
    host speed around it."""
    from repro import kernels

    gc.collect()
    kernels.reset_decline_counts()
    result, host = bracketed(lambda: workload.run_pass(region))
    result.speed = host
    result.declines = sum(kernels.decline_counts().values())
    return result


def time_passes(workload, seconds: float) -> list:
    """Timed passes until the next one would overrun ``seconds``."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(one_pass(workload))
        used = time.perf_counter() - started
        typical = statistics.median(p.seconds for p in passes)
        if len(passes) >= MIN_PASSES and used + typical > seconds:
            return passes


def check(workload, passes) -> tuple:
    """(attempted, failed, reference kind) over every pass.

    Each pass's digests must equal the reference's; operations the
    reference does not cover must equal the first pass's.
    """
    from workloads import pinned_digests

    reference = workload.reference()
    kind = ("pinned" if pinned_digests(workload.name, workload.seed)
            else "pure")
    attempted = failed = 0
    first = passes[0].digests
    for result in passes:
        attempted += len(result.digests)
        failed += len(result.failures)
        for key, value in result.digests.items():
            if value != reference.get(key, first.get(key)):
                failed += 1
        failed += len(set(reference) - set(result.digests))
    return attempted, failed, kind


def run_untraced(name: str, seed: int, seconds: float, work_root: str):
    from workloads import WORKLOADS

    imports = [bracketed(timed_import) for _ in range(IMPORT_REPEATS)]
    workload = WORKLOADS[name](seed, work_root)
    try:
        setups = [bracketed(workload.setup) for _ in range(SETUP_REPEATS)]
        passes = time_passes(workload, seconds)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        store_mb = workload.store_bytes() / 1e6
        sizes = workload.trace_sizes()
        fidelity = workload.fidelity()
        attempted, failed, kind = check(workload, passes)
    finally:
        workload.close()
    q1, median, q3 = quartiles(
        [p.records / p.seconds / p.speed for p in passes])
    metrics = {
        "records_per_s": (median, "1/s"),
        "setup_s": (
            statistics.median(t * host for t, host in imports)
            + statistics.median(t * host for t, host in setups), "s",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "store_mb": (store_mb, "MB"),
    }
    detail = {
        "workload": name,
        "passes": len(passes),
        "records_per_pass": passes[0].records,
        "records_per_s_quartiles": [q1, median, q3],
        "raw_records_per_s": [p.records / p.seconds for p in passes],
        "host_speed": [p.speed for p in passes],
        "raw_import_s": [t for t, _ in imports],
        "raw_setup_s": [t for t, _ in setups],
        "kernels.declines": sum(p.declines for p in passes),
        "reference": kind,
        "trace_sizes": sizes,
        "fidelity": fidelity,
    }
    return attempted, failed, metrics, detail


def run_traced(seed: int, seconds: float, work_root: str):
    """Traced passes of every workload, round robin, for ``seconds``."""
    from layers import instrumented
    from workloads import WORKLOADS

    tracer = Tracer()
    workloads = [WORKLOADS[name](seed, work_root)
                 for name in WORKLOAD_NAMES]
    runs = {name: [] for name in WORKLOAD_NAMES}
    layers = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            workload.setup()
        pass_ids = itertools.count()
        started = time.perf_counter()
        with instrumented(tracer):
            while True:
                round_started = time.perf_counter()
                for workload in workloads:
                    pass_id = next(pass_ids)
                    result = one_pass(
                        workload, lambda: tracer.pass_span(pass_id))
                    runs[workload.name].append((pass_id, result))
                used = time.perf_counter() - started
                if used + (time.perf_counter() - round_started) > seconds:
                    break
        for workload in workloads:
            results = [result for _, result in runs[workload.name]]
            tried, bad, _kind = check(workload, results)
            attempted += tried
            failed += bad
            rows = []
            for pass_id, result in runs[workload.name]:
                tracer.count_into(pass_id, "kernels.declines",
                                  result.declines)
                row = layer_values(tracer.self_times(pass_id),
                                   tracer.counters[pass_id],
                                   workload.name)
                row["traced.records_per_s"] = (
                    result.records / tracer.pass_seconds(pass_id)
                    / result.speed
                )
                rows.append(row)
            layers[workload.name] = median_values(rows)
    finally:
        for workload in workloads:
            workload.close()
    metrics = {}
    for name, unit, _better in per_layer():
        owner, _, metric = name.partition(".")
        metrics[name] = (layers[owner][metric], unit)
    detail = {
        "passes": {name: len(done) for name, done in runs.items()},
        "pass_s": {
            name: statistics.median(
                tracer.pass_seconds(pass_id) for pass_id, _ in done)
            for name, done in runs.items()
        },
        "layers": layers,
    }
    return attempted, failed, metrics, detail


def stamp() -> dict:
    from repro.common import backend
    from repro.trace.io import mmap_enabled

    return {
        "backend": backend.backend_name(),
        "executor": "serial",
        "jobs": 1,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "mmap": mmap_enabled(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ensure_native()
    sys.path.insert(0, SRC)
    pin_native()
    work_base = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench",
    )
    os.makedirs(work_base, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="run-", dir=work_base)
    try:
        if args.trace:
            attempted, failed, metrics, detail = run_traced(
                args.seed, args.seconds, work_root)
        else:
            attempted, failed, metrics, detail = run_untraced(
                args.workload, args.seed, args.seconds, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    detail.update(stamp(), seed=args.seed, trace=args.trace)
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
