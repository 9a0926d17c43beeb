"""Outside-in layer timing for the traced run.

:func:`instrumented` wraps the public entry points of each ``repro``
module at the names its callers look them up by, records a span (and
counts) around every call, and restores the originals on exit.  The
untraced run never enters it, so the timed passes execute the program
untouched.

Layer -> wrapped entry point (span name):

- ``protocols`` + ``kernels`` replay: ``evaluate_protocol`` and
  ``evaluate_runtime_raw`` as the runner calls them (``replay.<label>``;
  the timing pass inside is its own child span, so the runtime cell's
  self time is its protocol part), ``repro.kernels.try_timing_pass``
  (``timing.pass``);
- ``experiment`` runner/results: ``Runner.run`` (``runner``),
  ``run_cell`` (``cell``), the runner's normalization step
  (``results.normalize``), ``ResultSet.to_json`` (``results.serialize``);
- ``experiment.cache`` + ``trace.io`` store: ``TraceCache.load``
  (``store.load``) and the three writers the cache calls
  (``store.write_trace``/``store.write_bin``/``store.write_bin2``);
- ``trace.columns``: ``Trace.derived_columns``/``block_keys``/
  ``block_keys_list`` (``derive``);
- ``workloads`` + ``cache``: building the workload model
  (``create_workload`` as the corpus calls it) and each chunk drawn
  from ``WorkloadModel.reference_chunks`` (``workloads.generate``);
  ``TraceCollector.process_chunk`` and the collector's closing
  ``result`` flush (``cache.filter``);
- ``analysis``: the Section 2 analyses (``analysis.sharing``,
  ``analysis.locality``, ``analysis.stats``) and
  ``prediction_accuracy`` (``accuracy.<policy>``).
"""

from __future__ import annotations

import contextlib
import functools
import os
from typing import Callable, Iterator, List, Tuple

import repro.kernels
from repro.analysis import locality, sharing
from repro.cache.pipeline import TraceCollector
from repro.evaluation import corpus
from repro.experiment import cache, results, runner
from repro.trace import stats
from repro.trace.trace import Trace
from repro.workloads.base import WorkloadModel

from spans import Tracer


def _timed(tracer: Tracer, name, after=None) -> Callable:
    """Wrapper factory: span ``name`` around a call, then ``after``.

    ``name`` is the span name, or a function of the call's arguments
    returning it (the cell label for replay and accuracy spans).
    """

    def wrap(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args, **kwargs)
            with tracer.span(span):
                value = original(*args, **kwargs)
            if after is not None:
                after(value, *args, **kwargs)
            return value

        return wrapper

    return wrap


def _chunks(tracer: Tracer) -> Callable:
    """Time every ``next()`` of the generation iterator."""

    def wrap(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                with tracer.span("workloads.generate"):
                    chunk = next(iterator, None)
                if chunk is None:
                    return
                tracer.count("workloads.references", len(chunk.nodes))
                yield chunk

        return wrapper

    return wrap


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the duration of the block."""

    def count(name, amount_of):
        return lambda value, *a, **k: tracer.count(name, amount_of(value))

    def replayed(value, protocol, trace, *args, **kwargs):
        tracer.count("replay.records", len(trace))

    def simulated(value, trace, *args, **kwargs):
        tracer.count("replay.records", len(trace))

    def load_outcome(value, *args, **kwargs):
        tracer.count("store.misses" if value is None else "store.hits")

    def written(value, trace, path, *args, **kwargs):
        tracer.count("store.bytes_written", os.path.getsize(path))

    def scored(value, *args, **kwargs):
        tracer.count("accuracy.predictions", value.predictions)

    patches: List[Tuple[object, str, Callable]] = [
        (runner, "evaluate_protocol", _timed(
            tracer, lambda protocol, trace, label=None, **k: "replay."
            + label, replayed)),
        (runner, "evaluate_runtime_raw", _timed(
            tracer, lambda trace, label, *a, **k: "replay." + label,
            simulated)),
        (repro.kernels, "try_timing_pass", _timed(tracer, "timing.pass")),
        (runner, "prediction_accuracy", _timed(
            tracer, lambda trace, policy, *a, **k: "accuracy." + policy,
            scored)),
        (runner.Runner, "run", _timed(tracer, "runner")),
        (runner, "run_cell", _timed(tracer, "cell")),
        (runner, "_normalize_runtime_records",
         _timed(tracer, "results.normalize")),
        (results.ResultSet, "to_json",
         _timed(tracer, "results.serialize")),
        (cache.TraceCache, "load",
         _timed(tracer, "store.load", load_outcome)),
        (cache, "write_trace",
         _timed(tracer, "store.write_trace", written)),
        (cache, "write_trace_binary",
         _timed(tracer, "store.write_bin", written)),
        (cache, "write_trace_v2",
         _timed(tracer, "store.write_bin2", written)),
        (Trace, "derived_columns", _timed(tracer, "derive")),
        (Trace, "block_keys", _timed(tracer, "derive")),
        (Trace, "block_keys_list", _timed(tracer, "derive")),
        (corpus, "create_workload", _timed(tracer, "workloads.generate")),
        (WorkloadModel, "reference_chunks", _chunks(tracer)),
        (TraceCollector, "process_chunk", _timed(
            tracer, "cache.filter", count("cache.records_kept", int))),
        (TraceCollector, "result", _timed(tracer, "cache.filter")),
        (sharing, "sharing_histogram", _timed(tracer, "analysis.sharing")),
        (sharing, "degree_of_sharing", _timed(tracer, "analysis.sharing")),
        (locality, "locality_cdf", _timed(tracer, "analysis.locality")),
        (stats, "compute_trace_stats", _timed(tracer, "analysis.stats")),
    ]
    originals = []
    try:
        for owner, attribute, wrap in patches:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, wrap(original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
