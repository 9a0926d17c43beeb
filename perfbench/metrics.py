"""Metric names, units and the layer -> workload map they come from.

End-to-end metrics are measured with tracing off, one value per
workload.  Per-layer metrics come from the traced run, which runs
every workload, so each is named ``<workload>.<layer metric>`` for the
workload whose end-to-end numbers that layer should move.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, List, Tuple

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change counts as a
#: regression.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("records_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("store_mb", "MB", "lower", 0.05),
)

PAPER_LABELS = ("directory", "broadcast-snooping", "owner",
                "broadcast-if-shared", "group", "owner-group")
ACCURACY_POLICIES = ("owner", "broadcast-if-shared", "group",
                     "owner-group")

#: Span self times reported per workload, by span name.
SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "paper_warm": tuple(f"replay.{label}" for label in PAPER_LABELS) + (
        "timing.pass", "runner.overhead", "results.normalize",
        "results.serialize", "store.load", "derive", "unattributed",
    ),
    "corpus_cold": (
        "workloads.generate", "cache.filter", "store.load",
        "store.write_trace", "store.write_bin", "store.write_bin2",
        "derive", "analysis.sharing", "analysis.locality",
        "analysis.stats", "unattributed",
    ),
    "accuracy_warm": tuple(
        f"accuracy.{policy}" for policy in ACCURACY_POLICIES
    ) + (
        "runner.overhead", "results.normalize", "results.serialize",
        "store.load", "unattributed",
    ),
}

#: Counts (and ratios of counts) reported per workload: (name, unit).
COUNT_METRICS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "paper_warm": (
        ("replay.records", "count"), ("kernels.declines", "count"),
        ("store.hits", "count"), ("store.misses", "count"),
    ),
    "corpus_cold": (
        ("workloads.references", "count"),
        ("cache.records_per_reference", "ratio"),
        ("store.misses", "count"), ("store.bytes_written", "bytes"),
        ("kernels.declines", "count"),
    ),
    "accuracy_warm": (
        ("accuracy.predictions", "count"), ("kernels.declines", "count"),
        ("store.hits", "count"), ("store.misses", "count"),
    ),
}

WORKLOAD_NAMES = tuple(SPAN_METRICS)

#: Layer metric prefix -> the end-to-end metric it should move, where.
SHOULD_MOVE = (
    ("replay.", "paper_warm records_per_s; nothing on corpus_cold"),
    ("kernels.", "records_per_s wherever nonzero: a decline runs Python"),
    ("timing.", "paper_warm records_per_s (runtime half)"),
    ("runner.", "all workloads, small"),
    ("results.", "all workloads, small"),
    ("store.write", "corpus_cold records_per_s and store_mb"),
    ("store.bytes", "corpus_cold records_per_s and store_mb"),
    ("store.", "paper_warm, accuracy_warm (small)"),
    ("derive", "paper_warm, small while .bin2 serves derived columns"),
    ("workloads.", "corpus_cold records_per_s; warm workloads' setup_s"),
    ("cache.", "corpus_cold records_per_s; warm workloads' setup_s"),
    ("analysis.", "corpus_cold records_per_s"),
    ("accuracy.", "accuracy_warm records_per_s and nothing else"),
    ("unattributed", "pass time no layer span covers"),
    ("traced.", "tracing overhead against the untraced run"),
)


def should_move(metric: str) -> str:
    """The end-to-end metric a layer metric should move."""
    for prefix, target in SHOULD_MOVE:
        if metric.startswith(prefix):
            return target
    return ""


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    rows = []
    for workload in WORKLOAD_NAMES:
        for span in SPAN_METRICS[workload]:
            rows.append((f"{workload}.{span}.s", "s", "lower"))
        for count, unit in COUNT_METRICS[workload]:
            better = "lower" if count in (
                "kernels.declines", "store.misses",
                "store.bytes_written",
            ) else "higher"
            rows.append((f"{workload}.{count}", unit, better))
        rows.append(
            (f"{workload}.traced.records_per_s", "1/s", "higher")
        )
    return rows


def layer_values(self_times: Dict[str, float],
                 counters: Dict[str, float], workload: str
                 ) -> Dict[str, float]:
    """One pass's per-layer values from its span self times/counters."""
    merged = dict(self_times)
    merged["unattributed"] = self_times.get("pass", 0.0)
    merged["runner.overhead"] = (
        self_times.get("runner", 0.0) + self_times.get("cell", 0.0)
    )
    values = {f"{name}.s": merged.get(name, 0.0)
              for name in SPAN_METRICS[workload]}
    counts = dict(counters)
    references = counts.get("workloads.references", 0)
    counts["cache.records_per_reference"] = (
        counts.get("cache.records_kept", 0) / references
        if references else 0.0
    )
    for name, _unit in COUNT_METRICS[workload]:
        values[name] = counts.get(name, 0)
    return values


def median_values(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over passes."""
    return {
        name: statistics.median(values[name] for values in passes)
        for name in passes[0]
    }


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
