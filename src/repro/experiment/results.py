"""Structured sweep results.

A :class:`ResultSet` holds one record per evaluated configuration —
(workload, seed, label) plus a flat metrics mapping — together with
the spec that produced it and the trace-cache statistics of the run.
It renders as a tidy table, exports to JSON/CSV, round-trips through
JSON, and converts back to the evaluation layer's point dataclasses
for the existing ASCII plots.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.evaluation.report import format_table
from repro.evaluation.runtime import RuntimePoint
from repro.evaluation.tradeoff import TradeoffPoint
from repro.experiment.cache import CacheStats
from repro.experiment.spec import ExperimentSpec

PathLike = Union[str, "os.PathLike[str]"]

#: Serialization format version for saved result files.
RESULTS_FORMAT = 1


@dataclasses.dataclass
class PerfStats:
    """Observed throughput of one sweep execution.

    Deliberately *excluded* from serialization and equality: two runs
    of the same spec produce equal result sets regardless of how fast
    they ran (or whether the trace cache was warm).
    """

    records_processed: int = 0
    wall_seconds: float = 0.0
    #: Unified simulation backend the sweep executed under
    #: (``pure``/``native``; see :mod:`repro.common.backend`).
    backend: str = ""
    #: Native-kernel declines observed during the run, keyed
    #: ``"<kernel>:<reason>"`` (see
    #: :func:`repro.kernels.decline_counts`), under every executor
    #: (process-pool workers report theirs per cell).  Empty on the
    #: Python backends.  A nonzero tally explains a native run
    #: executing at Python-tier speed.
    native_declines: Dict[str, int] = dataclasses.field(
        default_factory=dict
    )
    #: Nanoseconds the native replay sessions spent per phase —
    #: ``marshal_ns``, ``compute_ns``, ``writeback_ns`` (see
    #: :func:`repro.kernels.phase_totals`), summed over every cell.
    #: Empty when no native replay ran.  Write-back stays 0 unless
    #: something read the replay state back into Python.
    native_phases: Dict[str, int] = dataclasses.field(
        default_factory=dict
    )

    @property
    def records_per_sec(self) -> float:
        """Trace records replayed per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.records_processed / self.wall_seconds

    def __str__(self) -> str:
        suffix = f", {self.backend} backend" if self.backend else ""
        text = (
            f"{self.records_processed:,} records in "
            f"{self.wall_seconds:.2f}s "
            f"({self.records_per_sec:,.0f} records/sec{suffix})"
        )
        if self.native_declines:
            tallies = ", ".join(
                f"{key} x{count}"
                for key, count in sorted(self.native_declines.items())
            )
            text += f"\nnative kernel declines: {tallies}"
        if any(self.native_phases.values()):
            phases = ", ".join(
                f"{label} {self.native_phases.get(key, 0) / 1e6:,.1f} ms"
                for key, label in (
                    ("marshal_ns", "marshal"),
                    ("compute_ns", "compute"),
                    ("writeback_ns", "write-back"),
                )
            )
            text += f"\nnative replay phases: {phases}"
        return text


@dataclasses.dataclass(frozen=True)
class CellFailure:
    """One sweep cell that exhausted its retries.

    Like :class:`PerfStats`, failures are run metadata, not results:
    they are excluded from serialization and equality, and a rerun
    that succeeds produces a result set equal to one that never
    failed.  ``error`` is the final exception's one-line description;
    ``traceback`` the full formatted traceback (empty when the
    executing worker only reported a message, e.g. across the fabric).
    """

    workload: str
    seed: int
    label: str
    error: str
    bandwidth: Optional[float] = None
    traceback: str = ""
    attempts: int = 1

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "workload": self.workload,
            "seed": self.seed,
            "label": self.label,
            "error": self.error,
            "attempts": self.attempts,
        }
        if self.bandwidth is not None:
            data["bandwidth"] = self.bandwidth
        if self.traceback:
            data["traceback"] = self.traceback
        return data

    def __str__(self) -> str:
        point = (
            f" @{self.bandwidth:g}GB/s" if self.bandwidth is not None
            else ""
        )
        return (
            f"{self.workload}/seed={self.seed}/{self.label}{point}: "
            f"{self.error} (after {self.attempts} attempt(s))"
        )


@dataclasses.dataclass(frozen=True)
class ResultRecord:
    """One evaluated configuration's metrics.

    ``bandwidth`` is the cell's link-bandwidth point (bytes/ns) when
    the producing spec swept ``link_bandwidths``; ``None`` — and
    absent from the serialized form, keeping pre-axis result files
    byte-stable — otherwise.
    """

    workload: str
    seed: int
    label: str
    metrics: Mapping[str, float]
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        # Freeze the mapping's canonical form so records compare and
        # serialize deterministically.
        object.__setattr__(self, "metrics", dict(self.metrics))

    def __getitem__(self, metric: str) -> float:
        return self.metrics[metric]

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "workload": self.workload,
            "seed": self.seed,
            "label": self.label,
            "metrics": dict(self.metrics),
        }
        if self.bandwidth is not None:
            data["bandwidth"] = self.bandwidth
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultRecord":
        return cls(
            workload=data["workload"],
            seed=data["seed"],
            label=data["label"],
            metrics=data["metrics"],
            bandwidth=data.get("bandwidth"),
        )


class ResultSet:
    """The outcome of running one :class:`ExperimentSpec`."""

    def __init__(
        self,
        spec: ExperimentSpec,
        records: Sequence[ResultRecord],
        cache_stats: Optional[CacheStats] = None,
        perf: Optional[PerfStats] = None,
        failures: Optional[Sequence[CellFailure]] = None,
    ):
        self.spec = spec
        self.records: List[ResultRecord] = list(records)
        self.cache_stats = (
            cache_stats if cache_stats is not None else CacheStats()
        )
        #: Throughput of the run that produced this set (not serialized;
        #: see :class:`PerfStats`).
        self.perf = perf if perf is not None else PerfStats()
        #: Cells that exhausted their retries this run — their records
        #: are absent above.  Run metadata like ``perf``: excluded
        #: from serialization and equality.
        self.failures: List[CellFailure] = list(failures or ())

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        """Equality of results: same spec, same records.

        Cache statistics are deliberately excluded — a warm-cache rerun
        of the same spec produces an *equal* result set.
        """
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.spec == other.spec and self.records == other.records

    def __repr__(self) -> str:
        failed = (
            f", failures={len(self.failures)}" if self.failures else ""
        )
        return (
            f"ResultSet(kind={self.spec.kind!r}, "
            f"records={len(self.records)}, cache={self.cache_stats}"
            f"{failed})"
        )

    # ------------------------------------------------------------------
    def labels(self) -> List[str]:
        """Distinct configuration labels, in first-seen order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.label)
        return list(seen)

    def for_workload(self, workload: str) -> List[ResultRecord]:
        """Records for one workload (all seeds/labels)."""
        return [r for r in self.records if r.workload == workload]

    def metric_names(self) -> List[str]:
        """Union of metric keys across records, in first-seen order."""
        names: Dict[str, None] = {}
        for record in self.records:
            for key in record.metrics:
                names.setdefault(key)
        return list(names)

    def has_bandwidth_axis(self) -> bool:
        """True when any record carries a bandwidth-sweep point."""
        return any(r.bandwidth is not None for r in self.records)

    def rows(self) -> List[Dict[str, Any]]:
        """Tidy-table rows: one flat dict per record.

        Bandwidth-sweep records contribute a ``bandwidth`` column;
        result sets without the axis keep the pre-axis row shape.
        """
        rows = []
        for r in self.records:
            row: Dict[str, Any] = {
                "workload": r.workload,
                "seed": r.seed,
                "label": r.label,
            }
            if r.bandwidth is not None:
                row["bandwidth"] = r.bandwidth
            row.update(r.metrics)
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    def table(self) -> str:
        """An aligned plain-text table of all records."""
        metrics = self.metric_names()
        with_bandwidth = self.has_bandwidth_axis()
        headers = ["workload", "seed", "config", *metrics]
        if with_bandwidth:
            headers.insert(3, "bandwidth")
        body = []
        for record in self.records:
            row = [record.workload, record.seed, record.label]
            if with_bandwidth:
                bandwidth = record.bandwidth
                row.append("" if bandwidth is None else f"{bandwidth:g}")
            for name in metrics:
                value = record.metrics.get(name, "")
                if isinstance(value, float):
                    value = f"{value:.2f}"
                row.append(value)
            body.append(row)
        return format_table(headers, body)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": RESULTS_FORMAT,
            "spec": self.spec.to_dict(),
            "records": [r.to_dict() for r in self.records],
            "cache": self.cache_stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultSet":
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            records=[
                ResultRecord.from_dict(r) for r in data["records"]
            ],
            cache_stats=CacheStats(**data.get("cache", {})),
        )

    def to_json(self, path: Optional[PathLike] = None, indent: int = 2) -> str:
        """JSON text of this result set; also written to ``path`` if given."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="ascii") as handle:
                handle.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: Union[str, PathLike]) -> "ResultSet":
        """Load a result set from JSON text or a saved file path."""
        if isinstance(source, str) and source.lstrip().startswith("{"):
            return cls.from_dict(json.loads(source))
        with open(source, "r", encoding="ascii") as handle:
            return cls.from_dict(json.load(handle))

    def to_csv(self, path: PathLike) -> None:
        """Write the tidy table as CSV (one row per record)."""
        metrics = self.metric_names()
        fieldnames = ["workload", "seed", "label", *metrics]
        if self.has_bandwidth_axis():
            fieldnames.insert(3, "bandwidth")
        with open(path, "w", encoding="ascii", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=fieldnames, restval=""
            )
            writer.writeheader()
            for row in self.rows():
                writer.writerow(row)

    # ------------------------------------------------------------------
    def tradeoff_points(self) -> List[TradeoffPoint]:
        """Records as :class:`TradeoffPoint` (``kind="tradeoff"`` only)."""
        points = []
        for r in self.records:
            m = r.metrics
            points.append(
                TradeoffPoint(
                    label=r.label,
                    workload=r.workload,
                    indirection_pct=m["indirection_pct"],
                    request_messages_per_miss=m["request_messages_per_miss"],
                    traffic_bytes_per_miss=m["traffic_bytes_per_miss"],
                    average_latency_ns=m["average_latency_ns"],
                    misses=int(m["misses"]),
                    retries=int(m["retries"]),
                )
            )
        return points

    def bandwidth_curves(
        self,
        metric: str = "runtime_ns",
        workload: Optional[str] = None,
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Per-label ``(bandwidth, metric)`` curves from a sweep.

        The paper's Figure 7/8 plane collapsed along one protocol
        axis: for each configuration label, how ``metric`` (default
        absolute runtime) moves as link bandwidth shrinks.  Records
        sharing a (label, bandwidth) point — multiple seeds, or
        multiple workloads unless ``workload`` narrows the selection
        to one panel — are averaged, so each curve has exactly one
        value per bandwidth.  Points are sorted by bandwidth; records
        without a bandwidth point (non-sweep runs) are skipped, so
        the result is empty for specs without the axis.
        """
        samples: Dict[str, Dict[float, List[float]]] = {}
        for record in self.records:
            if record.bandwidth is None:
                continue
            if workload is not None and record.workload != workload:
                continue
            samples.setdefault(record.label, {}).setdefault(
                record.bandwidth, []
            ).append(record.metrics[metric])
        return {
            label: [
                (bandwidth, sum(values) / len(values))
                for bandwidth, values in sorted(by_bandwidth.items())
            ]
            for label, by_bandwidth in samples.items()
        }

    def runtime_points(self) -> List[RuntimePoint]:
        """Records as :class:`RuntimePoint` (``kind="runtime"`` only)."""
        points = []
        for r in self.records:
            m = r.metrics
            points.append(
                RuntimePoint(
                    label=r.label,
                    workload=r.workload,
                    normalized_runtime=m["normalized_runtime"],
                    normalized_traffic_per_miss=(
                        m["normalized_traffic_per_miss"]
                    ),
                    runtime_ns=m["runtime_ns"],
                    traffic_bytes_per_miss=m["traffic_bytes_per_miss"],
                    indirection_pct=m["indirection_pct"],
                )
            )
        return points
