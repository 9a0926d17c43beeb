"""Persistent on-disk trace cache.

The paper collects each workload trace once and reuses it for every
protocol/predictor experiment.  :class:`TraceCache` extends that reuse
across processes and runs: a collected trace is written to disk keyed
by a hash of everything that determines its content — workload name,
reference count, seed, the full :class:`SystemConfig`, and a format
version salted with the package version.  Any configuration change
produces a different key, so stale traces are never replayed.

:class:`PersistentTraceCorpus` layers the disk cache under the
in-memory :class:`~repro.evaluation.corpus.TraceCorpus`, so a sweep's
worker processes (and repeated invocations of ``repro sweep``) skip
trace regeneration entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import threading
from typing import Optional, Union

from repro.cache.pipeline import CollectionResult
from repro.common.atomicio import tmp_sibling, write_text_atomic
from repro.common.params import PredictorConfig, SystemConfig
from repro.evaluation.corpus import TraceCorpus
from repro.trace.io import read_trace_v2, write_trace_v2

# The store writes only ``.bin2``, but these two writers stay bound
# here: the whole-paper benchmark's traced run wraps them by name in
# this module's namespace (its ``store.write_trace``/``store.write_bin``
# spans, which therefore read zero) and fails on a missing attribute.
from repro.trace.io import write_trace, write_trace_binary  # noqa: F401

#: Bump when the on-disk layout or trace semantics change.
#: Format 2: traces come from the chunked (columnar) generation
#: engine, whose counter-based draw streams differ from the scalar
#: Mersenne-Twister path that produced format-1 entries.
CACHE_FORMAT = 2

#: Version salt baked into every trace key.  Historically this was the
#: package version, which invalidated the whole corpus on every
#: release even when trace generation was untouched; it is now pinned
#: at the last value that shipped that scheme and bumped — together
#: with :data:`CACHE_FORMAT` — only when generated trace content
#: actually changes.
TRACE_KEY_VERSION = "1.4.0"

#: ``SystemConfig`` fields that shape *timing* but never trace
#: content, excluded from trace keys: interconnect choice and hop
#: latency alter when transactions complete, not which references
#: miss.  (``link_bandwidth_bytes_per_ns`` is equally timing-only but
#: predates the split and stays in the key for backward
#: compatibility with existing corpora.)
_TIMING_ONLY_FIELDS = ("interconnect", "hop_latency_ns")

PathLike = Union[str, "os.PathLike[str]"]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def derived_config(config: SystemConfig) -> dict:
    """The v2 sidecar's persisted derived-column configuration.

    Derived replay columns are a pure function of the base columns
    plus these constants, so persisting them versions the *sidecar*,
    never the trace key (:data:`CACHE_FORMAT` stays put).  The index
    granularity is the paper's reference predictor indexing
    (:class:`PredictorConfig` default); sweeps that override it still
    load the v2 base columns zero-copy and recompute the index keys.
    """
    return {
        "block_size": config.block_size,
        "macroblock_size": config.macroblock_size,
        "n_processors": config.n_processors,
        "index_granularity": PredictorConfig().index_granularity,
    }


def default_cache_dir() -> pathlib.Path:
    """The trace-cache directory (``$REPRO_CACHE_DIR`` or ~/.cache)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro" / "traces"


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total load attempts."""
        return self.hits + self.misses

    def merge(self, other: "CacheStats") -> None:
        """Fold another instance's counters into this one."""
        self.hits += other.hits
        self.misses += other.misses

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}

    def __str__(self) -> str:
        return f"{self.hits} hit(s), {self.misses} miss(es)"


class TraceCache:
    """Content-addressed trace storage under one directory.

    Each entry is two files: ``<key>.bin2``, the v2 columnar trace
    served zero-copy via ``mmap`` (see :func:`read_trace_v2`), and a
    ``<key>.json`` sidecar holding the collection counters and the
    human-readable key fields (for inspection and debugging).  An
    entry whose ``.bin2`` is missing, torn, truncated, or otherwise
    rejected by the loader is a miss: :class:`PersistentTraceCorpus`
    regenerates the trace and stores the entry again, which heals it
    (the content is deterministic, so the rewrite is byte-identical).
    Writes go through a temporary file and :func:`os.replace`, so
    concurrent workers storing the same key race benignly.

    ``derived`` configures which derived replay columns the v2
    sidecar persists (see :func:`derived_config`); None writes base
    columns only.
    """

    def __init__(self, root: PathLike, derived: Optional[dict] = None):
        self.root = pathlib.Path(root)
        self.derived = derived
        self.stats = CacheStats()
        # Threaded sweeps share one cache across cells; the counter
        # read-modify-writes below are not atomic once kernels drop
        # the GIL, so they serialize here.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    @staticmethod
    def key(
        workload: str,
        n_references: int,
        seed: int,
        config: SystemConfig,
    ) -> str:
        """Deterministic digest of everything that shapes the trace.

        Timing-only configuration (interconnect kind, hop latency) is
        excluded: traces record *which* references miss, not when the
        resulting transactions complete, so one cached trace serves
        every interconnect/bandwidth cell of a sweep — and keys minted
        before those fields existed still resolve.
        """
        system = dataclasses.asdict(config)
        for field in _TIMING_ONLY_FIELDS:
            system.pop(field, None)
        payload = json.dumps(
            {
                "format": CACHE_FORMAT,
                "version": TRACE_KEY_VERSION,
                "workload": workload,
                "n_references": n_references,
                "seed": seed,
                "system": system,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:24]

    def _paths(self, key: str) -> tuple:
        return self.root / f"{key}.json", self.root / f"{key}.bin2"

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[CollectionResult]:
        """The stored collection for ``key``, or None (counts stats).

        An entry the loader rejects — missing files, a torn,
        truncated or foreign-byteorder ``.bin2``, an unparsable or
        malformed sidecar — is a miss, never an exception.
        """
        meta_path, v2_path = self._paths(key)
        try:
            meta = json.loads(meta_path.read_text(encoding="ascii"))
            if not isinstance(meta, dict) or not isinstance(
                meta.get("instructions"), dict
            ):
                raise ValueError(f"{meta_path}: malformed sidecar")
            trace = read_trace_v2(v2_path)
            instructions = {
                int(node): count
                for node, count in meta["instructions"].items()
            }
            references = meta["references"]
        except (OSError, ValueError, KeyError, RecursionError):
            with self._stats_lock:
                self.stats.misses += 1
            return None
        with self._stats_lock:
            self.stats.hits += 1
        return CollectionResult(
            trace=trace,
            instructions=instructions,
            references=references,
        )

    def store(
        self,
        key: str,
        result: CollectionResult,
        describe: Optional[dict] = None,
    ) -> None:
        """Persist ``result`` under ``key`` (atomically)."""
        self.root.mkdir(parents=True, exist_ok=True)
        meta_path, v2_path = self._paths(key)
        meta = {
            "instructions": {
                str(node): count
                for node, count in result.instructions.items()
            },
            "references": result.references,
            "describe": describe or {},
        }
        tmp_v2 = tmp_sibling(v2_path)
        try:
            write_trace_v2(result.trace, tmp_v2, self.derived)
            # Trace columns first: load() opens the JSON sidecar before
            # the trace, so a concurrent reader either misses
            # (regenerates, benign) or sees a complete entry — never a
            # torn one.
            os.replace(tmp_v2, v2_path)
            write_text_atomic(meta_path, json.dumps(meta, sort_keys=True))
        finally:
            try:
                os.unlink(tmp_v2)
            except OSError:
                pass

    def clear(self) -> int:
        """Delete every cache entry; returns the number of files removed.

        Leftover ``.trace``/``.bin`` files that older stores wrote per
        entry (never read now) go too.
        """
        removed = 0
        if self.root.is_dir():
            for path in self.root.iterdir():
                if path.suffix in (".json", ".bin2", ".trace", ".bin"):
                    path.unlink()
                    removed += 1
        return removed


class PersistentTraceCorpus(TraceCorpus):
    """A :class:`TraceCorpus` backed by an on-disk :class:`TraceCache`.

    In-memory memoization still applies within a process; on a memory
    miss the disk cache is consulted before the (expensive) workload
    model regenerates the trace.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        cache_dir: Optional[PathLike] = None,
    ):
        super().__init__(config)
        self.disk = TraceCache(
            cache_dir if cache_dir is not None else default_cache_dir(),
            derived=derived_config(self.config),
        )

    @property
    def cache_stats(self) -> CacheStats:
        """Disk-level hit/miss counters for this corpus."""
        return self.disk.stats

    def _generate(
        self, workload: str, n_references: int, seed: int
    ) -> CollectionResult:
        key = self.disk.key(workload, n_references, seed, self.config)
        cached = self.disk.load(key)
        if cached is not None:
            return cached
        result = super()._generate(workload, n_references, seed)
        self.disk.store(
            key,
            result,
            describe={
                "workload": workload,
                "n_references": n_references,
                "seed": seed,
            },
        )
        return result


def make_corpus(
    config: Optional[SystemConfig] = None,
    cache_dir: Optional[PathLike] = None,
) -> TraceCorpus:
    """A corpus with (``cache_dir`` set) or without disk persistence."""
    if cache_dir is None:
        return TraceCorpus(config)
    return PersistentTraceCorpus(config, cache_dir)
