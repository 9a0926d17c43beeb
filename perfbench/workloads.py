"""The benchmark's three workloads, each a fixed input timed in passes.

Every workload has the same shape:

- ``setup()`` does the work before the first timed pass once and
  returns its seconds; run.py repeats it and keeps the last state;
- ``run_pass(region)`` is one timed pass over the whole input, run
  inside the context manager ``region`` (a traced run passes its pass
  span there), and returns a :class:`PassResult` (records
  processed, seconds, one digest per operation, cell failures);
- ``reference()`` produces the digests the passes must match, from a
  path the timed passes do not take: pinned digests for the default
  seed, or a ``pure``-backend run outside the timed window.

The benchmark calls only public entry points of the ``repro`` package
(``Runner``, ``PersistentTraceCorpus``, the analysis functions); the
traced run times those calls from outside (see ``layers.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional

from repro.analysis import locality, sharing
from repro.common import backend
from repro.common.params import SystemConfig
from repro.evaluation.corpus import TraceCorpus
from repro.experiment import ExperimentSpec, Runner
from repro.experiment.cache import PersistentTraceCorpus
from repro.trace import stats
from repro.workloads.registry import WORKLOAD_NAMES, create_workload

#: Trace length of the warm tradeoff/runtime sweeps and the cold
#: collection: the ``ExperimentSpec`` default.
PAPER_REFERENCES = 100_000
#: Accuracy trace length: one accuracy pass over oltp + ocean takes a
#: few seconds on the per-record scoring path.
ACCURACY_REFERENCES = 10_000
ACCURACY_WORKLOADS = ("oltp", "ocean")
LOCALITY_KINDS = ("block", "macroblock", "pc")

REFERENCE_FILE = os.path.join(os.path.dirname(__file__), "reference.json")


def digest(payload) -> str:
    """Short stable digest of a JSON-serializable payload."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def record_key(kind: str, record) -> str:
    return f"{kind}/{record.workload}/{record.label}"


def result_digests(kind: str, result_set) -> Dict[str, str]:
    """One digest per result record (never ``ResultSet.to_json``,
    which embeds the run's cache hit/miss counters)."""
    return {
        record_key(kind, record): digest(record.to_dict())
        for record in result_set.records
    }


def directory_bytes(path: str) -> int:
    """Bytes held by the regular files directly under ``path``."""
    return sum(
        entry.stat().st_size for entry in os.scandir(path)
        if entry.is_file()
    )


def pinned_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Digests pinned for ``seed`` (computed on the pure backend)."""
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        pinned = json.load(handle)
    return pinned.get(workload, {}).get(str(seed))


@dataclasses.dataclass
class PassResult:
    """What one timed pass produced."""

    records: int
    seconds: float
    digests: Dict[str, str]
    failures: List[str] = dataclasses.field(default_factory=list)
    #: Set by run.py: native-kernel declines during the pass, and
    #: the host speed around it (see ``calibrate.py``).
    declines: int = 0
    speed: float = 1.0


class _Workload:
    """Shared plumbing: a private directory under the work root."""

    name = ""

    def __init__(self, seed: int, work_root: str):
        self.seed = seed
        self.work_root = work_root
        self.config = SystemConfig()
        self.store_dir: Optional[str] = None

    def _fresh_dir(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-{label}-",
                                dir=self.work_root)

    def store_bytes(self) -> int:
        return directory_bytes(self.store_dir) if self.store_dir else 0

    def trace_sizes(self) -> Dict[str, int]:
        return {}

    def fidelity(self) -> Dict[str, Dict[str, float]]:
        """Simulated figures beside the paper's, where the repo has them."""
        return {}

    def close(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def reference(self) -> Dict[str, str]:
        pinned = pinned_digests(self.name, self.seed)
        if pinned is not None:
            return pinned
        with backend.use("pure"):
            return self.pure_reference()

    def pure_reference(self, full: bool = False) -> Dict[str, str]:
        """Digests from a ``pure``-backend run on freshly generated
        traces; ``full`` covers every operation, not only the slice a
        run checks."""
        raise NotImplementedError

    def reference_workloads(self) -> tuple:
        # The pure backend takes ~5x native's time on the six-workload
        # passes, so an unpinned seed checks one workload (rotating
        # with the seed) against it and the rest against the first pass.
        return (WORKLOAD_NAMES[self.seed % len(WORKLOAD_NAMES)],)


class _WarmSweep(_Workload):
    """Runner sweeps over a trace store warmed during set-up."""

    kinds: tuple = ()
    workloads: tuple = ()
    n_references = 0

    def __init__(self, seed: int, work_root: str):
        super().__init__(seed, work_root)
        #: Simulated directory indirection % per workload, last pass.
        self.indirections: Dict[str, float] = {}

    def specs(self, workloads=None) -> List[ExperimentSpec]:
        return [
            ExperimentSpec(
                workloads=workloads or self.workloads,
                kind=kind,
                name=f"{self.name}-{kind}",
                n_references=self.n_references,
                seeds=(self.seed,),
            )
            for kind in self.kinds
        ]

    def setup(self) -> float:
        """Populate a fresh store, then load every entry from it."""
        started = time.perf_counter()
        store = self._fresh_dir("store")
        corpus = PersistentTraceCorpus(self.config, store)
        for workload in self.workloads:
            corpus.collect(workload, self.n_references, self.seed)
        loader = PersistentTraceCorpus(self.config, store)
        for workload in self.workloads:
            loader.collect(workload, self.n_references, self.seed)
        elapsed = time.perf_counter() - started
        if loader.cache_stats.misses:
            raise RuntimeError(f"{self.name}: set-up store did not load")
        self.close()
        self.store_dir = store
        return elapsed

    def trace_sizes(self) -> Dict[str, int]:
        corpus = PersistentTraceCorpus(self.config, self.store_dir)
        return {
            workload: len(
                corpus.trace(workload, self.n_references, self.seed)
            )
            for workload in self.workloads
        }

    def run_pass(self, region=contextlib.nullcontext) -> PassResult:
        records = 0
        digests: Dict[str, str] = {}
        failures: List[str] = []
        result_sets = []
        with region():
            started = time.perf_counter()
            runner = Runner(jobs=1, cache_dir=self.store_dir)
            for spec in self.specs():
                result_set = runner.run(spec)
                result_set.to_json()
                result_sets.append((spec.kind, result_set))
            elapsed = time.perf_counter() - started
        for kind, result_set in result_sets:
            for record in result_set.records:
                if kind == "tradeoff" and record.label == "directory":
                    self.indirections[record.workload] = record[
                        "indirection_pct"]
            records += self.records_of(result_set)
            digests.update(result_digests(kind, result_set))
            failures.extend(
                f"{f.workload}/{f.label}: {f.error}"
                for f in result_set.failures
            )
        return PassResult(records, elapsed, digests, failures)

    def records_of(self, result_set) -> int:
        return result_set.perf.records_processed


class PaperWarm(_WarmSweep):
    """Figures 5/6 and 7/8: tradeoff + runtime sweeps, six workloads."""

    name = "paper_warm"
    kinds = ("tradeoff", "runtime")
    workloads = WORKLOAD_NAMES
    n_references = PAPER_REFERENCES

    def fidelity(self) -> Dict[str, Dict[str, float]]:
        """Directory indirections: the paper's Table 2 column beside the
        simulated tradeoff value (information, not a gated metric)."""
        return {
            workload: {
                "paper_pct": create_workload(
                    workload, config=self.config, seed=self.seed
                ).paper.directory_indirection_pct,
                "simulated_pct": self.indirections[workload],
            }
            for workload in self.workloads
        }

    def pure_reference(self, full: bool = False) -> Dict[str, str]:
        corpus = TraceCorpus(self.config)
        runner = Runner(jobs=1, corpus=corpus)
        digests: Dict[str, str] = {}
        workloads = None if full else self.reference_workloads()
        for spec in self.specs(workloads):
            digests.update(result_digests(spec.kind, runner.run(spec)))
        return digests


class AccuracyWarm(_WarmSweep):
    """Per-record destination-set scoring of the four paper policies."""

    name = "accuracy_warm"
    kinds = ("accuracy",)
    workloads = ACCURACY_WORKLOADS
    n_references = ACCURACY_REFERENCES

    def records_of(self, result_set) -> int:
        # Records scored: the post-warm-up records of every cell.
        return sum(int(r["predictions"]) for r in result_set.records)

    def pure_reference(self, full: bool = False) -> Dict[str, str]:
        runner = Runner(jobs=1, corpus=TraceCorpus(self.config))
        (spec,) = self.specs()
        return result_digests(spec.kind, runner.run(spec))


def analyse(collection) -> Dict[str, object]:
    """Section 2 analyses of one collected trace."""
    trace = collection.trace
    outputs: Dict[str, object] = {
        "sharing": sharing.sharing_histogram(trace),
        "degree": sharing.degree_of_sharing(trace),
    }
    for kind in LOCALITY_KINDS:
        outputs[f"locality-{kind}"] = locality.locality_cdf(trace, kind)
    outputs["stats"] = stats.compute_trace_stats(trace)
    return outputs


def collection_digest(workload: str, collection, outputs) -> str:
    """Digest of a collected trace's columns, counters and analyses."""
    trace = collection.trace
    columns = hashlib.sha256()
    for column in (trace.addresses, trace.pcs, trace.requesters,
                   trace.accesses, trace.instructions):
        columns.update(memoryview(column).cast("B"))
    return digest({
        "workload": workload,
        "records": len(trace),
        "columns": columns.hexdigest(),
        "instructions": collection.instructions,
        "references": collection.references,
        "analyses": {name: dataclasses.asdict(output)
                     for name, output in outputs.items()},
    })


class CorpusCold(_Workload):
    """Collect all six workloads into an empty store, then analyse."""

    name = "corpus_cold"
    n_references = PAPER_REFERENCES

    def __init__(self, seed: int, work_root: str):
        super().__init__(seed, work_root)
        self._sizes: Dict[str, int] = {}
        self._store_bytes = 0

    def setup(self) -> float:
        # Nothing persists between cold passes: each starts from an
        # empty store directory, so set-up is the imports alone.
        return 0.0

    def store_bytes(self) -> int:
        return self._store_bytes

    def trace_sizes(self) -> Dict[str, int]:
        return dict(self._sizes)

    def run_pass(self, region=contextlib.nullcontext) -> PassResult:
        store = self._fresh_dir("cold")
        try:
            collected = []
            with region():
                started = time.perf_counter()
                corpus = PersistentTraceCorpus(self.config, store)
                for workload in WORKLOAD_NAMES:
                    collection = corpus.collect(
                        workload, self.n_references, self.seed
                    )
                    collected.append(
                        (workload, collection, analyse(collection))
                    )
                elapsed = time.perf_counter() - started
            self._store_bytes = directory_bytes(store)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        digests = {}
        records = 0
        for workload, collection, outputs in collected:
            records += len(collection.trace)
            self._sizes[workload] = len(collection.trace)
            digests[f"collect/{workload}"] = collection_digest(
                workload, collection, outputs
            )
        return PassResult(records, elapsed, digests)

    def pure_reference(self, full: bool = False) -> Dict[str, str]:
        corpus = TraceCorpus(self.config)
        digests = {}
        workloads = (WORKLOAD_NAMES if full
                     else self.reference_workloads())
        for workload in workloads:
            collection = corpus.collect(
                workload, self.n_references, self.seed
            )
            digests[f"collect/{workload}"] = collection_digest(
                workload, collection, analyse(collection)
            )
        return digests


WORKLOADS = {
    cls.name: cls for cls in (PaperWarm, CorpusCold, AccuracyWarm)
}
