"""Cold-path equivalence: batched generation and columnar analyses.

Three contracts, each enforced byte-for-byte:

1. **Accelerator equivalence** — the chunked generation engine
   produces bit-identical traces with the numpy accelerator on and
   off (``columns.set_backend("numpy"/"python")``, both under the
   ``pure`` replay tier) for every workload in the registry (two
   seeds each), and is invariant to the chunk size.
2. **Collector equivalence** — the chunk-consuming collector fast
   path, fed the scalar oracle stream, matches the original
   record-at-a-time collector exactly (trace bytes and counters).
3. **Analysis equivalence** — the columnar analysis kernels equal the
   retained record-loop oracles on real traces.
"""

import pytest

from repro.cache.pipeline import TraceCollector
from repro.analysis.locality import locality_cdf, locality_cdf_records
from repro.analysis.sharing import (
    degree_of_sharing,
    degree_of_sharing_records,
    sharing_histogram,
    sharing_histogram_records,
)
from repro.trace import columns
from repro.trace.stats import (
    compute_trace_stats,
    compute_trace_stats_records,
)
from repro.workloads import WORKLOAD_NAMES, create_workload
from repro.workloads.genchunks import chunks_from_references

N_REFERENCES = 6_000
SEEDS = (42, 7)

HAS_NUMPY = columns._import_numpy() is not None

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy backend not installed"
)


def trace_bytes(trace):
    """The five raw columns, concatenated — the byte-identity probe."""
    return (
        trace.addresses.tobytes()
        + trace.pcs.tobytes()
        + trace.requesters.tobytes()
        + trace.accesses.tobytes()
        + trace.instructions.tobytes()
    )


@pytest.fixture
def restore_backend():
    yield
    columns.set_backend("auto")


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestBackendEquivalence:
    def test_numpy_and_pure_python_traces_identical(
        self, name, seed, restore_backend
    ):
        columns.set_backend("numpy")
        vectorized = create_workload(name, seed=seed).collect(
            N_REFERENCES
        )
        columns.set_backend("python")
        fallback = create_workload(name, seed=seed).collect(
            N_REFERENCES
        )
        assert trace_bytes(vectorized.trace) == trace_bytes(
            fallback.trace
        )
        assert vectorized.instructions == fallback.instructions
        assert vectorized.references == fallback.references


class TestChunkInvariance:
    @pytest.mark.parametrize("name", ("oltp", "ocean"))
    def test_chunk_size_does_not_change_the_stream(self, name):
        results = []
        for chunk_size in (512, 4_096):
            model = create_workload(name)
            collector = TraceCollector(
                model.scaled_config(), name=model.name
            )
            collector.run_chunks(
                model.reference_chunks(5_000, chunk_size)
            )
            results.append(trace_bytes(collector.result().trace))
        assert results[0] == results[1]

    def test_generation_is_deterministic_and_seed_sensitive(self):
        same_a = create_workload("apache", seed=3).collect(2_000)
        same_b = create_workload("apache", seed=3).collect(2_000)
        other = create_workload("apache", seed=4).collect(2_000)
        assert trace_bytes(same_a.trace) == trace_bytes(same_b.trace)
        assert trace_bytes(same_a.trace) != trace_bytes(other.trace)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestCollectorEquivalence:
    def test_chunk_collector_matches_per_record_collector(self, name):
        model = create_workload(name)
        oracle = model.collect(N_REFERENCES, batched=False)

        replay = create_workload(name)
        collector = TraceCollector(
            replay.scaled_config(), name=replay.name
        )
        result = collector.run_chunks(
            chunks_from_references(
                replay.references(N_REFERENCES), chunk_size=1_024
            )
        )
        assert trace_bytes(oracle.trace) == trace_bytes(result.trace)
        assert oracle.instructions == result.instructions
        assert oracle.references == result.references


class TestAnalysisKernelsMatchOracles:
    @pytest.fixture(scope="class")
    def trace(self):
        return create_workload("oltp").collect(20_000).trace

    def test_sharing_histogram(self, trace):
        assert sharing_histogram(trace) == sharing_histogram_records(
            trace
        )

    def test_degree_of_sharing(self, trace):
        for block_size in (None, 1024):
            assert degree_of_sharing(
                trace, block_size
            ) == degree_of_sharing_records(trace, block_size)

    def test_locality_cdf(self, trace):
        for kind in ("block", "macroblock", "pc"):
            assert locality_cdf(trace, kind) == locality_cdf_records(
                trace, kind
            )

    def test_trace_stats(self, trace):
        assert compute_trace_stats(trace) == compute_trace_stats_records(
            trace
        )
