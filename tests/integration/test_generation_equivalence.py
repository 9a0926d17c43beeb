"""Cold-path equivalence: batched generation and columnar analyses.

Three contracts, each enforced byte-for-byte:

1. **Tier equivalence** — the chunked generation engine produces
   bit-identical traces with the numpy accelerator on and off
   (``columns.set_backend("numpy"/"python")``, both under the ``pure``
   replay tier) for every workload in the registry (two seeds each),
   and is invariant to the chunk size; the native generator's chunks
   equal the pure-Python oracle's element by element.
2. **Collector equivalence** — the chunk-consuming collector fast
   path, fed the scalar oracle stream, matches the original
   record-at-a-time collector exactly (trace bytes and counters).
3. **Analysis equivalence** — the columnar analysis kernels equal the
   retained record-loop oracles on real traces and on an adversarial
   one, and the Figure 2/4 MOSI replay agrees across native, numpy and
   the record oracle on generated traces.
"""

import itertools
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.analysis.sharing import _required_counts_np
from repro.cache.pipeline import TraceCollector
from repro.coherence.state import GlobalCoherenceState
from repro.common import backend as _backend
from repro.common.destset import popcount
from repro.trace.trace import Trace
from repro.workloads.genchunks import ChunkedReferenceSource
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
needs_native = pytest.mark.skipif(
    not kernels.native_available(),
    reason="native kernel extension not built"
    " (`python -m repro.kernels.build`)",
)

CHUNK_FIELDS = ("nodes", "addresses", "pcs", "writes", "instructions")


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


@needs_native
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_native_chunks_equal_pure_python_chunks(name, seed):
    """``_native.Generator`` fills the oracle's stream, at any chunk
    size (positions and region counters never depend on it)."""
    model = create_workload(name, seed=seed)
    oracle = ChunkedReferenceSource(model)._chunk_py(0, N_REFERENCES)
    expected = [list(getattr(oracle, f)) for f in CHUNK_FIELDS]
    for chunk_size in (N_REFERENCES, 1_000, 97, 1):
        with _backend.use("native"):
            chunks = list(
                model.reference_chunks(N_REFERENCES, chunk_size)
            )
        assert all(type(c.nodes) is array for c in chunks)
        for field, column in zip(CHUNK_FIELDS, expected):
            generated = list(itertools.chain.from_iterable(
                getattr(c, field) for c in chunks
            ))
            assert generated == column, (field, chunk_size)


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


def _trace_of(n_processors, rows):
    trace = Trace(n_processors=n_processors)
    for address, requester, is_getx in rows:
        trace.append_fields(address, 0, requester, is_getx, 1)
    return trace


def test_degree_of_sharing_keeps_far_apart_blocks_apart():
    """Block keys >= 2**63 / n_procs once wrapped when packed with
    the requester into one int64, merging two blocks into one."""
    for base in (0, 1 << 62):
        # Far apart (sorted as two keys) and high but close (packed
        # relative to the smallest key).
        for far in (1 << 60, 0x40):
            trace = _trace_of(16, ((base + 0x40, 0, 0), (base + 0x40, 2, 0),
                                   (base + 0x40 + far, 1, 0)))
            for block_size in (None, 1024):
                assert degree_of_sharing(trace, block_size) == (
                    degree_of_sharing_records(trace, block_size)
                )
    assert degree_of_sharing(trace).unique_blocks == 2


def _oracle_counts(trace, block_size):
    state = GlobalCoherenceState(trace.n_processors, block_size)
    return [
        popcount(state.apply_fast(block, requester, code)[3])
        for block, requester, code in zip(
            trace.block_keys(block_size), trace.requesters,
            trace.accesses,
        )
    ]


@st.composite
def _mosi_traces(draw):
    n = draw(st.sampled_from((1, 2, 5, 16, 62, 63, 64, 65, 128)))
    blocks = draw(st.lists(
        st.sampled_from((0, 1, 2, 3, 1 << 20, (1 << 56) - 1)),
        min_size=1, max_size=4, unique=True,
    ))
    rows = draw(st.lists(
        st.tuples(st.sampled_from(blocks), st.integers(0, n - 1),
                  st.integers(0, 1)),
        min_size=1, max_size=80,
    ))
    return n, [(block * 64 + 5, r, x) for block, r, x in rows]


@needs_numpy
@settings(max_examples=150, deadline=None)
@given(_mosi_traces())
def test_required_counts_native_numpy_and_record_oracle_agree(case):
    """The Figure 2/4 replay: native ≡ numpy closed form ≡ records."""
    n_processors, rows = case
    trace = _trace_of(n_processors, rows)
    np_ = columns._import_numpy()
    expected = _oracle_counts(trace, 64)
    counts, getx_mask = _required_counts_np(np_, trace, 64)
    assert counts.tolist() == expected
    assert getx_mask.tolist() == [bool(x) for _, _, x in rows]
    if kernels.native_available():
        with _backend.use("native"):
            native = kernels.try_required_counts(trace, 64)
        assert array("q", native).tolist() == expected
    assert degree_of_sharing(trace) == degree_of_sharing_records(trace)
