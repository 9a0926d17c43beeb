"""Unit tests for the columnar trace backend and trusted fast paths."""

import pytest

from repro.common.destset import DestinationSet
from repro.common.types import AccessType
from repro.trace import Trace, TraceRecord, read_trace, write_trace

from tests.conftest import gets, getx, make_trace


class TestColumnarBackend:
    def test_columns_mirror_records(self):
        records = [
            TraceRecord(0x1240, 0xF00, 2, AccessType.GETS, 17),
            TraceRecord(0x1280, 0xF04, 3, AccessType.GETX, 5),
        ]
        trace = make_trace(records)
        assert list(trace.addresses) == [0x1240, 0x1280]
        assert list(trace.pcs) == [0xF00, 0xF04]
        assert list(trace.requesters) == [2, 3]
        assert list(trace.accesses) == [0, 1]
        assert list(trace.instructions) == [17, 5]
        assert list(trace) == records

    def test_block_keys_cached_per_trace(self):
        trace = make_trace([gets(0x1244, 0), getx(0x4001, 1)])
        keys = trace.block_keys(64)
        assert list(keys) == [0x1240, 0x4000]
        assert trace.block_keys(64) is keys  # computed once
        assert list(trace.macroblock_keys(1024)) == [0x1000, 0x4000]

    def test_append_invalidates_key_cache(self):
        trace = make_trace([gets(0x40, 0)])
        assert list(trace.block_keys(64)) == [0x40]
        trace.append(gets(0x81, 1))
        assert list(trace.block_keys(64)) == [0x40, 0x80]

    def test_append_fields_is_trusted(self):
        trace = make_trace([])
        trace.append_fields(0x40, 0x10, 1, 1, 9)
        record = trace[0]
        assert record == TraceRecord(0x40, 0x10, 1, AccessType.GETX, 9)

    def test_slices_share_no_state(self):
        trace = make_trace([gets(64 * i, i % 4) for i in range(8)])
        head, tail = trace.split_warmup(3)
        head.append(getx(0x4000, 1))
        assert len(trace) == 8 and len(tail) == 5

    def test_records_materialized_lazily_are_real_records(self):
        trace = make_trace([gets(0x40, 0)])
        record = trace[0]
        assert isinstance(record, TraceRecord)
        assert record.block(64) == 0x40
        with pytest.raises(Exception):
            record.address = 1  # still frozen


class TestTrustedRecord:
    def test_trusted_skips_validation(self):
        # Internal fast path: no range checks on purpose.
        record = TraceRecord.trusted(-1, 0, 0, AccessType.GETS)
        assert record.address == -1

    def test_trusted_equals_checked(self):
        assert TraceRecord.trusted(
            0x40, 0x10, 1, AccessType.GETX, 3
        ) == TraceRecord(0x40, 0x10, 1, AccessType.GETX, 3)


class TestTrustedIo:
    def test_trusted_read_skips_validation(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(
            "# repro-trace v1 n_processors=2 name=-\n40 10 9 GETS 5\n"
        )
        # Requester 9 is out of range: rejected by default...
        with pytest.raises(ValueError):
            read_trace(path)
        # ...but accepted on the trusted (cache) load path.
        loaded = read_trace(path, trusted=True)
        assert loaded[0].requester == 9

    def test_untrusted_read_rejects_bad_access_kind(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(
            "# repro-trace v1 n_processors=2 name=-\n40 10 1 PUTS 5\n"
        )
        with pytest.raises(ValueError):
            read_trace(path)

    def test_round_trip_preserves_columns(self, tmp_path):
        trace = make_trace(
            [gets(0x1240, 2, pc=0xF00), getx(0x1280, 3, pc=0xF04)],
            name="demo",
        )
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert list(loaded.addresses) == list(trace.addresses)
        assert list(loaded.accesses) == list(trace.accesses)


class TestDestinationSetInterning:
    def test_empty_and_broadcast_interned_per_n_nodes(self):
        assert DestinationSet.empty(16) is DestinationSet.empty(16)
        assert DestinationSet.broadcast(16) is DestinationSet.broadcast(16)
        assert DestinationSet.empty(8) is not DestinationSet.empty(16)

    def test_singletons_interned(self):
        assert DestinationSet.of(16, 3) is DestinationSet.of(16, 3)

    def test_algebra_returns_interned_extremes(self):
        a = DestinationSet.of(16, 1, 2)
        assert (a - a) is DestinationSet.empty(16)
        b = DestinationSet.broadcast(16)
        assert (a | b) is DestinationSet.broadcast(16)

    def test_count_uses_popcount(self):
        assert DestinationSet(16, 0b1011).count() == 3
        assert len(DestinationSet(16, 0b1011)) == 3


class TestDerivedColumnBackends:
    """The column builders agree exactly with the numpy accelerator on
    and off (``columns.set_backend("numpy"/"python")``, both under the
    ``pure`` replay tier)."""

    @pytest.fixture
    def sample(self):
        records = []
        for i in range(200):
            record = (gets if i % 3 else getx)(
                0x1000 + 67 * i, i % 4, pc=0x400 + 8 * (i % 11)
            )
            records.append(record)
        return make_trace(records)

    def _backends(self):
        from repro.trace import columns

        names = ["python"]
        try:
            import numpy  # noqa: F401
        except ImportError:
            pass
        else:
            names.append("numpy")
        return columns, names

    def test_backends_produce_identical_columns(self, sample):
        columns, names = self._backends()
        built = {}
        for name in names:
            columns.set_backend(name)
            try:
                fresh = sample[:]
                built[name] = (
                    fresh.derived_columns(64, 4, 1024, False),
                    list(fresh.block_keys(64)),
                    fresh.boxed_columns(),
                )
            finally:
                columns.set_backend("auto")
        reference = built[names[0]]
        for name in names[1:]:
            assert built[name] == reference

    def test_derived_columns_contents(self, sample):
        derived = sample.derived_columns(64, 4, 1024, False)
        for i, (address, requester) in enumerate(
            zip(sample.addresses, sample.requesters)
        ):
            assert derived.blocks[i] == address & ~63
            assert derived.keys[i] == address // 1024
            home = ((address & ~63) >> 6) % 4
            assert derived.homes[i] == home
            assert derived.reqbits[i] == 1 << requester
            assert derived.notreqs[i] == ~(1 << requester)
            assert derived.minimals[i] == (1 << requester) | (1 << home)

    def test_pc_index_keys_use_pc_column(self, sample):
        derived = sample.derived_columns(64, 4, 1024, True)
        assert derived.keys == list(sample.pcs)

    def test_derived_columns_cached_per_config(self, sample):
        first = sample.derived_columns(64, 4, 1024, False)
        assert sample.derived_columns(64, 4, 1024, False) is first
        other = sample.derived_columns(64, 4, 64, False)
        assert other is not first

    def test_append_invalidates_derived_cache(self, sample):
        before = sample.derived_columns(64, 4, 1024, False)
        sample.append(gets(0x9000, 1))
        after = sample.derived_columns(64, 4, 1024, False)
        assert after is not before
        assert len(after.blocks) == len(before.blocks) + 1

    def test_split_warmup_memoized(self, sample):
        warmup, measured = sample.split_warmup(50)
        again = sample.split_warmup(50)
        assert again[0] is warmup and again[1] is measured
        assert len(warmup) == 50
        assert len(measured) == len(sample) - 50

    def test_set_backend_rejects_unknown(self):
        columns, _ = self._backends()
        with pytest.raises(ValueError, match="unknown backend"):
            columns.set_backend("fortran")

    def test_wide_systems_fall_back_to_python_masks(self, sample):
        # 100 nodes cannot be built with int64 numpy lanes; the mask
        # columns must still come out right via the pure path.
        trace = make_trace(
            [gets(0x40 + 64 * i, i) for i in range(100)],
            n_processors=100,
        )
        derived = trace.derived_columns(64, 100, 1024, False)
        for i in range(100):
            assert derived.reqbits[i] == 1 << i


class TestBinaryTraceFormat:
    def test_round_trip(self, tmp_path):
        from repro.trace.io import read_trace_binary, write_trace_binary

        trace = make_trace(
            [gets(0x1240, 2, pc=0xF00), getx(0x4000, 3, pc=0xF04)]
        )
        path = tmp_path / "t.bin"
        write_trace_binary(trace, path)
        loaded = read_trace_binary(path)
        assert list(loaded) == list(trace)
        assert loaded.n_processors == trace.n_processors
        assert loaded.name == trace.name

    def test_rejects_garbage(self, tmp_path):
        from repro.trace.io import read_trace_binary

        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a trace")
        with pytest.raises(ValueError, match="not a binary"):
            read_trace_binary(path)

    def test_rejects_truncation(self, tmp_path):
        from repro.trace.io import read_trace_binary, write_trace_binary

        trace = make_trace([gets(0x40, 0), getx(0x80, 1)])
        path = tmp_path / "t.bin"
        write_trace_binary(trace, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated"):
            read_trace_binary(path)
