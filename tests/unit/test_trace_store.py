"""Unit tests for the v2 trace store and the zero-copy load path."""

import copy
import json
import os
import pathlib
import random
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.common.params import SystemConfig
from repro.experiment.cache import TraceCache, derived_config
from repro.trace import Trace
from repro.trace.io import (
    MMAP_ENV,
    _V2_ALIGNMENT,
    _V2_MAGIC,
    mmap_enabled,
    read_trace_binary,
    read_trace_v2,
    write_trace,
    write_trace_binary,
    write_trace_v2,
)

CONFIG = SystemConfig(n_processors=8)
DERIVED = derived_config(CONFIG)


def make_trace(records=4000, n_processors=8, seed=7, name="store"):
    rng = random.Random(seed)
    trace = Trace(n_processors=n_processors, name=name)
    for _ in range(records):
        trace.append_fields(
            rng.randrange(1 << 40),
            rng.randrange(1 << 30),
            rng.randrange(n_processors),
            rng.randrange(2),
            rng.randrange(100),
        )
    return trace


def columns(trace):
    return (
        list(trace.addresses),
        list(trace.pcs),
        list(trace.requesters),
        list(trace.accesses),
        list(trace.instructions),
    )


class TestV2RoundTrip:
    def test_round_trip_identity(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.bin2"
        write_trace_v2(trace, path, DERIVED)
        loaded = read_trace_v2(path)
        assert loaded.n_processors == trace.n_processors
        assert loaded.name == trace.name
        assert columns(loaded) == columns(trace)

    def test_write_is_deterministic(self, tmp_path):
        trace = make_trace()
        write_trace_v2(trace, tmp_path / "a.bin2", DERIVED)
        write_trace_v2(trace, tmp_path / "b.bin2", DERIVED)
        assert (
            (tmp_path / "a.bin2").read_bytes()
            == (tmp_path / "b.bin2").read_bytes()
        )

    def test_segments_are_64_byte_aligned(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.bin2"
        write_trace_v2(trace, path, DERIVED)
        data = path.read_bytes()
        header = json.loads(
            data[len(_V2_MAGIC): data.index(b"\n", len(_V2_MAGIC))]
        )
        assert header["segments"]
        for _, _, _, offset, _ in header["segments"]:
            assert offset % _V2_ALIGNMENT == 0

    def test_derived_store_matches_recompute(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.bin2"
        write_trace_v2(trace, path, DERIVED)
        loaded = read_trace_v2(path)
        args = (
            DERIVED["block_size"],
            DERIVED["n_processors"],
            DERIVED["index_granularity"],
            False,
        )
        assert loaded.derived_columns(*args) == trace.derived_columns(*args)
        assert list(loaded.block_keys(DERIVED["block_size"])) == list(
            trace.block_keys(DERIVED["block_size"])
        )
        assert list(
            loaded.block_keys(DERIVED["macroblock_size"])
        ) == list(trace.block_keys(DERIVED["macroblock_size"]))
        assert loaded.block_keys_list(
            DERIVED["block_size"]
        ) == trace.block_keys_list(DERIVED["block_size"])

    def test_off_config_recomputes(self, tmp_path):
        # A configuration the store did not persist falls back to the
        # normal per-trace computation, identical to a private trace.
        trace = make_trace()
        path = tmp_path / "t.bin2"
        write_trace_v2(trace, path, DERIVED)
        loaded = read_trace_v2(path)
        assert loaded.derived_columns(128, 4, 512, False) == (
            trace.derived_columns(128, 4, 512, False)
        )
        assert list(loaded.block_keys(32)) == list(trace.block_keys(32))

    def test_without_derived_block(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.bin2"
        write_trace_v2(trace, path)
        loaded = read_trace_v2(path)
        assert columns(loaded) == columns(trace)
        assert loaded.derived_columns(64, 8, 1024, False) == (
            trace.derived_columns(64, 8, 1024, False)
        )

    def test_wide_system_skips_derived(self, tmp_path):
        # 63+ node bitmasks do not fit an int64 segment: base columns
        # still persist, derived persistence is skipped.
        trace = make_trace(records=50, n_processors=100)
        derived = dict(DERIVED, n_processors=100)
        path = tmp_path / "t.bin2"
        write_trace_v2(trace, path, derived)
        loaded = read_trace_v2(path)
        assert columns(loaded) == columns(trace)
        assert loaded._derived_store is None

    def test_empty_trace(self, tmp_path):
        trace = Trace(n_processors=4, name="empty")
        path = tmp_path / "t.bin2"
        write_trace_v2(trace, path, DERIVED)
        loaded = read_trace_v2(path)
        assert len(loaded) == 0
        assert loaded.n_processors == 4


class TestV2Rejection:
    def _write(self, tmp_path, **kwargs):
        path = tmp_path / "t.bin2"
        write_trace_v2(make_trace(), path, DERIVED)
        return path

    def test_rejects_truncation(self, tmp_path):
        path = self._write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(ValueError, match="truncated or torn"):
            read_trace_v2(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = self._write(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="truncated or torn"):
            read_trace_v2(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "t.bin2"
        path.write_bytes(b"#not-a-trace\n")
        with pytest.raises(ValueError, match="not a v2"):
            read_trace_v2(path)

    def test_rejects_byteorder_mismatch(self, tmp_path):
        path = self._write(tmp_path)
        data = path.read_bytes()
        other = b"big" if sys.byteorder == "little" else b"little"
        swapped = data.replace(
            b'"byteorder": "%s"' % sys.byteorder.encode("ascii"),
            b'"byteorder": "%s"' % other,
            1,
        )
        assert swapped != data
        path.write_bytes(swapped)
        with pytest.raises(ValueError, match="byteorder"):
            read_trace_v2(path)

    def test_binary_v1_size_checked_up_front(self, tmp_path):
        # Satellite: read_trace_binary validates the header's layout
        # against one fstat instead of failing column-by-column.
        trace = make_trace()
        path = tmp_path / "t.bin"
        write_trace_binary(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="does not match"):
            read_trace_binary(path)
        path.write_bytes(data + b"x")
        with pytest.raises(ValueError, match="does not match"):
            read_trace_binary(path)


class TestFrozenSemantics:
    def _load(self, tmp_path, **kwargs):
        trace = make_trace(**kwargs)
        path = tmp_path / "t.bin2"
        write_trace_v2(trace, path, DERIVED)
        return trace, path, read_trace_v2(path)

    def test_loaded_trace_is_frozen(self, tmp_path):
        _, _, loaded = self._load(tmp_path)
        assert loaded.frozen

    def test_mutation_copies_never_writes_through(self, tmp_path):
        trace, path, loaded = self._load(tmp_path)
        before = path.read_bytes()
        loaded.append_fields(0x40, 0x10, 1, 0, 3)
        assert not loaded.frozen
        assert len(loaded) == len(trace) + 1
        assert path.read_bytes() == before
        # A fresh load still sees the original records.
        assert columns(read_trace_v2(path)) == columns(trace)

    def test_extend_fields_materializes(self, tmp_path):
        trace, path, loaded = self._load(tmp_path)
        loaded.extend_fields([1], [2], [3], [1], [4])
        assert not loaded.frozen
        assert len(loaded) == len(trace) + 1
        assert list(loaded.addresses)[:-1] == list(trace.addresses)

    def test_unit_slice_stays_frozen_and_correct(self, tmp_path):
        trace, _, loaded = self._load(tmp_path)
        warm, measured = loaded.split_warmup(100)
        assert warm.frozen and measured.frozen
        assert columns(warm) == tuple(c[:100] for c in columns(trace))
        assert list(measured.block_keys(64)) == list(
            trace.block_keys(64)
        )[100:]
        args = (64, 8, 1024, False)
        assert measured.derived_columns(*args) == (
            trace[100:].derived_columns(*args)
        )

    def test_strided_slice_materializes(self, tmp_path):
        trace, _, loaded = self._load(tmp_path)
        strided = loaded[::3]
        assert not strided.frozen
        assert list(strided.addresses) == list(trace.addresses)[::3]

    def test_replay_on_mapped_trace_matches_private(self, tmp_path):
        # End-to-end: the simulation result of a frozen mapped trace
        # is identical to the same trace replayed from private arrays.
        from repro.evaluation.runtime import make_protocol
        from repro.evaluation.tradeoff import evaluate_protocol

        trace, _, loaded = self._load(tmp_path, records=2000)
        results = []
        for candidate in (trace, loaded):
            protocol = make_protocol("group", CONFIG)
            results.append(
                evaluate_protocol(protocol, candidate, label="group")
            )
        assert results[0] == results[1]


class TestMmapEscapeHatch:
    def test_disabled_load_is_byte_identical(self, tmp_path, monkeypatch):
        trace = make_trace()
        path = tmp_path / "t.bin2"
        write_trace_v2(trace, path, DERIVED)
        mapped = read_trace_v2(path)
        monkeypatch.setenv(MMAP_ENV, "0")
        assert not mmap_enabled()
        copied = read_trace_v2(path)
        assert copied.frozen
        assert columns(copied) == columns(mapped)
        args = (64, 8, 1024, False)
        assert copied.derived_columns(*args) == (
            mapped.derived_columns(*args)
        )

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv(MMAP_ENV, raising=False)
        assert mmap_enabled()
        monkeypatch.setenv(MMAP_ENV, "off")
        assert not mmap_enabled()
        monkeypatch.setenv(MMAP_ENV, "1")
        assert mmap_enabled()


def _collect_one(root, workload="ocean", n_references=2000):
    from repro.experiment import PersistentTraceCorpus

    corpus = PersistentTraceCorpus(cache_dir=root)
    result = corpus.collect(workload, n_references)
    key = TraceCache.key(workload, n_references, 42, corpus.config)
    return result, key


class TestCacheHealByRegenerating:
    """``.bin2`` is the store's only tier: a rejected entry is a miss
    and the corpus regenerates it."""

    def _store(self, tmp_path):
        from repro.cache.pipeline import CollectionResult

        cache = TraceCache(tmp_path, derived=DERIVED)
        trace = make_trace()
        cache.store(
            "k", CollectionResult(trace=trace, instructions={}, references=1)
        )
        return cache, trace

    def test_store_writes_bin2_and_json_only(self, tmp_path):
        self._store(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "k.bin2", "k.json"
        ]

    def test_load_maps_v2(self, tmp_path):
        cache, trace = self._store(tmp_path)
        result = cache.load("k")
        assert result.trace.frozen  # served from the mapped .bin2
        assert columns(result.trace) == columns(trace)
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)

    @pytest.mark.parametrize(
        "damage", ("torn", "garbage", "truncated", "byteorder", "missing")
    )
    def test_rejected_v2_is_a_miss(self, tmp_path, damage):
        cache, _ = self._store(tmp_path)
        v2 = tmp_path / "k.bin2"
        good = v2.read_bytes()
        if damage == "torn":
            v2.write_bytes(good[: len(good) // 2])
        elif damage == "garbage":
            v2.write_bytes(b"garbage")
        elif damage == "truncated":
            v2.write_bytes(good[:-1])
        elif damage == "byteorder":
            other = b"big" if sys.byteorder == "little" else b"little"
            v2.write_bytes(good.replace(
                b'"byteorder": "%s"' % sys.byteorder.encode("ascii"),
                b'"byteorder": "%s"' % other,
                1,
            ))
        else:
            v2.unlink()
        assert cache.load("k") is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)

    @pytest.mark.parametrize(
        "sidecar",
        ("[]", '{"instructions": [], "references": 1}', "[" * 5000),
        ids=("list", "instructions-list", "nested"),
    )
    def test_malformed_sidecar_is_a_miss(self, tmp_path, sidecar):
        cache, _ = self._store(tmp_path)
        (tmp_path / "k.json").write_text(sidecar)
        assert cache.load("k") is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)

    @pytest.mark.parametrize("damage", ("torn", "garbage", "missing"))
    def test_corpus_regenerates_byte_identically(self, tmp_path, damage):
        _, key = _collect_one(tmp_path)
        v2 = tmp_path / f"{key}.bin2"
        good = v2.read_bytes()
        if damage == "torn":
            v2.write_bytes(good[: len(good) // 2])
        elif damage == "garbage":
            v2.write_bytes(b"garbage")
        else:
            v2.unlink()
        rebuilt, _ = _collect_one(tmp_path)
        assert not rebuilt.trace.frozen  # regenerated, not loaded
        assert v2.read_bytes() == good
        reloaded = TraceCache(tmp_path).load(key)
        assert reloaded.trace.frozen
        assert columns(reloaded.trace) == columns(rebuilt.trace)

    def test_legacy_entry_is_regenerated(self, tmp_path):
        # A store written before .bin2 was the only tier: .trace +
        # .bin + .json and no .bin2.  It is a one-time miss.
        from repro.experiment import PersistentTraceCorpus

        result, key = _collect_one(tmp_path)
        v2 = tmp_path / f"{key}.bin2"
        good = v2.read_bytes()
        v2.unlink()
        write_trace(result.trace, tmp_path / f"{key}.trace")
        write_trace_binary(result.trace, tmp_path / f"{key}.bin")
        corpus = PersistentTraceCorpus(cache_dir=tmp_path)
        corpus.collect("ocean", 2000)
        assert (corpus.cache_stats.hits, corpus.cache_stats.misses) == (
            0, 1
        )
        assert v2.read_bytes() == good
        assert TraceCache(tmp_path).load(key).trace.frozen

    def test_clear_removes_legacy_suffixes(self, tmp_path):
        cache, trace = self._store(tmp_path)
        write_trace(trace, tmp_path / "k.trace")
        write_trace_binary(trace, tmp_path / "k.bin")
        (tmp_path / "notes.txt").write_text("kept")
        assert cache.clear() == 4
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


class TestWriterIdentity:
    """The v2 writer builds derived segments from int64 buffers: the
    bytes are tier-independent and the trace keeps no boxed lists."""

    @staticmethod
    def _write_under(backend, trace, path, derived):
        from repro import kernels
        from repro.common import backend as _backend

        if backend not in kernels.available_backends():
            pytest.skip(f"{backend} backend unavailable on this machine")
        with _backend.use(backend):
            write_trace_v2(trace, path, derived)
        return path.read_bytes()

    @pytest.mark.parametrize("n_processors", (1, 16, 62))
    @pytest.mark.parametrize("backend", ("numpy", "native"))
    def test_bytes_match_pure_tier(self, tmp_path, backend, n_processors):
        trace = make_trace(records=500, n_processors=n_processors)
        derived = dict(DERIVED, n_processors=n_processors)
        pure = self._write_under(
            "pure", trace, tmp_path / "pure.bin2", derived
        )
        other = self._write_under(
            backend, trace, tmp_path / "other.bin2", derived
        )
        assert other == pure
        loaded = read_trace_v2(tmp_path / "other.bin2")
        args = (
            derived["block_size"], n_processors,
            derived["index_granularity"], False,
        )
        assert loaded.derived_columns(*args) == trace.derived_columns(*args)

    @pytest.mark.parametrize("backend", ("pure", "numpy", "native"))
    def test_63_nodes_persist_base_columns_only(self, tmp_path, backend):
        trace = make_trace(records=200, n_processors=63)
        path = tmp_path / "t.bin2"
        self._write_under(
            backend, trace, path, dict(DERIVED, n_processors=63)
        )
        loaded = read_trace_v2(path)
        assert loaded._derived_store is None
        assert columns(loaded) == columns(trace)

    def test_write_leaves_no_boxed_derived_lists(self, tmp_path):
        trace = make_trace()
        before = dict(trace._key_cache)
        write_trace_v2(trace, tmp_path / "t.bin2", DERIVED)
        assert trace._key_cache == before

    def test_collected_trace_keeps_no_derived_lists(self, tmp_path):
        result, _ = _collect_one(tmp_path)
        assert not [
            key for key in result.trace._key_cache
            if isinstance(key, tuple) and key[0] == "derived"
        ]


# ----------------------------------------------------------------------
# Hostile input: mutations of the .bin2 magic, header and offset table.
# ----------------------------------------------------------------------

def _roomy_v2_bytes():
    """A small .bin2 whose header leaves the most padding before the
    first segment, so rewritten headers of another length still fit
    in front of the column bytes at their recorded offsets."""
    best = None
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "t.bin2"
        for pad in range(_V2_ALIGNMENT):
            trace = make_trace(records=40, name="f" * (pad + 1))
            write_trace_v2(trace, path, DERIVED)
            data = path.read_bytes()
            header_end = data.index(b"\n", len(_V2_MAGIC)) + 1
            first = _parse_header(data)["segments"][0][3]
            if best is None or first - header_end > best[0]:
                best = (first - header_end, trace, data)
    return best[1], best[2]


def _parse_header(data):
    end = data.index(b"\n", len(_V2_MAGIC))
    return json.loads(data[len(_V2_MAGIC): end])


FUZZ_TRACE, FUZZ_BYTES = _roomy_v2_bytes()
FUZZ_HEADER = _parse_header(FUZZ_BYTES)
#: Everything before the first column segment: magic, header JSON
#: (offset table included), newline and alignment padding.
FUZZ_PREFIX_END = FUZZ_HEADER["segments"][0][3]


def _with_header(header):
    """FUZZ_BYTES with ``header`` re-serialized in place, column bytes
    left at their recorded offsets; None when it does not fit."""
    line = _V2_MAGIC + json.dumps(header, sort_keys=True).encode(
        "ascii"
    ) + b"\n"
    if len(line) > FUZZ_PREFIX_END:
        return None
    return (
        line + bytes(FUZZ_PREFIX_END - len(line))
        + FUZZ_BYTES[FUZZ_PREFIX_END:]
    )


def _flip(draw):
    index = draw(st.integers(0, FUZZ_PREFIX_END - 1))
    value = draw(st.integers(0, 255).filter(
        lambda byte: byte != FUZZ_BYTES[index]
    ))
    return (
        FUZZ_BYTES[:index] + bytes([value]) + FUZZ_BYTES[index + 1:]
    )


def _truncate(draw):
    return FUZZ_BYTES[: draw(st.integers(0, len(FUZZ_BYTES) - 1))]


def _append(draw):
    return FUZZ_BYTES + draw(st.binary(min_size=1, max_size=128))


def _swap(draw):
    header = copy.deepcopy(FUZZ_HEADER)
    segments = header["segments"]
    i, j = draw(
        st.lists(
            st.integers(0, len(segments) - 1),
            min_size=2, max_size=2, unique=True,
        )
    )
    field = draw(st.one_of(st.none(), st.integers(0, 4)))
    if field is None:  # whole entries
        segments[i], segments[j] = segments[j], segments[i]
    else:
        segments[i][field], segments[j][field] = (
            segments[j][field], segments[i][field]
        )
    return _with_header(header)


_OTHER_TYPES = st.sampled_from(
    [None, True, False, 0, -1, 1.5, "x", "", [], {}, [0], {"a": 1},
     2 ** 70]
)


def _retype(draw):
    header = copy.deepcopy(FUZZ_HEADER)
    targets = [(header, key) for key in header]
    targets += [
        (entry, index)
        for entry in header["segments"] for index in range(5)
    ]
    targets += [(header["segments"], index)
                for index in range(len(header["segments"]))]
    targets += [(header["derived"], key) for key in header["derived"]]
    owner, slot = draw(st.sampled_from(targets))
    owner[slot] = draw(_OTHER_TYPES)
    return _with_header(header)


@st.composite
def mutated_v2(draw):
    mutate = draw(st.sampled_from((_flip, _truncate, _append, _swap,
                                   _retype)))
    data = mutate(draw)
    assume(data is not None)
    return data


class TestV2MutationFuzz:
    """A mutated ``.bin2`` is either rejected with ``ValueError`` or
    still yields the original base columns; the cache never raises."""

    @settings(max_examples=300, deadline=None)
    @given(data=mutated_v2())
    def test_reader_rejects_or_preserves(self, data):
        with tempfile.TemporaryDirectory() as scratch:
            root = pathlib.Path(scratch)
            (root / "k.bin2").write_bytes(data)
            (root / "k.json").write_text(
                '{"instructions": {}, "references": 1}'
            )
            try:
                loaded = read_trace_v2(root / "k.bin2")
            except ValueError:
                loaded = None
            else:
                assert columns(loaded) == columns(FUZZ_TRACE)
            cache = TraceCache(root, derived=DERIVED)
            assert (cache.load("k") is None) == (loaded is None)
            assert cache.stats.misses == (loaded is None)

    def test_deeply_nested_header_is_rejected(self, tmp_path):
        path = tmp_path / "k.bin2"
        path.write_bytes(_V2_MAGIC + b"[" * 5000 + b"\n")
        with pytest.raises(ValueError, match="bad v2 header"):
            read_trace_v2(path)
        (tmp_path / "k.json").write_text(
            '{"instructions": {}, "references": 1}'
        )
        cache = TraceCache(tmp_path, derived=DERIVED)
        assert cache.load("k") is None
        assert cache.stats.misses == 1
