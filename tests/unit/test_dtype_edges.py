"""int64 overflow-safety at the kernel/column dtype edges.

The vectorized column backend and the native kernels both carry
destination-set bitmasks and predictor index keys in int64 lanes.
These tests pin the width contract so the big-system mode cannot
silently truncate:

- :class:`DestinationSet` masks are exact Python ints at any node
  count (bits above 16 — and above 62 — survive round-trips),
- the numpy column path refuses node counts whose bitmasks would not
  fit an int64 lane (``_MAX_NUMPY_NODES``) and falls back to the pure
  path with identical values,
- the native replay kernels accept 63-128-node geometries (two
  uint64 destination-set lanes) byte-identically to the Python tier,
  and decline (fall back, never truncate) past 128 nodes or when
  table keys leave the int64 envelope; the native collector keeps its
  single-word <= 62 envelope.
"""

import random
from array import array

import pytest

from repro.common.destset import DestinationSet, full_mask, popcount
from repro.trace import columns as trace_columns


BIG_NODE_COUNTS = (17, 33, 62, 63, 64, 128)

#: Geometries inside the two-lane native replay envelope but past the
#: old single-word one.
WIDE_NATIVE_NODE_COUNTS = (63, 64, 128)


@pytest.mark.parametrize("n_nodes", BIG_NODE_COUNTS)
def test_destination_set_bits_width(n_nodes):
    """Masks stay exact above 16 (and above 62) nodes."""
    assert full_mask(n_nodes) == (1 << n_nodes) - 1
    broadcast = DestinationSet.broadcast(n_nodes)
    assert popcount(broadcast._bits) == n_nodes
    top = n_nodes - 1
    single = DestinationSet.of(n_nodes, top)
    assert single._bits == 1 << top
    assert list(single) == [top]
    union = single.union(DestinationSet.of(n_nodes, 0))
    assert union._bits == (1 << top) | 1
    assert union.contains(top) and union.contains(0)


def _derived(n_nodes, addresses, requesters):
    from array import array

    return trace_columns.derived_columns(
        array("q", addresses),
        array("q", [0] * len(addresses)),
        array("i", requesters),
        block_size=64,
        n_processors=n_nodes,
        key_granularity=1024,
    )


@pytest.mark.parametrize("n_nodes", (63, 64, 128))
def test_numpy_columns_decline_wide_masks(n_nodes):
    """Above 62 nodes the int64 lanes cannot hold a requester bit;
    the numpy path must fall back, not truncate."""
    if trace_columns.numpy_module() is None:
        pytest.skip("numpy backend not active")
    top = n_nodes - 1
    derived = _derived(n_nodes, [1 << 40, 4096], [top, 0])
    assert derived.reqbits[0] == 1 << top
    assert derived.minimals[0] & (1 << top)
    # Identical to the pure path.
    trace_columns.set_backend("python")
    try:
        pure = _derived(n_nodes, [1 << 40, 4096], [top, 0])
    finally:
        trace_columns.set_backend("auto")
    assert derived == pure


def _wide_trace(n_nodes, records=400, seed=7):
    from repro.trace.trace import Trace

    rng = random.Random(seed)
    trace = Trace(n_processors=n_nodes)
    for _ in range(records):
        block = rng.randrange(48) * 64
        trace.append_fields(
            block + rng.randrange(64),
            rng.randrange(1 << 20),
            rng.randrange(n_nodes),
            rng.randrange(2),
            rng.randrange(50),
        )
    return trace


def _table_snapshot(proto):
    snap = []
    for predictor in proto.predictors:
        table = getattr(predictor, "_table", None)
        if table is None:  # sticky-spatial keeps a raw entry dict
            snap.append((
                dict(predictor._entries),
                predictor.n_allocations,
                predictor.n_replacements,
            ))
            continue
        snap.append({
            key: tuple(
                getattr(entry, name)
                for name in type(entry).__slots__
            )
            for key, entry in table._entries.items()
        })
    return snap


@pytest.mark.parametrize("n_nodes", WIDE_NATIVE_NODE_COUNTS)
@pytest.mark.parametrize("label", ("group", "owner", "sticky-spatial"))
def test_native_replay_accepts_wide_systems(label, n_nodes):
    """63-128-node replays run natively, byte-identical to Python."""
    from repro.common.params import SystemConfig
    from repro import kernels

    if not kernels.native_available():
        pytest.skip("native kernel extension not built")
    from repro.common import backend as _backend
    from repro.kernels import native
    from repro.protocols.base import OutcomeColumns
    from repro.protocols.multicast import MulticastSnoopingProtocol

    config = SystemConfig(n_processors=n_nodes)
    trace = _wide_trace(n_nodes)

    proto_native = MulticastSnoopingProtocol(config, label)
    out_native = OutcomeColumns()
    accepted = native.replay(proto_native, trace, out_native)
    assert accepted  # inside the widened envelope: no decline

    proto_pure = MulticastSnoopingProtocol(config, label)
    out_pure = OutcomeColumns()
    with _backend.use("pure"):
        proto_pure._run_columns(trace, out_pure)

    assert out_native.latency_ns.tobytes() == out_pure.latency_ns.tobytes()
    assert (
        out_native.transfer_bytes.tobytes()
        == out_pure.transfer_bytes.tobytes()
    )
    assert proto_native.totals == proto_pure.totals
    assert proto_native.state._blocks == proto_pure.state._blocks
    assert _table_snapshot(proto_native) == _table_snapshot(proto_pure)


def test_native_kernels_decline_past_envelope():
    """Replay falls back (never truncates) past 128 nodes; the
    single-word collector keeps its 62-node envelope."""
    from repro.common.params import SystemConfig
    from repro import kernels

    if not kernels.native_available():
        pytest.skip("native kernel extension not built")
    from repro.cache.pipeline import TraceCollector
    from repro.kernels import native

    config = SystemConfig(n_processors=64)
    collector = TraceCollector(config)
    assert native.make_collector_session(collector) is None

    from repro.protocols.multicast import MulticastSnoopingProtocol
    from repro.trace.trace import Trace

    wide = SystemConfig(n_processors=129)
    proto = MulticastSnoopingProtocol(wide, "group")
    kernels.reset_decline_counts()
    assert not native.replay(proto, Trace(n_processors=129), out=None)
    assert kernels.decline_counts().get("group_replay:envelope") == 1


def test_native_group_replay_declines_overflowing_keys():
    """A predictor-table key outside int64 forces the Python tier.

    The native loader must return the no-op fallback (leaving every
    Python structure untouched) instead of truncating the key.
    """
    from repro.common.params import SystemConfig
    from repro import kernels

    if not kernels.native_available():
        pytest.skip("native kernel extension not built")
    from repro.common import backend as _backend
    from repro.kernels import native
    from repro.protocols.multicast import MulticastSnoopingProtocol
    from repro.trace.trace import Trace

    config = SystemConfig(n_processors=4)
    proto = MulticastSnoopingProtocol(config, "group")
    table = proto.predictors[0]._table
    huge = 1 << 70  # beyond any int64 lane
    entry = table.lookup_allocate(huge)
    entry.counters[1] = 3
    before = dict(table._entries)

    trace = Trace(n_processors=4)
    trace.append_fields(4096, 0, 2, 1, 10)
    with _backend.use("pure"):
        pass  # ensure backend module is initialised
    assert not native.replay(proto, trace, out=None)
    assert table._entries == before  # untouched by the declined call


# ----------------------------------------------------------------------
# Baseline protocol modes of the native replay kernel
# ----------------------------------------------------------------------

BASELINE_LABELS = ("directory", "broadcast-snooping")

#: Both ends of each mask lane, plus the single-node machine.
BASELINE_NODE_COUNTS = (1, 2, 63, 64, 65, 128)


def _require_native():
    from repro import kernels

    if not kernels.native_available():
        pytest.skip("native kernel extension not built")


def _baseline_class(label):
    from repro.protocols.directory import DirectoryProtocol
    from repro.protocols.snooping import BroadcastSnoopingProtocol

    if label == "directory":
        return DirectoryProtocol
    return BroadcastSnoopingProtocol


def _record_oracle(proto, trace):
    """Replay through ``handle`` and rebuild the outcome columns."""
    from repro.protocols.base import OutcomeColumns

    out = OutcomeColumns()
    for record in trace:
        outcome = proto.handle(record)
        out.latency_ns.append(outcome.latency_class.latency_ns(proto.latency))
        out.transfer_bytes.append(outcome.traffic_bytes(proto.traffic))
    return out


@pytest.mark.parametrize("model", ("simple", "detailed"))
@pytest.mark.parametrize("n_nodes", BASELINE_NODE_COUNTS)
@pytest.mark.parametrize("label", BASELINE_LABELS)
def test_native_baseline_modes_match_record_oracle(label, n_nodes, model):
    """Directory / snooping replay natively at every lane edge, equal
    to the record path on totals, MOSI state, outcome columns and
    timing."""
    _require_native()
    from repro import kernels
    from repro.common import backend as _backend
    from repro.common.params import SystemConfig
    from repro.kernels import native
    from repro.protocols.base import OutcomeColumns
    from repro.timing.system import TimingSimulator

    config = SystemConfig(n_processors=n_nodes)
    trace = _wide_trace(n_nodes)
    protocol = _baseline_class(label)

    oracle = protocol(config)
    out_oracle = _record_oracle(oracle, trace)
    proto = protocol(config)
    out = OutcomeColumns()
    assert native.replay(proto, trace, out)
    assert proto.totals == oracle.totals
    assert proto.state._blocks == oracle.state._blocks
    assert out.latency_ns.tobytes() == out_oracle.latency_ns.tobytes()
    assert out.transfer_bytes.tobytes() == out_oracle.transfer_bytes.tobytes()

    record_sim = TimingSimulator(config, protocol(config), model)
    expected = record_sim.run(trace, columnar=False)
    kernels.reset_decline_counts()
    with _backend.use("native"):
        native_sim = TimingSimulator(config, protocol(config), model)
        result = native_sim.run(trace)
    assert kernels.decline_counts() == {}
    assert result == expected
    assert native_sim.protocol.totals == record_sim.protocol.totals
    assert (
        native_sim.protocol.state._blocks
        == record_sim.protocol.state._blocks
    )


@pytest.mark.parametrize("label", BASELINE_LABELS)
def test_native_baseline_modes_decline_past_envelope(label):
    """129 nodes: the kernel declines (counted), the Python loop runs,
    and the results are the record path's."""
    _require_native()
    from repro import kernels
    from repro.common import backend as _backend
    from repro.common.params import SystemConfig
    from repro.protocols.base import OutcomeColumns

    config = SystemConfig(n_processors=129)
    trace = _wide_trace(129)
    protocol = _baseline_class(label)

    oracle = protocol(config)
    out_oracle = _record_oracle(oracle, trace)
    kernels.reset_decline_counts()
    with _backend.use("native"):
        proto = protocol(config)
        out = OutcomeColumns()
        proto._run_columns(trace, out)
    assert kernels.decline_counts() == {"policy_replay:envelope": 1}
    assert proto.totals == oracle.totals
    assert proto.state._blocks == oracle.state._blocks
    assert out.latency_ns.tobytes() == out_oracle.latency_ns.tobytes()
    assert out.transfer_bytes.tobytes() == out_oracle.transfer_bytes.tobytes()


@pytest.mark.parametrize("label", BASELINE_LABELS)
def test_baseline_handle_fast_override_keeps_python_loop(label):
    """A subclass that overrides ``_handle_fast`` is never replaced by
    the native mode: its own kernel sees every record."""
    _require_native()
    from repro import kernels
    from repro.common import backend as _backend
    from repro.common.params import SystemConfig

    base = _baseline_class(label)

    class Counting(base):
        calls = 0

        def _handle_fast(self, *args):
            self.calls += 1
            return super()._handle_fast(*args)

    config = SystemConfig(n_processors=16)
    trace = _wide_trace(16)
    kernels.reset_decline_counts()
    with _backend.use("native"):
        counting = Counting(config)
        counting.run(trace)
        stock = base(config)
        stock.run(trace)
    assert counting.calls == len(trace)
    assert kernels.decline_counts() == {}
    assert counting.totals == stock.totals
    assert counting.state._blocks == stock.state._blocks


_OUT_OF_RANGE_SCRIPT = """
import sys

from repro.common import backend
from repro.common.params import PredictorConfig, SystemConfig
from repro.evaluation.runtime import make_protocol
from repro.protocols.base import TrafficTotals
from repro.trace.trace import Trace

backend.set_backend("native")
trace = Trace(n_processors=4096)
trace.append_fields(4096, 0, 1, 0, 5)
trace.append_fields(8192, 0, 3016, 1, 5)
proto = make_protocol(sys.argv[1], SystemConfig(), PredictorConfig())
try:
    proto.run(trace)
except ValueError as exc:
    assert "requester out of range" in str(exc), exc
    # Nothing was written back, not even the valid first record.
    assert proto.state._blocks == {}, proto.state._blocks
    assert proto.totals == TrafficTotals(), proto.totals
    print("raised ValueError")
"""


@pytest.mark.parametrize(
    "label",
    (
        "directory", "broadcast-snooping", "owner",
        "broadcast-if-shared", "group", "owner-group", "sticky-spatial",
    ),
)
def test_native_replay_rejects_out_of_range_requesters(label):
    """A requester past the config's node count raises ValueError on
    the native tier (it once indexed past the per-node tables and
    crashed the interpreter); a subprocess keeps a crash observable."""
    _require_native()
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.abspath(src), env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, "-c", _OUT_OF_RANGE_SCRIPT, label],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, (
        completed.returncode, completed.stderr[-2000:]
    )
    assert "raised ValueError" in completed.stdout


# ----------------------------------------------------------------------
# Hostile input to the cold-path kernels: the native collector's chunk
# columns, the generator's buffers and tables, required_counts.  Each
# case raises ValueError (after the GIL is back) and leaves the native
# state as it was.
# ----------------------------------------------------------------------

def _native_module():
    _require_native()
    from repro.common import backend

    return backend.native_module()


def _chunk_columns(seed, rows=300, n_procs=4):
    rng = random.Random(seed)
    return [
        array("q", [i % n_procs for i in range(rows)]),
        array("q", [rng.randrange(96) * 64 + 3 for _ in range(rows)]),
        array("q", [rng.randrange(8) * 4 for _ in range(rows)]),
        array("q", [rng.randrange(2) for _ in range(rows)]),
        array("q", [rng.randrange(1, 9) for _ in range(rows)]),
    ]


def _with(columns, index, column):
    columns = list(columns)
    columns[index] = column
    return columns


def _node_at(columns, value):
    nodes = columns[0][:]
    nodes[7] = value
    return _with(columns, 0, nodes)


HOSTILE_CHUNKS = {
    "int32 nodes": lambda c: _with(c, 0, array("i", c[0])),
    "float64 addresses": lambda c: _with(c, 1, array("d", c[1])),
    "bytes pcs": lambda c: _with(c, 2, c[2].tobytes()),
    "short writes buffer": lambda c: _with(c, 3, c[3][:-1]),
    "long gaps list": lambda c: _with(c, 4, c[4].tolist() + [1]),
    "short nodes list": lambda c: _with(c, 0, c[0].tolist()[:-1]),
    "negative node": lambda c: _node_at(c, -1),
    "node past n_procs": lambda c: _node_at(c, 4),
    "negative node in a list": lambda c: _with(
        c, 0, _node_at(c, -3)[0].tolist()),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_CHUNKS))
def test_native_collector_rejects_hostile_chunks(case):
    native = _native_module()

    def make():
        return native.Collector(4, ~63, 6, 4, 2, 8, 4)

    attacked, clean = make(), make()
    warm = _chunk_columns(1)
    assert attacked.process_chunk(*warm) == clean.process_chunk(*warm)
    with pytest.raises(ValueError):
        attacked.process_chunk(*HOSTILE_CHUNKS[case](_chunk_columns(2)))
    probe = _chunk_columns(3)
    assert attacked.process_chunk(*probe) == clean.process_chunk(*probe)
    assert attacked.instructions() == clean.instructions()


def _generator_args(**override):
    """A two-node producer/consumer model, packed the way
    ``repro.kernels.native.make_generator`` packs one."""
    producer = override.pop("producer", 0)
    region = [2, 4096, 8, 64, 11, 12, 13, 14, 0, 0, 0, 0, 0, producer,
              *range(100, 108)]
    args = dict(
        n_procs=2, key_select=5, key_gap=6, gap_lo=1, gap_span=3,
        offsets=array("q", [0, 0, 0]), thresholds=array("d"),
        region_ids=array("q", [0, 0]), regions=array("q", region),
        zipf=array("d"), consumer_pcs=array("q", [-1, 200]),
    )
    args.update(override)
    return tuple(args.values())


def _fill(generator, start, rows=50):
    columns = [array("q", [0]) * rows for _ in range(5)]
    generator.fill(start, *columns)
    return [c.tolist() for c in columns]


def test_native_generator_fills_the_packed_model():
    native = _native_module()
    nodes, addresses, pcs, writes, gaps = _fill(
        native.Generator(*_generator_args()), 0, rows=6
    )
    assert nodes == [0, 1, 0, 1, 0, 1]
    assert writes == [1, 0, 1, 0, 1, 0]
    # The consumer trails the producer's cursor, never passing it.
    assert addresses == [4096, 4096, 4160, 4160, 4224, 4224]
    assert pcs == [100, 200, 100, 200, 100, 200]
    assert all(1 <= gap <= 3 for gap in gaps)


HOSTILE_GENERATORS = {
    "negative producer": dict(producer=-1),
    "producer past n_procs": dict(producer=2),
    "region id past the model": dict(region_ids=array("q", [0, 1])),
    "negative region id": dict(region_ids=array("q", [0, -1])),
    "node not a member": dict(consumer_pcs=array("q", [-1, -1])),
    "int32 regions": dict(regions=array(
        "i", [2, 4096, 8, 64, 11, 12, 13, 14, 0, 0, 0, 0, 0, 0,
              *range(100, 108)])),
    "int64 thresholds": dict(thresholds=array("q")),
    "short consumer table": dict(consumer_pcs=array("q", [-1])),
    "offsets past the tables": dict(offsets=array("q", [0, 0, 1])),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_GENERATORS))
def test_native_generator_rejects_hostile_tables(case):
    native = _native_module()
    with pytest.raises(ValueError):
        native.Generator(*_generator_args(**HOSTILE_GENERATORS[case]))


HOSTILE_FILLS = {
    "int32 nodes": lambda c: _with(c, 0, array("i", [0]) * len(c[0])),
    "float64 addresses": lambda c: _with(
        c, 1, array("d", [0.0]) * len(c[1])),
    "read-only pcs": lambda c: _with(c, 2, bytes(8 * len(c[2]))),
    "short writes": lambda c: _with(c, 3, c[3][:-1]),
    "a list": lambda c: _with(c, 4, c[4].tolist()),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_FILLS))
def test_native_generator_rejects_hostile_buffers(case):
    native = _native_module()
    attacked = native.Generator(*_generator_args())
    clean = native.Generator(*_generator_args())
    assert _fill(attacked, 0) == _fill(clean, 0)
    columns = [array("q", [0]) * 50 for _ in range(5)]
    with pytest.raises(ValueError):
        attacked.fill(50, *HOSTILE_FILLS[case](columns))
    assert _fill(attacked, 50) == _fill(clean, 50)


HOSTILE_REPLAYS = {
    "int32 blocks": lambda b, r, a: (array("i", b), r, a),
    "int64 requesters": lambda b, r, a: (b, array("q", r), a),
    "short accesses": lambda b, r, a: (b, r, a[:-1]),
    "negative requester": lambda b, r, a: (
        b, array("i", [-1, *r[1:]]), a),
    "requester past n_procs": lambda b, r, a: (
        b, array("i", [*r[:-1], 4]), a),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_REPLAYS))
def test_native_required_counts_rejects_hostile_columns(case):
    native = _native_module()
    blocks = array("q", [64, 128, 64, 64])
    requesters = array("i", [0, 1, 2, 3])
    accesses = array("b", [0, 0, 1, 0])
    assert array("q", native.required_counts(
        blocks, requesters, accesses, 4
    )).tolist() == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        native.required_counts(
            *HOSTILE_REPLAYS[case](blocks, requesters, accesses), 4
        )
