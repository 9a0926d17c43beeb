"""Trace file round-tripping.

Traces are stored as a simple line-oriented text format so they are
diffable and greppable::

    # repro-trace v1 n_processors=16 name=apache
    <address-hex> <pc-hex> <requester> <GETS|GETX> [instructions]

One record per line; the optional fifth field is the instruction gap
since the requester's previous miss.  Comment lines start with ``#``.

This is the export format (``repro collect --out``) and the CLI's
``.trace`` input.  Parsing writes straight into the trace's columns.
Field validation is on by default for user-supplied files; callers
that read files they wrote themselves pass ``trusted=True`` to skip
the per-record range checks.

A v1 binary format (:func:`write_trace_binary` /
:func:`read_trace_binary`) dumps the trace's flat columns verbatim
behind a JSON header.  The trace cache does not store it: it is the
copying baseline the ``trace_load_binary`` bench entry prices v2
loads against.

The v2 columnar container (:func:`write_trace_v2` /
:func:`read_trace_v2`, the ``.bin2`` file) is the persistent trace
cache's one encoding.  A JSON header carries an explicit offset table
and every column lives in its own 64-byte-aligned raw segment, so
loads are *zero-copy* — the file is ``mmap``-ed and each column
becomes a read-only ``memoryview`` over the mapping (see
:meth:`Trace.frozen`).  Alongside the five base columns it persists
the derived replay columns (:mod:`repro.trace.columns` otherwise
recomputes them per process): block/macroblock keys, predictor index
keys, home nodes, and the minimal/requester/not-requester bitmasks
for one reference configuration.  Because mappings share the OS page cache, every
same-host worker replaying one corpus holds a single physical copy.
Set ``REPRO_MMAP=0`` to fall back to copying loads (byte-identical
results; the columns are then views over a private ``bytes`` copy).
"""

from __future__ import annotations

import json
import mmap
import os
import sys
from array import array
from typing import Optional, Union

from repro.trace import columns as _columns
from repro.trace.trace import Trace

_HEADER_PREFIX = "# repro-trace v1"

_BINARY_MAGIC = b"#repro-trace-bin v1\n"

#: Column order and typecodes in the binary format.
_BINARY_COLUMNS = (
    ("addresses", "q"),
    ("pcs", "q"),
    ("requesters", "i"),
    ("accesses", "b"),
    ("instructions", "q"),
)

_ACCESS_CODES = {"GETS": 0, "GETX": 1}
_ACCESS_NAMES = ("GETS", "GETX")

_V2_MAGIC = b"#repro-trace-bin v2\n"

#: Column segments start on this boundary (cache-line aligned, and a
#: safe alignment for any vectorized consumer of the mapping).
_V2_ALIGNMENT = 64

#: Fixed per-typecode item sizes of the v2 format (the format is only
#: defined for these standard widths; ``array`` matches them on every
#: supported platform and the loader re-checks).
_V2_ITEMSIZES = {"q": 8, "i": 4, "b": 1}

#: Derived replay segments persisted alongside the base columns, in
#: file order.  All int64: the bitmask columns require the writing
#: config's node count to fit a signed 64-bit lane (the writer skips
#: derived persistence otherwise) and the others are int64 already.
_V2_DERIVED_SEGMENTS = (
    "blocks", "mblocks", "keys", "homes",
    "minimals", "reqbits", "notreqs",
)

#: Environment variable disabling the mmap load path (``0``/``false``
#: /``no``/``off``): ``read_trace_v2`` then reads the file into a
#: private ``bytes`` copy and builds the same read-only views over
#: that, so results are byte-identical either way.
MMAP_ENV = "REPRO_MMAP"

#: Largest node count whose derived bitmask columns fit int64
#: segments (mirrors the numpy accelerator's single-lane envelope).
_MAX_DERIVED_NODES = 62

PathLike = Union[str, "os.PathLike[str]"]


def mmap_enabled() -> bool:
    """Whether zero-copy mapped loads are enabled (default yes)."""
    return os.environ.get(MMAP_ENV, "").strip().lower() not in (
        "0", "false", "no", "off"
    )


def write_trace(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` in the text format."""
    names = _ACCESS_NAMES
    with open(path, "w", encoding="ascii") as handle:
        handle.write(
            f"{_HEADER_PREFIX} n_processors={trace.n_processors} "
            f"name={trace.name or '-'}\n"
        )
        for address, pc, requester, code, instructions in zip(
            trace.addresses,
            trace.pcs,
            trace.requesters,
            trace.accesses,
            trace.instructions,
        ):
            handle.write(
                f"{address:x} {pc:x} {requester} {names[code]} "
                f"{instructions}\n"
            )


def write_trace_binary(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` as raw column bytes behind a JSON header."""
    columns = [
        getattr(trace, name) for name, _ in _BINARY_COLUMNS
    ]
    header = {
        "n_processors": trace.n_processors,
        "name": trace.name,
        "records": len(trace),
        "byteorder": sys.byteorder,
        "itemsizes": [column.itemsize for column in columns],
    }
    with open(path, "wb") as handle:
        handle.write(_BINARY_MAGIC)
        handle.write(json.dumps(header, sort_keys=True).encode("ascii"))
        handle.write(b"\n")
        for column in columns:
            handle.write(column.tobytes())


def read_trace_binary(path: PathLike) -> Trace:
    """Read a trace written by :func:`write_trace_binary`.

    Raises ``ValueError`` for malformed files or layout mismatches.
    Binary loads are trusted: only this package writes the format.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(_BINARY_MAGIC))
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path}: not a binary repro-trace file")
        header_line = handle.readline()
        try:
            header = json.loads(header_line.decode("ascii"))
            n_processors = header["n_processors"]
            name = header["name"]
            records = header["records"]
            byteorder = header["byteorder"]
            itemsizes = header["itemsizes"]
        except (KeyError, TypeError, UnicodeDecodeError,
                json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: bad binary header ({exc})")
        if (
            not isinstance(n_processors, int)
            or not isinstance(records, int)
            or records < 0
            or n_processors <= 0
            or not isinstance(name, str)
            or not isinstance(itemsizes, list)
            or len(itemsizes) != len(_BINARY_COLUMNS)
            or not all(isinstance(size, int) for size in itemsizes)
        ):
            raise ValueError(f"{path}: bad binary header field types")
        # Validate the advertised layout against the actual file size
        # up front (one fstat) so truncated or torn files are rejected
        # before any column bytes are read, instead of being
        # discovered column-by-column mid-load.
        _check_file_size(
            handle, path,
            handle.tell() + records * sum(itemsizes),
        )
        columns = []
        for (field, typecode), itemsize in zip(_BINARY_COLUMNS, itemsizes):
            column = array(typecode)
            if column.itemsize != itemsize:
                raise ValueError(
                    f"{path}: {field} itemsize {itemsize} does not "
                    f"match this platform"
                )
            payload = handle.read(records * itemsize)
            if len(payload) != records * itemsize:
                raise ValueError(f"{path}: truncated {field} column")
            column.frombytes(payload)
            if byteorder != sys.byteorder:
                column.byteswap()
            columns.append(column)
    return Trace._from_columns(*columns, n_processors, name)


def _check_file_size(handle, path: PathLike, expected: int) -> None:
    """Reject a file whose size disagrees with its header's layout."""
    size = os.fstat(handle.fileno()).st_size
    if size != expected:
        raise ValueError(
            f"{path}: file size {size} does not match the "
            f"header's layout ({expected} bytes expected; "
            f"truncated, torn, or trailing bytes)"
        )


# ----------------------------------------------------------------------
# v2 columnar container (.bin2): zero-copy mmap loads + persisted
# derived replay columns.
# ----------------------------------------------------------------------

def _align_v2(offset: int) -> int:
    return (offset + _V2_ALIGNMENT - 1) & ~(_V2_ALIGNMENT - 1)


def _derived_buffers(trace: Trace, derived: dict) -> "Optional[dict]":
    """The derived replay columns as flat int64 buffers, or None if
    any value falls outside an int64 segment (base columns still
    persist).

    Built straight from the base columns (numpy arrays or
    ``array('q')``, see :func:`repro.trace.columns.derived_buffers`),
    never through the trace's memoized boxed lists: writing a store
    entry leaves no per-record Python ints behind on the trace.
    """
    n = derived["n_processors"]
    if n > _MAX_DERIVED_NODES:
        return None
    try:
        columns = _columns.derived_buffers(
            trace.addresses, trace.pcs, trace.requesters,
            derived["block_size"], n, derived["index_granularity"],
        )
        mblocks = _columns.aligned_array(
            trace.addresses, derived["macroblock_size"], "q"
        )
    except OverflowError:
        return None
    return dict(columns._asdict(), mblocks=mblocks)


def write_trace_v2(
    trace: Trace, path: PathLike, derived: Optional[dict] = None
) -> None:
    """Write ``trace`` as the v2 columnar container.

    Layout: magic line, one JSON header line carrying the offset
    table, zero padding, then one raw 64-byte-aligned segment per
    column.  ``derived`` optionally persists the derived replay
    columns for one reference configuration — a dict with
    ``block_size``, ``macroblock_size``, ``n_processors``, and
    ``index_granularity`` keys (pure functions of the base columns
    plus those constants, so persisting them never changes trace
    content or its cache key).
    """
    segments = [
        (name, typecode, getattr(trace, name))
        for name, typecode in _BINARY_COLUMNS
    ]
    derived_header = None
    if derived is not None:
        buffers = _derived_buffers(trace, derived)
        if buffers is not None:
            derived_header = {
                "block_size": derived["block_size"],
                "macroblock_size": derived["macroblock_size"],
                "n_processors": derived["n_processors"],
                "index_granularity": derived["index_granularity"],
            }
            segments += [
                (name, "q", buffers[name])
                for name in _V2_DERIVED_SEGMENTS
            ]
    records = len(trace)
    sizes = [
        (name, typecode, records * _V2_ITEMSIZES[typecode])
        for name, typecode, _ in segments
    ]

    # The offset table lives inside the JSON header, whose own length
    # shifts the first segment; iterate to the fixed point (offsets
    # only grow with header length, so this settles in a pass or two).
    data_start = len(_V2_MAGIC)
    while True:
        offsets = []
        offset = _align_v2(data_start)
        for name, typecode, nbytes in sizes:
            offsets.append(
                [name, typecode, _V2_ITEMSIZES[typecode], offset, nbytes]
            )
            offset = _align_v2(offset + nbytes)
        header = json.dumps(
            {
                "version": 2,
                "n_processors": trace.n_processors,
                "name": trace.name,
                "records": records,
                "byteorder": sys.byteorder,
                "segments": offsets,
                "derived": derived_header,
            },
            sort_keys=True,
        ).encode("ascii")
        next_start = len(_V2_MAGIC) + len(header) + 1
        if next_start <= data_start:
            break
        data_start = next_start

    with open(path, "wb") as handle:
        handle.write(_V2_MAGIC)
        handle.write(header)
        handle.write(b"\n")
        position = next_start
        for (_, _, column), entry in zip(segments, offsets):
            _, _, _, offset, nbytes = entry
            handle.write(bytes(offset - position))
            payload = memoryview(column)
            if payload.nbytes != nbytes:  # pragma: no cover - invariant
                raise ValueError("segment size mismatch while writing")
            handle.write(payload)
            position = offset + nbytes


def read_trace_v2(path: PathLike) -> Trace:
    """Read a trace written by :func:`write_trace_v2`, zero-copy.

    The file is mapped (``REPRO_MMAP=0`` substitutes a private bytes
    copy) and every column becomes a read-only ``memoryview`` over the
    mapping: no column bytes are copied, N same-host readers share one
    physical copy through the page cache, and the returned trace is
    *frozen* — mutation first materializes private columns
    (:class:`Trace` copy-on-write), so the store is never written
    through.  Raises ``ValueError`` for malformed, torn, truncated,
    or foreign-byteorder files: the trace cache counts such an entry
    as a miss, so it is rejected and regenerated.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < len(_V2_MAGIC):
            raise ValueError(f"{path}: not a v2 repro-trace file")
        if mmap_enabled() and size > 0:
            buffer = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        else:  # copying fallback: same views over a private copy
            buffer = handle.read()
    base = memoryview(buffer)
    if base[: len(_V2_MAGIC)].tobytes() != _V2_MAGIC:
        raise ValueError(f"{path}: not a v2 repro-trace file")
    header_end = bytes(base[len(_V2_MAGIC): len(_V2_MAGIC) + 65536])
    newline = header_end.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: unterminated v2 header")
    try:
        header = json.loads(header_end[:newline].decode("ascii"))
        n_processors = header["n_processors"]
        name = header["name"]
        records = header["records"]
        byteorder = header["byteorder"]
        segments = header["segments"]
        derived_header = header["derived"]
    except (KeyError, TypeError, UnicodeDecodeError, RecursionError,
            json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: bad v2 header ({exc})")
    if (
        not isinstance(n_processors, int)
        or not isinstance(records, int)
        or records < 0
        or n_processors <= 0
        or not isinstance(name, str)
        or not isinstance(segments, list)
        or not (derived_header is None or isinstance(derived_header, dict))
    ):
        raise ValueError(f"{path}: bad v2 header field types")
    if byteorder != sys.byteorder:
        raise ValueError(
            f"{path}: byteorder {byteorder!r} does not match this "
            f"platform ({sys.byteorder}); the entry is rejected "
            f"and regenerated"
        )

    base_names = [name_ for name_, _ in _BINARY_COLUMNS]
    expected_names = list(base_names)
    if derived_header is not None:
        for field in (
            "block_size", "macroblock_size",
            "n_processors", "index_granularity",
        ):
            if not isinstance(derived_header.get(field), int):
                raise ValueError(f"{path}: bad v2 derived header")
        expected_names += list(_V2_DERIVED_SEGMENTS)
    typecodes = dict(_BINARY_COLUMNS)

    # Validate the whole offset table against the fstat size before
    # touching any segment: truncation and torn writes are rejected
    # up front, not discovered column-by-column.
    end = len(_V2_MAGIC) + newline + 1
    views = {}
    if not all(
        isinstance(entry, list)
        and len(entry) == 5
        and all(isinstance(field, int) for field in entry[2:])
        for entry in segments
    ) or [entry[0] for entry in segments] != expected_names:
        raise ValueError(f"{path}: bad v2 segment table")
    for entry in segments:
        seg_name, typecode, itemsize, offset, nbytes = entry
        expected_code = typecodes.get(seg_name, "q")
        if (
            typecode != expected_code
            or itemsize != _V2_ITEMSIZES[expected_code]
            or nbytes != records * itemsize
            or offset % _V2_ALIGNMENT
            or offset < end
        ):
            raise ValueError(f"{path}: bad v2 segment {seg_name!r}")
        end = offset + nbytes
    if end != size:
        raise ValueError(
            f"{path}: file size {size} does not match the header's "
            f"offset table ({end} bytes expected; truncated or torn)"
        )
    for entry in segments:
        seg_name, typecode, _, offset, nbytes = entry
        views[seg_name] = base[offset: offset + nbytes].cast(typecode)

    derived_store = None
    if derived_header is not None:
        derived_store = {
            seg_name: views[seg_name]
            for seg_name in _V2_DERIVED_SEGMENTS
        }
    return Trace._from_buffers(
        *(views[name_] for name_ in base_names),
        n_processors=n_processors,
        name=name,
        source=buffer,
        derived_store=derived_store,
        derived_meta=derived_header,
    )


def read_trace(path: PathLike, trusted: bool = False) -> Trace:
    """Read a trace written by :func:`write_trace`.

    ``trusted=True`` skips per-record validation; use it only for files
    this package wrote itself (e.g. trace-cache entries).
    """
    with open(path, "r", encoding="ascii") as handle:
        header = handle.readline().rstrip("\n")
        n_processors, name = _parse_header(header, path)
        trace = Trace(n_processors=n_processors, name=name)
        append = trace.append_fields
        codes = _ACCESS_CODES
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (4, 5):
                raise ValueError(
                    f"{path}:{line_number}: expected 4 or 5 fields"
                )
            try:
                address = int(parts[0], 16)
                pc = int(parts[1], 16)
                requester = int(parts[2])
                code = codes[parts[3]]
                instructions = int(parts[4]) if len(parts) == 5 else 0
            except KeyError:
                raise ValueError(
                    f"{path}:{line_number}: bad access kind {parts[3]!r}"
                ) from None
            except ValueError as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from exc
            if not trusted:
                _validate_fields(
                    address, pc, requester, instructions,
                    n_processors, path, line_number,
                )
            append(address, pc, requester, code, instructions)
    return trace


def _validate_fields(
    address: int,
    pc: int,
    requester: int,
    instructions: int,
    n_processors: int,
    path: PathLike,
    line_number: int,
) -> None:
    if address < 0 or pc < 0 or instructions < 0:
        raise ValueError(
            f"{path}:{line_number}: negative field in record"
        )
    if not 0 <= requester < n_processors:
        raise ValueError(
            f"{path}:{line_number}: requester {requester} outside "
            f"[0, {n_processors})"
        )


def _parse_header(header: str, path: PathLike) -> "tuple[int, str]":
    if not header.startswith(_HEADER_PREFIX):
        raise ValueError(f"{path}: not a repro-trace file (bad header)")
    fields = dict(
        part.split("=", 1)
        for part in header[len(_HEADER_PREFIX):].split()
        if "=" in part
    )
    try:
        n_processors = int(fields["n_processors"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed trace header") from exc
    name = fields.get("name", "-")
    return n_processors, "" if name == "-" else name
