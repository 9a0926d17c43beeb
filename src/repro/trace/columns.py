"""Vectorized derived-column computation (optional numpy backend).

The batch execution layer replays traces through fused loops that
iterate *pre-boxed* Python lists: every derived quantity the protocol
kernels need per record — block-aligned addresses, predictor index
keys, home nodes, and the minimal-destination-set / requester bitmasks
— is computed once per trace as a column instead of per record.

When numpy is importable the columns are produced by vectorized int64
arithmetic over the trace's flat ``array`` buffers and then boxed with
``tolist()``; otherwise a pure-Python comprehension produces the same
lists.  Both backends yield *identical* Python ints, so simulation
results are byte-for-byte independent of the backend — the equivalence
suite asserts this.

Set ``REPRO_BACKEND=pure`` (or the deprecated back-compat alias
``REPRO_PURE_PYTHON=1``) in the environment to force the pure backend
even when numpy is installed (CI runs both); see
:mod:`repro.common.backend` for the unified backend switch this
column-level selection is one layer of.
"""

from __future__ import annotations

import os
from array import array
from typing import List, NamedTuple, Optional

#: Environment variable that force-disables the numpy backend
#: (deprecated alias of ``REPRO_BACKEND=pure``).
PURE_PYTHON_ENV = "REPRO_PURE_PYTHON"

#: Bitmask columns need one bit per node in an int64 numpy lane.
_MAX_NUMPY_NODES = 62


def _import_numpy():
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on no-numpy CI
        return None
    return numpy


def _env_forces_pure() -> bool:
    return bool(
        os.environ.get(PURE_PYTHON_ENV)
        or os.environ.get("REPRO_BACKEND", "").strip().lower()
        in ("pure", "python")
    )


_np = None if _env_forces_pure() else _import_numpy()


def backend_name() -> str:
    """The active column backend: ``"numpy"`` or ``"python"``."""
    return "numpy" if _np is not None else "python"


def numpy_module():
    """The numpy module when the numpy backend is active, else None.

    The batched generation layer (:mod:`repro.workloads.genchunks`) and
    the analysis column kernels consult this at call time, so
    :func:`set_backend` switches every vectorized path at once.
    """
    return _np


def set_backend(name: str) -> None:
    """Select the column backend: ``"numpy"``, ``"python"``, ``"auto"``.

    Intended for tests and benchmarks; raises if numpy is requested
    but not importable.  ``"auto"`` re-runs the import-time detection
    (honouring ``REPRO_BACKEND`` and :data:`PURE_PYTHON_ENV`).

    Pinning a column backend also pins the matching unified tier in
    :mod:`repro.common.backend` ("python" -> pure, "numpy" -> numpy),
    so the equivalence suites that parametrize over this function
    compare the Python replay loops and never silently dispatch the
    native kernels.
    """
    _apply(name)
    from repro.common import backend as _backend

    _backend._sync_from_columns(name)


def _apply(name: str) -> None:
    """Low-level column switch (no unified-backend notification)."""
    global _np
    if name == "python":
        _np = None
    elif name in ("numpy", "numpy-if-available"):
        numpy = _import_numpy()
        if numpy is None:
            if name == "numpy-if-available":
                _np = None
                return
            raise RuntimeError("numpy backend requested but not importable")
        _np = numpy
    elif name == "auto":
        _np = None if _env_forces_pure() else _import_numpy()
    elif name == "auto-numpy":
        # Unified auto resolved to a non-pure tier: numpy when
        # importable regardless of the pure-forcing env (the caller
        # already decided the tier).
        _np = _import_numpy()
    else:
        raise ValueError(f"unknown backend {name!r}")


class DerivedColumns(NamedTuple):
    """Per-record derived columns for one protocol configuration.

    All fields are plain Python lists (pre-boxed ints), identical
    across backends (:func:`derived_buffers` returns the same tuple
    of flat int64 buffers instead):

    - ``blocks`` — block-aligned addresses,
    - ``keys`` — predictor table index keys (PC or ``address //
      granularity``; ``None`` when no granularity was requested),
    - ``homes`` — the home node of each block,
    - ``minimals`` — the minimal destination set bitmask
      (requester + home),
    - ``reqbits`` — ``1 << requester``,
    - ``notreqs`` — ``~(1 << requester)`` (the mask that strips the
      requester from a delivery set).
    """

    blocks: List[int]
    keys: Optional[List[int]]
    homes: List[int]
    minimals: List[int]
    reqbits: List[int]
    notreqs: List[int]


def _numpy_lanes(addresses, requesters, n_processors: int) -> bool:
    """Whether the numpy tier can build these columns in int64 lanes."""
    return (
        _np is not None
        and n_processors <= _MAX_NUMPY_NODES
        and addresses.itemsize == 8
        and requesters.itemsize == 4
    )


def derived_buffers(
    addresses,
    pcs,
    requesters,
    block_size: int,
    n_processors: int,
    key_granularity: Optional[int] = None,
    use_pc_index: bool = False,
) -> DerivedColumns:
    """Every derived replay column as a flat int64 buffer.

    The unboxed form of :func:`derived_columns` (same fields, same
    values): numpy int64 arrays under the numpy tier, ``array('q')``
    otherwise.  Consumers that only need the bytes — the v2 trace
    store writer — take these directly instead of boxing every value
    into a list first.  Bitmask columns need ``n_processors <= 62``;
    the ``array('q')`` form raises ``OverflowError`` for any value
    outside int64.
    """
    if not _numpy_lanes(addresses, requesters, n_processors):
        return DerivedColumns(*(
            None if column is None else array("q", column)
            for column in derived_columns(
                addresses, pcs, requesters, block_size, n_processors,
                key_granularity, use_pc_index,
            )
        ))
    addr = _np.frombuffer(addresses, dtype=_np.int64)
    blocks = addr & _np.int64(~(block_size - 1))
    homes = (blocks >> (block_size.bit_length() - 1)) % n_processors
    reqbits = _np.int64(1) << _np.frombuffer(
        requesters, dtype=_np.int32
    ).astype(_np.int64)
    minimals = reqbits | (_np.int64(1) << homes)
    if use_pc_index:
        keys = _np.asarray(pcs, dtype=_np.int64)
    elif key_granularity is not None:
        keys = addr // key_granularity
    else:
        keys = None
    return DerivedColumns(blocks, keys, homes, minimals, reqbits, ~reqbits)


def derived_columns(
    addresses,
    pcs,
    requesters,
    block_size: int,
    n_processors: int,
    key_granularity: Optional[int] = None,
    use_pc_index: bool = False,
) -> DerivedColumns:
    """Build every derived replay column for one configuration at once.

    ``addresses``/``pcs``/``requesters`` are the trace's flat
    ``array`` columns.  Vectorized end-to-end under numpy (boxing the
    :func:`derived_buffers` arrays); the pure fallback produces
    identical lists.
    """
    if _numpy_lanes(addresses, requesters, n_processors):
        return DerivedColumns(*(
            None if column is None else column.tolist()
            for column in derived_buffers(
                addresses, pcs, requesters, block_size, n_processors,
                key_granularity, use_pc_index,
            )
        ))

    block_shift = block_size.bit_length() - 1
    n = n_processors
    mask = ~(block_size - 1)
    blocks_list = [a & mask for a in addresses]
    homes_list = [(b >> block_shift) % n for b in blocks_list]
    reqbits_list = [1 << r for r in requesters]
    minimals_list = [
        rb | (1 << h) for rb, h in zip(reqbits_list, homes_list)
    ]
    if use_pc_index:
        keys_list: Optional[List[int]] = list(pcs)
    elif key_granularity is not None:
        keys_list = [a // key_granularity for a in addresses]
    else:
        keys_list = None
    return DerivedColumns(
        blocks_list,
        keys_list,
        homes_list,
        minimals_list,
        reqbits_list,
        [~rb for rb in reqbits_list],
    )


def derived_from_segments(segments) -> DerivedColumns:
    """Box persisted derived segments into :class:`DerivedColumns`.

    ``segments`` maps segment names (as laid out by the v2 trace
    store — see :mod:`repro.trace.io`) to flat int64 buffers over the
    store mapping.  Boxing each segment once here replaces the
    per-process arithmetic recompute with straight C-level copies;
    the resulting lists are identical to what
    :func:`derived_columns` produces from the base columns.
    """
    return DerivedColumns(
        list(segments["blocks"]),
        list(segments["keys"]),
        list(segments["homes"]),
        list(segments["minimals"]),
        list(segments["reqbits"]),
        list(segments["notreqs"]),
    )


def aligned_list(addresses, block_size: int) -> List[int]:
    """Block-aligned addresses as a pre-boxed list.

    The lighter sibling of :func:`derived_columns` for consumers that
    only need the block keys (the baseline protocols' replay loop).
    """
    if _np is not None and addresses.itemsize == 8:
        return (
            _np.frombuffer(addresses, dtype=_np.int64)
            & _np.int64(~(block_size - 1))
        ).tolist()
    mask = ~(block_size - 1)
    return [a & mask for a in addresses]


def aligned_array(addresses, block_size: int, typecode: str):
    """Aligned addresses as a stdlib ``array`` (the legacy key API)."""
    if _np is not None and addresses.itemsize == 8:
        aligned = _np.frombuffer(
            addresses, dtype=_np.int64
        ) & _np.int64(~(block_size - 1))
        out = array(typecode)
        out.frombytes(aligned.tobytes())
        return out
    mask = ~(block_size - 1)
    return array(typecode, (a & mask for a in addresses))
