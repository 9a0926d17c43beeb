"""Unified simulation-backend selection (``REPRO_BACKEND``).

One switch selects how the hot loops execute:

- ``pure``   — pure-Python derived columns and replay loops (the
  dependency-free floor; what CI's baseline gate runs).
- ``numpy``  — vectorized derived-column computation; the replay
  loops themselves stay Python (PRs 2-4's fused loops).
- ``native`` — the compiled kernel tier (:mod:`repro.kernels`): the
  fused Group replay, the chunk collector, and the crossbar timing
  pass run inside a C extension, with numpy (when importable)
  producing the derived columns for everything else.

Resolution order:

1. ``REPRO_BACKEND`` (``pure``/``numpy``/``native``/``auto``),
2. ``REPRO_PURE_PYTHON=1`` — the **deprecated** back-compat alias for
   ``REPRO_BACKEND=pure`` (kept because PR 2-6 CI legs and user
   scripts set it; prefer ``REPRO_BACKEND`` in new code),
3. auto-detection: ``native`` when the compiled extension imports,
   else ``numpy`` when numpy imports, else ``pure``.

Every tier produces byte-identical results (ResultSet JSON, predictor
tables, hex-float timing goldens) — the equivalence suites enforce it
— so the switch is purely about speed.  Requesting an unavailable
tier warns once and falls back down the list rather than failing.

The module is also the single source of truth consulted by
:mod:`repro.trace.columns` (column computation), :mod:`repro.kernels`
(native kernel dispatch), the bench harness (``columns_backend`` in
BENCH.json) and ``ResultSet.perf``.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Iterator, Optional, Tuple

#: The unified backend environment variable.
BACKEND_ENV = "REPRO_BACKEND"

#: Deprecated alias: ``REPRO_PURE_PYTHON=1`` == ``REPRO_BACKEND=pure``.
PURE_PYTHON_ENV = "REPRO_PURE_PYTHON"

#: Registered backends, slowest floor first.
BACKENDS: Tuple[str, ...] = ("pure", "numpy", "native")

#: The ``_native.ABI_VERSION`` this package's glue speaks.  An
#: extension built from an older ``_native.c`` counts as unbuilt.
NATIVE_ABI_VERSION = 6

_active: Optional[str] = None
_warned_native_missing = False
_native_module = False  # sentinel: not probed yet


def _numpy_available() -> bool:
    from repro.trace import columns as _columns

    return _columns._import_numpy() is not None


def native_module():
    """The compiled kernel extension module, or None when unbuilt.

    Probed once per process; build it in a source checkout with
    ``python -m repro.kernels.build`` (or install a binary wheel).  A
    stale build (``ABI_VERSION`` other than :data:`NATIVE_ABI_VERSION`)
    is treated as unbuilt, with one warning naming the rebuild command.
    """
    global _native_module
    if _native_module is False:
        try:
            from repro.kernels import _native
        except ImportError:
            _native_module = None
        else:
            found = getattr(_native, "ABI_VERSION", None)
            if found == NATIVE_ABI_VERSION:
                _native_module = _native
            else:
                _native_module = None
                warnings.warn(
                    f"the compiled kernel extension speaks ABI {found}, "
                    f"this package expects {NATIVE_ABI_VERSION}; "
                    "ignoring it (Python tiers only).  Rebuild it with "
                    "`python -m repro.kernels.build`.",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return _native_module


def native_available() -> bool:
    """True when the compiled kernel extension is importable."""
    return native_module() is not None


def _warn_native_missing() -> None:
    global _warned_native_missing
    if _warned_native_missing:
        return
    _warned_native_missing = True
    warnings.warn(
        "REPRO_BACKEND=native requested but the compiled kernel "
        "extension is not built; falling back to the fastest "
        "available Python tier.  Build it with "
        "`python -m repro.kernels.build` (or install a binary wheel).",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_env() -> str:
    """Resolve the backend from the environment (no state change)."""
    value = os.environ.get(BACKEND_ENV, "").strip().lower()
    if value and value != "auto":
        if value == "python":  # tolerated spelling of the pure tier
            value = "pure"
        if value not in BACKENDS:
            raise ValueError(
                f"unknown {BACKEND_ENV}={value!r}; "
                f"expected one of {BACKENDS} or 'auto'"
            )
        if value == "native" and not native_available():
            _warn_native_missing()
            return "numpy" if _numpy_available() else "pure"
        if value == "numpy" and not _numpy_available():
            warnings.warn(
                f"{BACKEND_ENV}=numpy requested but numpy is not "
                "importable; falling back to the pure tier.",
                RuntimeWarning,
                stacklevel=2,
            )
            return "pure"
        return value
    if os.environ.get(PURE_PYTHON_ENV):
        # Deprecated alias; honoured indefinitely for existing CI
        # legs and scripts, but REPRO_BACKEND wins when both are set.
        return "pure"
    if native_available():
        return "native"
    return "numpy" if _numpy_available() else "pure"


def backend_name() -> str:
    """The active unified backend: ``pure``/``numpy``/``native``."""
    global _active
    if _active is None:
        set_backend("auto")
    return _active


def native_active() -> bool:
    """True when the native kernel tier should be dispatched."""
    return backend_name() == "native"


def set_backend(name: str) -> None:
    """Select the backend: ``pure``/``numpy``/``native``/``auto``.

    Keeps :mod:`repro.trace.columns` in sync: ``pure`` forces the
    pure-Python column path, everything else uses numpy columns when
    importable.  Raises when an explicitly requested tier is
    unavailable (``auto`` never raises).
    """
    global _active
    from repro.trace import columns as _columns

    name = name.strip().lower()
    if name == "python":
        name = "pure"
    if name == "auto":
        resolved = resolve_env()
        _active = resolved
        _columns._apply("python" if resolved == "pure" else "auto-numpy")
        return
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKENDS}"
        )
    if name == "native" and not native_available():
        raise RuntimeError(
            "native backend requested but the compiled kernel "
            "extension is not importable; build it with "
            "`python -m repro.kernels.build`"
        )
    if name == "numpy" and not _numpy_available():
        raise RuntimeError("numpy backend requested but not importable")
    _active = name
    _columns._apply("python" if name == "pure" else "numpy-if-available")


def _sync_from_columns(columns_name: str) -> None:
    """Track a legacy :func:`repro.trace.columns.set_backend` call.

    The column-level switch predates this module and is what the
    equivalence suites parametrize over; selecting a column backend
    there pins the matching Python tier here (so a suite comparing
    "python" vs "numpy" really compares the Python loops, never the
    native kernels), and ``auto`` re-runs the env resolution.
    """
    global _active
    if columns_name == "python":
        _active = "pure"
    elif columns_name == "numpy":
        _active = "numpy"
    else:  # "auto"
        _active = resolve_env()


@contextlib.contextmanager
def use(name: str) -> Iterator[str]:
    """Temporarily select a backend (bench/tests helper)."""
    previous = backend_name()
    set_backend(name)
    try:
        yield backend_name()
    finally:
        set_backend(previous)
