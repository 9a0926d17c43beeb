"""Unified simulation-backend selection (``REPRO_BACKEND``).

One switch selects how the replay hot loops execute:

- ``pure``   — the scalar Python loops (each protocol's
  ``_handle_fast`` replay, the generic timing pass, the chunk
  collector): the dependency-free portability and correctness floor.
- ``native`` — the compiled kernel tier (:mod:`repro.kernels`): every
  protocol replay with a native twin, the chunk collector, and the
  crossbar timing passes run inside a C extension; anything outside
  its envelope runs the ``pure`` loops.

numpy is not a backend but an accelerator under either one: when it
imports, the generation draws, derived columns and analysis kernels
(:mod:`repro.trace.columns`) use it.  Only ``REPRO_PURE_PYTHON=1`` and
the in-process test hook ``repro.trace.columns.set_backend("python")``
turn it off.

Resolution order:

1. ``REPRO_BACKEND`` (``pure``/``native``/``auto``),
2. ``REPRO_PURE_PYTHON=1`` — selects ``pure`` and also turns the
   numpy accelerator off (kept because CI legs and user scripts set
   it; ``REPRO_BACKEND`` wins when both are set),
3. auto-detection: ``native`` when the compiled extension imports,
   else ``pure``.

Every combination produces byte-identical results (ResultSet JSON,
predictor tables, hex-float timing goldens) — record path ≡ scalar
loop ≡ native kernel, with numpy on or off; the equivalence suites
enforce it — so the switch is purely about speed.  Requesting
``native`` without the built extension warns once and falls back to
``pure`` rather than failing.

The module is also the single source of truth consulted by
:mod:`repro.kernels` (native kernel dispatch), the bench harness
(``columns_backend`` in BENCH.json) and ``ResultSet.perf``.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Iterator, Optional, Tuple

#: The unified backend environment variable.
BACKEND_ENV = "REPRO_BACKEND"

#: ``REPRO_PURE_PYTHON=1``: the ``pure`` backend with numpy off.
PURE_PYTHON_ENV = "REPRO_PURE_PYTHON"

#: Registered backends, slowest floor first.
BACKENDS: Tuple[str, ...] = ("pure", "native")

#: The ``_native.ABI_VERSION`` this package's glue speaks.  An
#: extension built from an older ``_native.c`` counts as unbuilt.
NATIVE_ABI_VERSION = 7

_active: Optional[str] = None
_warned_native_missing = False
_native_module = False  # sentinel: not probed yet


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
                    "ignoring it (pure tier only).  Rebuild it with "
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
        "extension is not built; falling back to the pure tier.  "
        "Build it with "
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
            return "pure"
        return value
    if os.environ.get(PURE_PYTHON_ENV):
        # REPRO_BACKEND wins when both are set.
        return "pure"
    return "native" if native_available() else "pure"


def backend_name() -> str:
    """The active unified backend: ``pure`` or ``native``."""
    global _active
    if _active is None:
        set_backend("auto")
    return _active


def native_active() -> bool:
    """True when the native kernel tier should be dispatched."""
    return backend_name() == "native"


def set_backend(name: str) -> None:
    """Select the backend: ``pure``/``native``/``auto``.

    Leaves the numpy accelerator as it is (see the module docstring).
    Raises when ``native`` is requested but unavailable; ``auto``
    raises only on an unknown ``REPRO_BACKEND`` value.
    """
    global _active
    name = name.strip().lower()
    if name == "python":
        name = "pure"
    if name == "auto":
        _active = resolve_env()
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
    _active = name


def _sync_from_columns(columns_name: str) -> None:
    """Track a :func:`repro.trace.columns.set_backend` call.

    The column-level switch is what the equivalence suites parametrize
    over ("numpy accelerator off/on"); pinning either value pins the
    ``pure`` tier here, so those suites compare the scalar Python
    loops and never silently dispatch the native kernels.  ``auto``
    re-runs the env resolution.
    """
    global _active
    _active = resolve_env() if columns_name == "auto" else "pure"


@contextlib.contextmanager
def use(name: str) -> Iterator[str]:
    """Temporarily select a backend (bench/tests helper)."""
    previous = backend_name()
    set_backend(name)
    try:
        yield backend_name()
    finally:
        set_backend(previous)
