"""Unified backend switch: explicit-native build hint + decline tallies.

``REPRO_BACKEND=native`` on a machine without the compiled extension
must warn once — with the build command — then fall back to the
``pure`` tier (``auto`` stays silent by design).  Native-kernel
declines are counted per kernel and per reason so a native run that
fell back mid-sweep is visible in ``ResultSet.perf`` rather than just
slower.
"""

import concurrent.futures
import warnings

import pytest

from repro import kernels
from repro.common import backend as _backend
from repro.experiment.results import PerfStats


@pytest.fixture
def unbuilt_native(monkeypatch):
    """Pretend the compiled extension is absent, warning state fresh."""
    monkeypatch.setattr(_backend, "_native_module", None)
    monkeypatch.setattr(_backend, "_warned_native_missing", False)
    monkeypatch.delenv(_backend.PURE_PYTHON_ENV, raising=False)
    monkeypatch.setenv(_backend.BACKEND_ENV, "native")


def test_explicit_native_unbuilt_warns_once_with_build_hint(
    unbuilt_native,
):
    with pytest.warns(RuntimeWarning) as caught:
        resolved = _backend.resolve_env()
    assert resolved == "pure"
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "python -m repro.kernels.build" in message
    # Warned once per process: a second resolve stays silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _backend.resolve_env() == "pure"


def test_auto_with_unbuilt_native_stays_silent(
    unbuilt_native, monkeypatch
):
    monkeypatch.setenv(_backend.BACKEND_ENV, "auto")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _backend.resolve_env() == "pure"


def test_stale_native_extension_counts_as_unbuilt(monkeypatch):
    """An extension built from an older ``_native.c`` (wrong
    ``ABI_VERSION``) is never handed to the glue: it counts as
    unbuilt, with one warning naming the rebuild command."""
    import sys
    import types

    import repro.kernels

    stale = types.ModuleType("repro.kernels._native")
    stale.ABI_VERSION = _backend.NATIVE_ABI_VERSION - 1
    monkeypatch.setitem(sys.modules, "repro.kernels._native", stale)
    monkeypatch.setattr(repro.kernels, "_native", stale, raising=False)
    monkeypatch.setattr(_backend, "_native_module", False)
    with pytest.warns(RuntimeWarning) as caught:
        assert _backend.native_module() is None
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "python -m repro.kernels.build" in message
    assert str(_backend.NATIVE_ABI_VERSION) in message
    # Probed once per process: asking again neither warns nor flips.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _backend.native_module() is None
        assert not _backend.native_available()
        assert "native" not in kernels.available_backends()


def test_current_native_extension_is_accepted(monkeypatch):
    import sys
    import types

    import repro.kernels

    current = types.ModuleType("repro.kernels._native")
    current.ABI_VERSION = _backend.NATIVE_ABI_VERSION
    monkeypatch.setitem(sys.modules, "repro.kernels._native", current)
    monkeypatch.setattr(repro.kernels, "_native", current, raising=False)
    monkeypatch.setattr(_backend, "_native_module", False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _backend.native_module() is current


def test_decline_counters_tally_per_kernel_and_reason():
    kernels.reset_decline_counts()
    try:
        kernels.record_decline("policy_replay", "envelope")
        kernels.record_decline("policy_replay", "envelope")
        kernels.record_decline("timing_pass_detailed", "envelope")
        kernels.record_decline("group_replay", "overflow")
        assert kernels.decline_counts() == {
            "policy_replay:envelope": 2,
            "timing_pass_detailed:envelope": 1,
            "group_replay:overflow": 1,
        }
        # Snapshots are copies, not views.
        snapshot = kernels.decline_counts()
        snapshot["policy_replay:envelope"] = 99
        assert kernels.decline_counts()["policy_replay:envelope"] == 2
    finally:
        kernels.reset_decline_counts()
    assert kernels.decline_counts() == {}


def test_decline_counters_coherent_under_concurrent_increments():
    # Threaded sweeps bump the process-wide tally from many threads
    # at once; the lock in record_decline must make the
    # read-modify-write atomic so no increment is lost.
    kernels.reset_decline_counts()
    per_thread = 5_000
    threads = 8

    def hammer(index: int) -> None:
        for _ in range(per_thread):
            kernels.record_decline("policy_replay", "envelope")
            kernels.record_decline(f"kernel{index % 2}", "overflow")

    try:
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            list(pool.map(hammer, range(threads)))
        counts = kernels.decline_counts()
        assert counts["policy_replay:envelope"] == threads * per_thread
        assert (
            counts["kernel0:overflow"] + counts["kernel1:overflow"]
            == threads * per_thread
        )
    finally:
        kernels.reset_decline_counts()


def test_perf_stats_render_decline_tallies():
    perf = PerfStats(
        1000, 2.0, "native", {"policy_replay:envelope": 3}
    )
    text = str(perf)
    assert "native backend" in text
    assert "policy_replay:envelope x3" in text
    # No decline line when the tally is empty.
    assert "declines" not in str(PerfStats(1000, 2.0, "native"))


def test_native_source_abi_version_matches_glue():
    """``_native.c``'s ABI_VERSION equals the glue's expectation.

    Parsed from the source, so CI legs that never build the extension
    still catch one side moving without the other.
    """
    import pathlib
    import re

    source = (
        pathlib.Path(_backend.__file__).resolve().parent.parent
        / "kernels" / "_native.c"
    ).read_text()
    found = re.findall(
        r'PyModule_AddIntConstant\(\s*m,\s*"ABI_VERSION",\s*(\d+)\s*\)',
        source,
    )
    assert found == [str(_backend.NATIVE_ABI_VERSION)]


def test_phase_tally_sums_and_resets():
    kernels.reset_phase_totals()
    try:
        kernels.record_phases(5, 7, 0)
        kernels.record_phases(1, 0, 11)
        assert kernels.phase_totals() == {
            "marshal_ns": 6, "compute_ns": 7, "writeback_ns": 11,
        }
    finally:
        kernels.reset_phase_totals()
    assert kernels.phase_totals() == dict.fromkeys(kernels.PHASES, 0)


def test_perf_stats_render_native_phases():
    perf = PerfStats(
        1000, 2.0, "native", {},
        {"marshal_ns": 2_000_000, "compute_ns": 30_000_000,
         "writeback_ns": 0},
    )
    assert (
        "native replay phases: marshal 2.0 ms, compute 30.0 ms, "
        "write-back 0.0 ms" in str(perf)
    )
    assert "phases" not in str(PerfStats(1000, 2.0, "pure"))
