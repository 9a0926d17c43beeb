"""Build the native kernel extension in a source checkout.

``python -m repro.kernels.build`` compiles ``_native.c`` next to its
source with the interpreter's own C compiler configuration — no build
system required beyond a C compiler.  Wheel builds go through
``setup.py`` instead (the sdist path also falls back to a pure-Python
wheel when no compiler is present); this module is the
developer/CI-checkout path.

Exit status 0 on success (the extension imports afterwards), 1 when
compilation fails — callers that treat the native tier as optional
should tolerate failure and stay on the pure backend.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig


def source_path() -> str:
    """Absolute path of the C source."""
    return os.path.join(os.path.dirname(__file__), "_native.c")


def extension_path() -> str:
    """Where the built extension lands (importable as ``_native``)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(os.path.dirname(__file__), "_native" + suffix)


def compiler_command() -> list:
    """The compile command line (exposed for inspection/tests)."""
    cc = sysconfig.get_config_var("CC") or os.environ.get("CC") or "cc"
    cflags = sysconfig.get_config_var("CCSHARED") or "-fPIC"
    include = sysconfig.get_paths()["include"]
    command = cc.split()
    command += ["-O2", "-fno-strict-aliasing"]
    command += cflags.split()
    command += ["-I", include, "-shared", source_path(), "-o",
                extension_path()]
    return command


def build(verbose: bool = True) -> bool:
    """Compile the extension in place.  True on success."""
    command = compiler_command()
    if verbose:
        print(" ".join(command))
    try:
        completed = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
    except OSError as exc:  # no compiler on PATH
        if verbose:
            print(f"native kernel build skipped: {exc}", file=sys.stderr)
        return False
    output = completed.stdout.decode(errors="replace")
    if completed.returncode != 0:
        if verbose:
            print(output, file=sys.stderr)
            print(
                "native kernel build failed; the pure backend "
                "remains fully functional.",
                file=sys.stderr,
            )
        return False
    if verbose and output.strip():
        print(output)
    return True


def main(argv=None) -> int:
    ok = build(verbose=True)
    if ok:
        print(f"built {extension_path()}")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
