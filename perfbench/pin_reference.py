"""Pin reference digests for chosen seeds on the ``pure`` backend.

    PYTHONPATH=src python3 perfbench/pin_reference.py --seed 42

Rewrites ``reference.json`` beside this file.  Runs every operation
of every workload on the pure-Python tier, from freshly generated
traces (about a minute per seed), so a run with a pinned seed checks
each pass in full against results the native tier did not produce.
Re-pin only when a change is meant to alter results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile

from repro.common import backend
from workloads import REFERENCE_FILE, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)
    pinned = {}
    scratch = tempfile.mkdtemp(prefix="perfbench-pin-")
    try:
        for name, cls in WORKLOADS.items():
            for seed in args.seed:
                with backend.use("pure"):
                    digests = cls(seed, scratch).pure_reference(full=True)
                pinned.setdefault(name, {})[str(seed)] = digests
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
