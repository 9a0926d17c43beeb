"""Host-speed calibration for a shared, drifting host.

On a shared host the same pass can run at half speed for minutes at a
time, in CPU time as well as wall time, with no steal or throttling
visible from inside.  Timed figures are therefore scaled to a fixed
reference speed: just before and just after each timed pass, set-up
and import, the interpreter's built-in sort of a fixed list of 100,000
pseudo-random integers — memory-bound C code that touches no ``repro``
code — is timed.  With ``speed`` the mean of the two scores over
``REFERENCE_KKEYS``,

    calibrated rate = measured rate / speed
    calibrated time = measured time * speed

and the run reports the median over its passes (set-ups, imports).  A
change to the program moves a calibrated figure exactly as it moves
the raw one, while a slower host moves both the figure and the score.
Beside paper_warm passes at half speed the sort followed the pass rate
with correlation 0.95 and left a 6% spread in their ratio, where the
raw rate spread 16%.  A pure-Python dict loop tracked the slow-down
between phases as well but swung more than the passes within one, so
ten runs spread 8–12% with it against 2–6% with the sort.  Raw
figures are reported next to the calibrated ones.
"""

from __future__ import annotations

import random
import statistics
import time

#: Sort score (thousand keys per second) of the reference host: a
#: 2-core x86_64 box running Python 3.11.7 with no other load.
REFERENCE_KKEYS = 5000.0

_RNG = random.Random(20030609)
_KEYS = [_RNG.randrange(1 << 40) for _ in range(100_000)]
REPEATS = 3


def speed() -> float:
    """This host's current speed as a share of the reference host's."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        sorted(_KEYS)
        times.append(time.perf_counter() - started)
    return len(_KEYS) / statistics.median(times) / 1e3 / REFERENCE_KKEYS
