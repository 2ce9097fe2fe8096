"""The host's speed while the benchmark runs, and times scaled to it.

The reference host is a 2-core container on a shared machine.  Its
speed changes by up to 1.8 times within seconds, from work outside the
container: the other core stays idle, no time is stolen from the
container's processes (``/proc/stat``), and CPU time tracks wall time, so
the same code simply runs slower.  A median over a 55-second run mixes
fast and slow stretches in a share that differs from run to run, and the
time metrics moved by a quarter of their median between runs of the same
code.

:class:`SpeedProbe` times a fixed piece of pure-Python work (integer
arithmetic, dict building, sorting, string joining) between the
benchmark's timed operations, never inside one, and
:meth:`SpeedProbe.scaled` turns a measured time into the time it would
have taken at the reference speed: the time multiplied by
:data:`REFERENCE_SECONDS` over the probe's median duration in the
stretch around it.  The probe's duration is the thread's CPU time with
garbage collection off, so a thread the program starts, or the size of
the program's heap, does not change it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter, thread_time

#: The probe's duration at the reference speed, about its median on the
#: reference host (Python 3.11.7).  It sets only the scale: every scaled
#: time moves by the same factor when it changes.
REFERENCE_SECONDS = 0.002
#: Least time between two probes; each takes about 2 ms.
INTERVAL = 0.05
#: Probes this many seconds before or after a timed operation set its
#: speed.
WINDOW = 0.3

_KEYS = [f"city{i:03d}" for i in range(400)]


def _probe_work() -> int:
    total = 0
    for i in range(12000):
        total += i * i % 7
    rows = [{"entity": key, "attribute": "jan_temp", "value": i * 0.5}
            for i, key in enumerate(_KEYS)]
    index: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        index.setdefault((row["entity"], row["attribute"]), []).append(row)
    rows.sort(key=lambda row: (row["value"] % 3, row["entity"]))
    return total + len(index) + len(" ".join(row["entity"] for row in rows))


class SpeedProbe:
    """Probe durations over a run, and times scaled by them."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        #: Wall time spent probing, to take out of a timed stretch that
        #: probes ran inside (the serve stage's reads).
        self.spent = 0.0
        self._next = 0.0

    def tick(self) -> None:
        """Probe, unless the last probe was under :data:`INTERVAL` ago."""
        if perf_counter() >= self._next:
            self.probe()

    def probe(self) -> None:
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu = thread_time()
            _probe_work()
            took = thread_time() - cpu
        finally:
            if collecting:
                gc.enable()
        end = perf_counter()
        self.at.append(start)
        self.took.append(took)
        self.spent += end - start
        self._next = end + INTERVAL

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, start + seconds + WINDOW)
        near = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return seconds * REFERENCE_SECONDS / statistics.median(near)
