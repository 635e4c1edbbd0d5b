"""Machine-speed probe: scales measured op times to a fixed reference speed.

The benchmark was written on a shared 2-core machine whose speed drifts. A
fixed pure-Python loop ran up to 30% slower, at times for minutes, and raw op
times moved with it: the spread of raw run times across runs was 14-31%.
So every untraced run keeps a SIGALRM timer that runs a small fixed probe
every ``INTERVAL`` seconds. The probe is pure Python and does tuple sorting
plus set and dict churn, like the library's inner loops, and it never calls
the library. An op's time, minus the probe time that fell inside it, is then
scaled by ``REFERENCE_S / probe time``. The probe time is the median over the
op's own samples, or over the latest ``WINDOW`` samples (half a second) when
the op was too short to get that many. The median keeps one descheduled
probe from rescaling a whole op, and the probe runs with the garbage
collector off so that it never pays for collecting the library's objects. A change to the library moves the op times and not the probe, so
it shows in full in the scaled times. A slower machine moves both, and that
cancels. The raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL = 0.02
# an op with fewer samples inside it borrows the latest ones up to this many
WINDOW = 25
# median probe time on the machine the benchmark was written on
REFERENCE_S = 0.0003


def probe() -> int:
    seen = set()
    counts = {}
    for i in range(300):
        t = tuple(sorted(((i * 7) % 11, (i * 5) % 13, i % 17)))
        seen.add(t)
        counts[t] = counts.get(t, 0) + 1
    return len(seen) + len(counts)


class SpeedProbe:
    """Samples the probe on a timer and scales op times by its speed."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each probe
        self._previous_handler = None

    def _tick(self, signum, frame) -> None:
        # a collection triggered here would bill the library's heap to the probe
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((start, end))

    def start(self) -> None:
        self._tick(None, None)
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def mark(self) -> int:
        return len(self.samples)

    def scaled(self, mark: int, start: float, end: float) -> float:
        """Reference-speed seconds of the interval [start, end], begun at ``mark``."""
        inside = [(a, b) for a, b in self.samples[mark:] if start <= a and b <= end]
        spent = sum(b - a for a, b in inside)
        basis = inside if len(inside) >= WINDOW else (self.samples[max(0, mark - WINDOW) : mark] + inside)[-WINDOW:]
        return (end - start - spent) * REFERENCE_S / statistics.median(b - a for a, b in basis)

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.25 means 25% slower."""
        return statistics.median(b - a for a, b in self.samples) / REFERENCE_S
