"""Host pace: how fast this machine runs a fixed piece of pure Python
right now, measured in the benchmark's own process.

On a shared host the speed of a pass drifts with the load of other
tenants, by 10-35 % within seconds to minutes, and raw wall times of
one seed spread more than any regression bound worth having.  So while
a pass runs, ``Pacer`` interrupts it every ``INTERVAL`` seconds (an
interval timer and a signal handler on the main thread; no threads, no
other process) and times ``probe()``, a fixed mix of the work charval
does: tuple permutation composition, dict lookups, ``Fraction`` and
integer arithmetic.  ``probe`` imports nothing from charval, so a change
to the library cannot change its pace.

A measured interval of T seconds, with probes taking p_1 .. p_n seconds
while it ran, is reported as T * mean(REFERENCE_PROBE_S / p_i) in
reference seconds: the time the interval would have taken on a host
that runs the probe in REFERENCE_PROBE_S.  Probes sample the interval
evenly in time, and a slice of the interval at pace p does
REFERENCE_PROBE_S / p reference seconds of work, so a speed change of
the host cancels while a speed change of the program does not.  Probe
time is taken out of T first.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL = 0.1              # seconds between probes inside a window
REFERENCE_PROBE_S = 0.005   # the probe's time on the reference host
_P = tuple((i * 7 + 3) % 64 for i in range(64))
_Q = tuple((i * 5 + 1) % 64 for i in range(64))


def probe() -> int:
    p, q = _P, _Q
    seen: dict[tuple, int] = {}
    acc = Fraction(0)
    for k in range(250):
        r = tuple(p[x] for x in q)
        seen[r] = seen.get(r, 0) + k
        p, q = q, r
        acc += Fraction(k % 7 + 1, k % 5 + 2)
        acc *= Fraction(3, 4)
    s = 0
    for i in range(12000):
        s = (s * 31 + i) % 1000003
    return s + len(seen) + acc.denominator % 7


def timed_probes(n: int) -> list[float]:
    out = []
    for _ in range(n):
        t = time.perf_counter()
        probe()
        out.append(time.perf_counter() - t)
    return out


def reference_seconds(raw_s: float, probes: list[float]) -> float:
    """raw_s measured seconds at the pace the probes saw, in reference
    seconds."""
    return raw_s * sum(REFERENCE_PROBE_S / p for p in probes) / len(probes)


class Pacer:
    """Probe the pace every INTERVAL seconds between start() and stop().

    ``probes`` holds (start, seconds) of every probe; ``spent(a, b)`` is
    the probe time inside the perf_counter interval [a, b], which the
    caller takes out of what it measured there.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._old = None

    def _fire(self, signum, frame):
        t = time.perf_counter()
        probe()
        self.probes.append((t, time.perf_counter() - t))

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def spent(self, a: float, b: float) -> float:
        return sum(d for t, d in self.probes if a <= t < b)

    def durations(self) -> list[float]:
        return [d for _, d in self.probes]
