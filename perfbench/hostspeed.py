"""Host-speed adjustment of the benchmark's timings.

The benchmark's host is shared: a fixed loop timed back to back on one of
its cores runs at one speed when the host is quiet and up to about twice as
slowly while it is busy, in phases that last from a fraction of a second to
minutes.  A run measures whatever phase it falls in, so raw times of the
same code differ between runs by far more than any change worth detecting.

``Speedometer`` measures the host's speed while the workload runs.  A
SIGALRM interval timer interrupts the workload every ``interval`` seconds,
and the handler times a fixed probe: a pure-Python dictionary loop and a few
small numpy operations, about 3.5 parts interpreter to one part numpy in
time, the mix that tracked the strel pipeline's own slowdown best.  From
``probe_seconds(t0, t1)`` and ``slowdown(t0, t1)`` the benchmark's clock
gives the length of an interval with the probes taken out, scaled to the
speed at which the probe takes ``REFERENCE_PROBE_S``:

    adjusted = (t1 - t0 - probe time inside) * REFERENCE_PROBE_S / mean probe time

where the mean runs over the probes inside the interval and the nearest
probe on either side.  An adjusted time reads as seconds on the reference
host while it is quiet; the raw times are kept next to them in the record.
The probe is fixed code of the benchmark, so a change to strel moves the
adjusted time exactly as it moves the work done.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# the probe's time on a quiet core of the 2-vCPU VM the benchmark was built
# on (Intel Xeon, Python 3.11, numpy 2.4): about its fastest there
REFERENCE_PROBE_S = 0.0026
INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
_X = _rng.random((500, 32))
_W = _rng.random((32, 51))


def probe() -> None:
    """Fixed work whose duration measures the host's current speed."""
    counts: dict[int, int] = {}
    for i in range(22000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(3):
        z = _X @ _W
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
        np.argsort(z[:, 0])


def timed_probe() -> tuple[float, float]:
    t0 = time.perf_counter()
    probe()
    return t0, time.perf_counter()


class Speedometer:
    """Probes the host while it runs; adjusts intervals measured meanwhile."""

    def __init__(self, interval: float = INTERVAL_S,
                 reference: float = REFERENCE_PROBE_S) -> None:
        self.interval, self.reference = interval, reference
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _record(self) -> None:
        t0, t1 = timed_probe()
        self.starts.append(t0)
        self.ends.append(t1)

    def _on_alarm(self, signum, frame) -> None:
        self._record()

    def __enter__(self) -> "Speedometer":
        self._record()  # every interval measured has a probe on either side
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._record()

    @property
    def probes(self) -> int:
        return len(self.starts)

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Probe time spent inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, max(lo, hi)))

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe time over [t0, t1] and its nearest probe on either
        side, over the reference probe time."""
        lo = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        hi = min(bisect.bisect_left(self.starts, t1) + 1, len(self.starts))
        durations = [self.ends[i] - self.starts[i] for i in range(lo, max(lo + 1, hi))]
        return sum(durations) / len(durations) / self.reference


class Stopwatch:
    """Raw intervals, for runs that do not adjust (traced runs)."""

    def __enter__(self) -> "Stopwatch":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def probe_seconds(self, t0: float, t1: float) -> float:
        return 0.0

    def slowdown(self, t0: float, t1: float) -> float:
        return 1.0
