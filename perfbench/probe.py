"""Host-speed probe: a fixed piece of reference work, sampled on a timer.

The benchmark shares a few cores of a host with other tenants, and the host's
speed moves with their load. On the 2-vCPU virtual machine the benchmark was
written on, the speed switched between two levels about 1.7 times apart, many
times a second, for Python and small ``numpy`` kernels alike, with no steal
time reported; the share of time spent at the slow level drifted over
minutes, so one 40-second run could be 30% slower than the next on the same
code.

``Sampler`` takes a sample of the reference work every ``INTERVAL_S`` of wall
time and records when each ran and how long it took. A ``SIGALRM`` timer
marks a sample due; the caller takes it between operations, so that short
operations are never interrupted, and the timer's handler takes it itself
once a sample has been due for a whole interval, inside a long operation.
The work is a fixed mix of small ``numpy`` kernels, arithmetic and
short-lived Python objects, never ``nle``, so no change to the program can
change what it costs. ``worker.py`` takes the samples' time out of each
operation's time and scales the rest by ``NOMINAL_S`` over the mean sample
time around it: the reported times are seconds at the host speed at which
one sample takes ``NOMINAL_S``. The raw times are reported next to them.

The kernels are bound at import, before tracing wraps ``numpy.linalg``, so a
sample never records a span; the spans of long operations do include the
samples taken inside them (about 3% of their time).
"""

from __future__ import annotations

import bisect
import signal
import time
from dataclasses import dataclass

import numpy as np

# a sample's time at the reference host speed: near the median sample time on
# the 2-vCPU x86-64 virtual machine the benchmark was written on
NOMINAL_S = 1.5e-3
INTERVAL_S = 0.05
WINDOW_S = 0.5  # samples this far before and after an interval set its speed

_svd, _eigh, _eigvalsh = np.linalg.svd, np.linalg.eigh, np.linalg.eigvalsh
_rng = np.random.default_rng(20200909)
_MATS = [_rng.normal(size=(n, n)) + 1j * _rng.normal(size=(n, n)) for n in (2, 3, 4, 6, 9)]
_HERM = [m + m.conj().T for m in _MATS]


@dataclass(frozen=True)
class _Record:
    weight: float
    pair: tuple


def _work() -> float:
    """Small kernels, arithmetic, and short-lived Python objects, as the program
    has them; the mix was chosen so that the work slows down as much as the
    benchmark's operations when the host does."""
    acc = 0.0
    for m, h in zip(_MATS * 3, _HERM * 3):
        acc += float(_svd(m, compute_uv=False)[0])
        acc += float(_eigvalsh(h)[0])
        acc += float(_eigh(h)[0][-1])
        acc += float(np.einsum("ij,ji->", m, h).real)
    table = {}
    for i in range(1200):
        table[i % 17] = table.get(i % 17, 0.0) + i * 0.5
    for i in range(300):
        r = _Record(i * 0.5, (i, i + 1))
        d = {"w": r.weight, "p": r.pair}
        acc += d["w"] + len(d["p"]) + sum(r.pair) / (1 + i % 5)
    return acc + sum(table.values())


class Sampler:
    """Samples of the reference work: start times and durations, in order."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.due = 0  # timer ticks since the last sample
        self._busy = False

    def _tick(self, *_signal_args) -> None:
        self.due += 1
        if self.due > 1:
            self.sample()

    def between(self) -> None:
        """Take a due sample; call it between operations."""
        if self.due:
            self.sample()

    def sample(self) -> None:
        if self._busy:  # a timer signal that arrives during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.due = 0
        self._busy = False

    def burst(self, count: int) -> None:
        """Samples back to back, where the timer would give too few."""
        for _ in range(count):
            self.sample()

    def start(self) -> None:
        self.due = 0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of sampling inside the interval [t0, t1]."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(min(e, t1) - max(s, t0)
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scale(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the mean time of the samples near [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi <= lo:
            raise RuntimeError("no host-speed sample near an interval")
        spent = sum(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return NOMINAL_S * (hi - lo) / spent

    def median_ms(self) -> float:
        times = sorted(e - s for s, e in zip(self.starts, self.ends))
        return times[len(times) // 2] * 1e3
