"""Machine-speed sampling, so that timings can be scaled to a fixed speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to ~1.9x over seconds to minutes, as neighbours come and go.  The
drift shows in any fixed piece of work.  ``Speedometer`` runs such a
piece, ``kernel``, from a SIGALRM handler every ``interval`` seconds while
it is active, and records how long each pass took.  A timing is then
scaled by ``REFERENCE_S`` times the mean kernel speed (1 / kernel time)
over the samples that fell inside it: the result is the time the same
work would have taken on a machine that runs the kernel in
``REFERENCE_S`` throughout.

The kernel touches nothing of posinv, and the time spent in the handler
is taken out of every interval the benchmark measures (``now`` is a clock
that stops while the handler runs).  So sampling changes neither posinv's
outputs nor its measured work, only the scale.  The kernel is made of the
numpy calls posinv's per-row attention loop makes: small elementwise
transcendentals and reductions, RoPE-style rotation of a few hundred rows,
a lexsort and a gather.  Its speed follows posinv's closely; a pure
interpreter loop follows it less well.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S = 0.004  # nominal kernel time: the scale of every scaled timing
MIN_SAMPLES = 10  # a factor averages at least this many samples (1 s)
clock = time.perf_counter

_X = np.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32)
_POS = np.arange(512)
_FREQ = 1.0 / 10000.0 ** (np.arange(16) / 16)
_K = np.linspace(-1.0, 1.0, 512 * 32).reshape(512, 32)
_KEY = _POS * 7919 % 512


def kernel() -> None:
    """A fixed piece of numpy work of the kind posinv does (~4 ms)."""
    for _ in range(60):
        y = np.exp(_X * 0.5)
        y.sum(axis=1)
        _X.T @ y
    for _ in range(6):
        angles = np.outer(_POS, _FREQ)
        cos, sin = np.cos(angles), np.sin(angles)
        _K[:, 0::2] * cos - _K[:, 1::2] * sin
        _K[np.lexsort((_POS, _KEY))]


class Clock:
    """Plain wall clock with the Speedometer interface: factor 1."""

    def now(self) -> float:
        return clock()

    def mark(self) -> int:
        return 0

    def factor(self, start: int, end: int) -> float:
        return 1.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class Speedometer(Clock):
    """Samples the kernel's time while active (``with Speedometer() as s:``).

    ``now()`` is the wall clock minus the time spent in the handler.
    ``mark()`` is a position in the sample list; ``factor(start, end)``
    scales an interval that began at mark ``start`` and ended at mark
    ``end``.  It averages the speed over the samples that fell inside, or
    over the ``MIN_SAMPLES`` centred on a shorter interval, so it is best
    called once the run is over and samples after the interval exist.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def now(self) -> float:
        return clock() - self.stolen

    def sample(self) -> None:
        t0 = clock()
        kernel()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.stolen += clock() - t0

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int, end: int) -> float:
        if end - start < MIN_SAMPLES:
            # Widen a short interval to MIN_SAMPLES samples centred on it.
            start = max(0, min(len(self.samples) - MIN_SAMPLES, (start + end - MIN_SAMPLES) // 2))
            end = start + MIN_SAMPLES
        window = self.samples[start:end]
        return REFERENCE_S * sum(1.0 / t for t in window) / len(window)
