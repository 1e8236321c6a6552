"""The machine's speed, sampled while a timed block runs.

On a shared machine the speed of a core swings by a quarter or more over
seconds and minutes, as neighbours come and go; process CPU time swings with
it, so it is no steadier than wall time. ``SpeedProbe`` times a block and,
every ``INTERVAL_S`` of wall time while the block runs, times a fixed probe
(a pure-Python loop and a small numpy chain, the two kinds of work vsrlab
does) in a SIGALRM handler. The block's wall time divided by the mean
slowdown the probes saw is its adjusted time: what the block would have
taken at the reference speed. The probe is the benchmark's own code, so a
change to the program moves the adjusted time exactly as it moves the wall
time.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# The probe's time on an uncontended core of a 2-core Xeon VM (its 5th
# percentile over three minutes of grid runs); adjusted times read as
# seconds on that core.
REFERENCE_S = 0.0009
PY_ITERATIONS = 10_000
NP_STEPS = 20
_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def probe():
    """Seconds one fixed piece of Python and numpy work takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(PY_ITERATIONS):
        total += i * i
    x = _MATRIX
    for _ in range(NP_STEPS):
        x = np.tanh(x @ _MATRIX * 0.01)
    return time.perf_counter() - start


class SpeedProbe:
    """Times its block, and probes the machine's speed during it.

    After the block: ``wall_s`` is the block's wall time less the time the
    probes took inside it, ``slowdown`` the mean probe time over
    ``REFERENCE_S`` (a harmonic mean, so that it is the reference speed over
    the mean speed), and ``adjusted_s`` their quotient. One probe runs just
    before and one just after the block, so a short block is probed too.
    Uses SIGALRM and the real-time interval timer; the previous handler is
    put back on exit.
    """

    def __enter__(self):
        self.samples = [probe()]
        self._ticks_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._start - self._ticks_s
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        self.slowdown = statistics.harmonic_mean(self.samples) / REFERENCE_S
        self.adjusted_s = self.wall_s / self.slowdown
        return False

    def _tick(self, signum, frame):
        seconds = probe()
        self.samples.append(seconds)
        self._ticks_s += seconds
