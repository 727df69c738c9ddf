"""A fixed piece of work that tells how fast the machine runs right now.

On a shared host the same code runs at very different speeds from one
minute to the next: on the 2-core reference box a fixed loop ran at
between 1.0 and 2.1 times its fastest time, and stayed slow for minutes.
A time measured under such load says more about the neighbours than
about the program.  So worker.py samples the speed while the program
runs: a SIGALRM handler runs probe() every INTERVAL_S of wall time, in
the middle of whatever foldeg is doing.  Each operation's time, less the
probes that ran inside it, is divided by its slowdown: the mean time of
the probes around it over REF_S.  The probe is the benchmark's own code,
never foldeg's, so a change to foldeg cannot move it.  Its work is like
foldeg's: elimination over Fractions, as in the field basis, and
products of tuples of big ints, as in the t-polynomials of the limits.
"""

import gc
import signal
import time
from fractions import Fraction

# Fastest wall time of one probe() on the reference box (2 vCPUs,
# Python 3.11).  It only fixes the unit: calibrated times are seconds
# at the speed at which one probe takes REF_S.
REF_S = 0.00086
INTERVAL_S = 0.025
# Fewest probes behind one slowdown: an operation with fewer probes
# inside it borrows the ones nearest to it in time.
NEAREST = 20

_N = 8
_MATRIX = [[Fraction((7 * i + 13 * j) % 17 + 1, (i + 2 * j) % 5 + 1) for j in range(_N)]
           for i in range(_N)]
_POLY = tuple((31 ** k) * (k + 3) for k in range(12))


def _work():
    rows = [list(r) for r in _MATRIX]
    for c in range(_N):
        pivot = rows[c][c]
        for r in range(c + 1, _N):
            f = rows[r][c] / pivot
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    poly = _POLY
    for _ in range(6):
        out = [0] * (2 * len(poly) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(poly):
                out[i + j] += a * b
        poly = tuple(c % (1 << 256) for c in out[:len(_POLY)])
    return rows, poly


def probe():
    """Run the fixed work once; returns (start, wall, cpu) in seconds.
    The garbage collector is off meanwhile: a full collection started by
    the probe would scan foldeg's heap, and its time would then depend
    on the program."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        _work()
        return t0, time.perf_counter() - t0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


def slowdown(samples):
    """(wall, cpu): the mean probe time of the samples over REF_S."""
    return (sum(s[1] for s in samples) / len(samples) / REF_S,
            sum(s[2] for s in samples) / len(samples) / REF_S)


def measure(seconds):
    """Probes run back to back for `seconds`, and at least NEAREST."""
    samples = []
    while len(samples) < NEAREST or sum(s[1] for s in samples) < seconds:
        samples.append(probe())
    return samples


class Sampler:
    """Runs probe() from a SIGALRM handler every INTERVAL_S of wall time,
    from start() to stop().  The timer is re-armed when a probe ends, so
    probes never overlap."""

    def __init__(self):
        self.samples = []
        self.running = False

    def _tick(self, signum, frame):
        # A tick can still run after stop(): the signal may arrive just
        # before the timer is disarmed, and Python runs the handler later.
        # Re-arming then would kill the process once the default SIGALRM
        # action is back.
        if not self.running:
            return
        self.samples.append(probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if len(self.samples) < NEAREST:
            self.samples += measure(0.0)

    def calibrated(self, start, end, cpu):
        """An operation's (wall, cpu) seconds, timed from `start` to `end`
        and `cpu` long, less the probes inside it, over its slowdown."""
        inside = [s for s in self.samples if start <= s[0] < end]
        wall = end - start - sum(s[1] for s in inside)
        cpu -= sum(s[2] for s in inside)
        if len(inside) < NEAREST:
            middle = (start + end) / 2
            inside = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:NEAREST]
        slow_wall, slow_cpu = slowdown(inside)
        return wall / slow_wall, cpu / slow_cpu
