"""Job times scaled to a reference speed of the machine.

The benchmark runs on shared virtual machines whose CPU speed drifts by
up to a third, in phases from under a second to minutes long, on both
wall-clock and CPU time.  Raw times of the same code then differ more
between runs than any bound a regression check could use.

Every time metric is therefore scaled: the runner times a fixed
reference loop (``probe``) right before and right after each timed
interval, and, in an untraced library pass, every ``SAMPLE_EVERY_S``
of CPU time within it (``Sampler``), and reports

    scaled = (elapsed - time spent in samples) * REFERENCE_S
             / mean(all probes of the interval)

that is, the interval as it would read on a machine where the loop
takes ``REFERENCE_S``.  The loop is standard-library ``Fraction``
arithmetic, the same kind of work as voasurf's exact series, and it
does not touch the program, so any change to the program's own cost
shows in full in the scaled times.  The raw times are printed beside
them on ``#`` lines.
"""

import signal
import time
from fractions import Fraction

# The time of one reference loop at nominal speed (a typical reading with
# Python 3.11 on a 2.1 GHz Xeon vCPU).  Only a unit: it scales every time
# metric by the same factor.
REFERENCE_S = 0.0035
# CPU time between two probes inside a job.
SAMPLE_EVERY_S = 0.1


def _reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 800):
        total += Fraction(i % 7 + 1, i)
    return total


def probe() -> float:
    """Seconds one reference loop takes now."""
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


def scaled(elapsed: float, *probes: float) -> float:
    """``elapsed`` at the reference speed, given probes taken around it."""
    return elapsed * REFERENCE_S * len(probes) / sum(probes)


class Sampler:
    """Probes the speed every SAMPLE_EVERY_S of the process's CPU time
    while a job runs (``SIGPROF``; ``SIGALRM`` stays free for the job's
    time budget), and adds up the time the probes took."""

    def __init__(self):
        self.probes = []
        self.spent_s = 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent_s += time.perf_counter() - start

    def start(self) -> None:
        self.probes, self.spent_s = [], 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
