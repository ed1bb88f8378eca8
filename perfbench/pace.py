"""Host pace: times scaled to a fixed reference speed.

On a host whose cores are shared with other tenants, a process runs at full
speed or at down to about half of it, in stretches of milliseconds to
minutes, and the share of slow stretches drifts over minutes: two runs of
the same code a few minutes apart can differ by half, and medians over a run
move with the drift.  A Pace measures the drift with a fixed reference loop
that uses nothing of the program: a wall-clock timer signal runs the loop
every INTERVAL_S and keeps the instant and duration of each run.  An op's
time multiplied by REFERENCE_S over the loop's mean duration around the op
is its time at the reference pace: the time it would take where the loop
takes REFERENCE_S.  The loop's slowdown follows the program's closely
(within a few per cent over ten-second windows, where raw times moved by
a tenth), so the scaled times keep the program's own speed and shed most of
the host's.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.01
WINDOW_S = 0.2        # an op's pace: the loop's runs this close to the op
# The loop's duration at full speed where the benchmark was defined
# (x86-64, 2 vCPUs, Python 3.11.7).  It only sets the scale of the figures.
REFERENCE_S = 60e-6


def reference_loop() -> int:
    """A fixed mix of the interpreter's dict, tuple and integer work."""
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(400):
        table[i & 63] = (i, acc)
        got = table.get((i * 7) & 63)
        acc += got[0] if got is not None else 1
    return acc


class Pace:
    """Runs of the reference loop, taken on a wall-clock timer signal.

    Start it in the process that measures (an interval timer does not pass
    to a child process) and stop it before the process reports.
    """

    def __init__(self):
        self.at: list[float] = []     # perf_counter instants of the runs
        self.took: list[float] = []   # and their durations
        self._sums: list[float] = [0.0]   # prefix sums of `took`

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sum(self, i: int, j: int) -> float:
        """took[i] + ... + took[j - 1]."""
        sums = self._sums
        for t in self.took[len(sums) - 1:]:
            sums.append(sums[-1] + t)
        return sums[j] - sums[i]

    def inside(self, t0: float, t1: float) -> float:
        """Time the loop ran between t0 and t1, to take off a time measured
        over that interval."""
        return self._sum(bisect.bisect_left(self.at, t0),
                         bisect.bisect_left(self.at, t1))

    def _mean_took(self, t0: float, t1: float) -> float:
        if not self.at:
            raise RuntimeError("no run of the reference loop to pace by")
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_right(self.at, t1)
        if i >= j:   # no run in the interval: the nearest one
            i = max(0, min(i, len(self.at) - 1))
            j = i + 1
        return self._sum(i, j) / (j - i)

    def scale(self, t0: float, t1: float) -> float:
        """The factor that takes a time measured from t0 to t1 to the
        reference pace: from the loop's runs from WINDOW_S before t0 to
        WINDOW_S after t1 (one run alone times the loop only to within a
        third or so)."""
        return REFERENCE_S / self._mean_took(t0 - WINDOW_S, t1 + WINDOW_S)

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than the reference pace the loop ran from t0
        to t1, on average."""
        return self._mean_took(t0, t1) / REFERENCE_S
