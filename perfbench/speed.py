"""The machine's speed, sampled while a verdict runs, to rescale its time.

On a shared vCPU the same work can take up to twice as long from one
window of seconds to the next, and a slow phase can outlast a whole run.
:class:`SpeedSampler` times a small fixed calibration kernel from a
``SIGALRM`` handler every few milliseconds.  A verdict's wall time, less the
time spent in the handler, times the mean of ``reference_s / kernel_s`` over
the samples taken while it ran is its time at the reference speed: the speed
at which the kernel takes ``reference_s``.  The kernel is the same kind of
work as the workload (pure-Python table edits, or those plus small numpy
arrays), because kinds of work slow down by different factors when the
machine is contended.

The handler runs the kernel twice and times the second run only.  A first
run timed straight after a large numpy call of the program finds its caches
evicted and reads about half the speed, which would count the program's
memory traffic as a slower machine.  The handler runs between bytecodes of
the main thread, never inside a numpy call, and the kernel touches nothing
of the program under test.
"""

from __future__ import annotations

import functools
import signal
import time
from bisect import bisect_left, bisect_right

#: Seconds between speed samples.
INTERVAL_S = 0.005


def python_kernel() -> int:
    """Forty table edits and small dicts, like permlift's table layer."""
    table = [3, 1, 4, 0, 2]
    total = 0
    for i in range(40):
        edited = list(table)
        edited[edited.index(i % 5)] = table[(i * 3) % 5]
        edited[(i * 3) % 5] = i % 5
        seen = {j: (j, i) for j in range(5)}
        total += len(seen) + edited[0]
    return total


@functools.cache
def _gather_inputs():
    import numpy as np  # imported here so that set-up probes time numpy's import

    return np, (np.arange(16) + 1j).reshape(4, 4), np.array([2, 0, 3, 1]), np.indices((4, 4))


def mixed_kernel() -> float:
    """python_kernel plus four XOR-oracle gathers on a 16-amplitude state."""
    np, amps, table, index = _gather_inputs()
    total = 0.0
    for _ in range(4):
        src = index.copy()
        src[1] = index[1] ^ table[index[0]]
        total += float(np.abs(amps[tuple(src)]).sum())
    return total + python_kernel()


#: kernel name -> (kernel, its time at the reference speed in seconds).
#: The reference times are the fastest seen on a 2-vCPU Xeon VM with
#: CPython 3.11.7 and numpy 2.4.6; they fix the unit, not the comparison.
KERNELS = {
    "python": (python_kernel, 45e-6),
    "mixed": (mixed_kernel, 69e-6),
}


class SpeedSampler:
    """Times the kernel every INTERVAL_S while started."""

    def __init__(self, kernel: str):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.at: list[float] = []
        self.speed: list[float] = []
        self.busy: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.at.append(t0)
        self.speed.append(self.reference_s / (t2 - t1))
        self.busy.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_time(self, start: float, end: float) -> float:
        """Wall time from start to end, less the sampler's own time in it,
        rescaled to the reference speed.

        Uses the samples taken in [start, end]; an interval too short to hold
        one uses the last sample before it, or else the first after it.
        start and end are read outside the handler, so each sample lies
        wholly inside the interval or wholly outside it.
        """
        if not self.speed:
            raise RuntimeError("no speed sample was taken")
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        own = sum(self.busy[lo:hi])
        if hi == lo:
            lo, hi = (lo - 1, lo) if lo > 0 else (lo, lo + 1)
        speeds = self.speed[lo:hi]
        return (end - start - own) * sum(speeds) / len(speeds)
