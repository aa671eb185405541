"""Host speed, measured by a fixed reference kernel run between items.

The benchmark runs on a few shared cores whose speed drifts by a third or
more over tens of seconds as other tenants load the machine: one and the
same item takes 350 ms in one minute and 700 ms in the next, in CPU time
as in wall time.  A run therefore also times a fixed piece of pure-stdlib
work, the reference kernel, every ``GAP_S`` seconds, and each item's
latency is scaled by ``REF_S`` over the reference times measured around
it.  The scaled latency reads as the item's wall time on a host where the
kernel takes ``REF_S`` seconds, so the host's drift cancels while a change
to connexa, which the kernel never calls, shows in full.  A change to the
interpreter's own ``Fraction`` or integer arithmetic moves the kernel too,
so compare such changes on the unscaled times ``run.py`` also prints.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# The kernel's median time on the recording machine when it was quiet
# (see baseline.json); only the scale of the reported times depends on it.
REF_S = 0.0065
# A probe follows the first item that ends this long after the last probe.
GAP_S = 0.25
# Reference times within this many seconds of an item scale its latency.
WINDOW_S = 1.0

_A = [Fraction(3 * i + 1, 2 * i + 5) ** 3 for i in range(40)]
_B = [Fraction(5 * i - 7, 4 * i + 3) ** 2 for i in range(40)]


def reference_kernel() -> Fraction:
    """A dense product of two rational polynomials, summed: the shape of
    the work in connexa's series products, but none of its code."""
    acc = [Fraction(0)] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            acc[i + j] += x * y
    return sum(acc)


class HostSpeed:
    """Reference probes along a run: (midpoint, seconds) in time order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.mids: list[float] = []
        self.times: list[float] = []
        self._last = float("-inf")

    def probe(self) -> float:
        t0 = self.clock()
        reference_kernel()
        t1 = self.clock()
        self.mids.append((t0 + t1) / 2)
        self.times.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def maybe_probe(self) -> None:
        """Probe when GAP_S seconds have passed since the last probe."""
        if self.clock() - self._last >= GAP_S:
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the median reference time around [t0, t1]: the
        probes within WINDOW_S of it, or else the nearest one each side."""
        lo = bisect.bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW_S)
        near = self.times[lo:hi]
        if not near:
            k = bisect.bisect_left(self.mids, t0)
            near = self.times[max(0, k - 1):k + 1]
        return REF_S / statistics.median(near)

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * self.factor(t0, t1)
