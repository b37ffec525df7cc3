"""A fixed workload that measures how fast the host runs right now.

The host this benchmark was built on changes speed by up to 2x within a
run: in slow phases, lasting from a fraction of a second to tens of
seconds, the same work takes 1.3-2x as long, and CPU time tracks wall
time.  ``sample_ns`` times a small mix of the operations coverlib's
layers spend their time on (integer arithmetic, ``Fraction`` arithmetic,
tuple, set and dict work), using only the standard library, so the
program under test never changes it.  ``run.py`` takes a sample before
and after the instances it times and scales each instance's time to a
host on which one sample takes ``REFERENCE_NS``.
"""

from __future__ import annotations

import time
from fractions import Fraction

# One sample's time on the 2-core Intel Xeon VM the baseline comes from,
# in its fast phase (Python 3.11.7).
REFERENCE_NS = 600_000


def kernel() -> int:
    total = 0
    for i in range(700):
        total += i * i % 7
    x = Fraction(0)
    for i in range(1, 30):
        x += Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, i % 5 + 1)
    seen = set()
    counts: dict = {}
    for i in range(200):
        t = (i % 7, i % 11, i % 13, i * 7 % 17)
        seen.add(t)
        counts[t] = counts.get(t, 0) + 1
        u = tuple(a + b for a, b in zip(t, (1, 0, 1, 0)))
        total += all(a >= b for a, b in zip(u, t))
    return total + len(seen) + x.numerator % 7


def sample_ns() -> int:
    """Wall time of one run of the kernel, in nanoseconds."""
    started = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - started
