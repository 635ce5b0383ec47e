"""Host speed reference: a fixed pure-Python loop, timed between ops.

The benchmark shares a few cores of a host whose speed changes by up to a
factor of 1.8 within seconds, and for the whole host at once: interpreter
work of every kind slows together.  A time measured here is therefore
reported scaled to a host that runs this loop in ``NOMINAL_S``::

    scaled = measured * NOMINAL_S / (time this loop took around the measurement)

In eight 40 s runs per workload (seeds 3 to 10) on a 2-vCPU Xeon VM, the
quartiles of the median pass time lay this far apart, as a share of the
median, measured as wall time and scaled: enum 0.152 and 0.031, schur
0.160 and 0.043, pfaffian 0.262 and 0.047.

The loop is the benchmark's own code and must not change between the two
commits a comparison measures.  It allocates no container the cyclic
garbage collector counts, except the one table per sample, so it does not
move the collections of the program it runs beside.  Samples are taken
between ops, when the program has nothing running; a program that left
work running between ops would slow the samples and so read faster.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.010  # about the loop's time on the host above, when it runs at full speed
ITERATIONS = 60_000


def sample() -> float:
    """Seconds the reference loop takes now."""
    table = dict.fromkeys(range(256), 0)
    h = 0
    start = time.perf_counter()
    for i in range(ITERATIONS):
        h = (h * 31 + i) % 1000003
        table[h & 255] = h
    return time.perf_counter() - start


def scale(measured_s: float, before_s: float, after_s: float) -> float:
    """``measured_s`` at nominal host speed, given the loop samples taken
    just before and just after the measurement."""
    return measured_s * NOMINAL_S * 2.0 / (before_s + after_s)
