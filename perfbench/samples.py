"""Percentiles under the benchmark's sample rule, and item times rescaled
by the reference kernel timed beside them."""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it, so one preempted or unlucky item cannot be the reported tail.
MIN_BEYOND = 10


def supported(n, q):
    """Whether a nearest-rank q-percentile of n samples has MIN_BEYOND
    samples beyond it."""
    return n > 0 and n - math.ceil(q * n) >= MIN_BEYOND


def percentile(values, q):
    """Nearest-rank q-percentile (0 < q < 1) of values, or None when the
    sample cannot support it."""
    n = len(values)
    if not 0.0 < q < 1.0 or not supported(n, q):
        return None
    return sorted(values)[math.ceil(q * n) - 1]


# Item times are given in seconds of a host on which the driver's reference
# kernel (one sort of 4096 seeded doubles) takes this long.
REFERENCE_S = 250e-6
# Item i is rescaled by the median reference time of items i-4 .. i+4.
REFERENCE_HALF_WINDOW = 4


def host_scaled(item_s, reference_s, half_window=REFERENCE_HALF_WINDOW):
    """Each item's CPU seconds times REFERENCE_S over the median reference
    time of items i-half_window .. i+half_window.  A shared host runs the
    same code up to ~2x slower for minutes at a time (SMT siblings, clock
    speed); the reference kernel, which uses no gridcast code, slows with
    it, so the ratio keeps what the program does and drops most of what the
    host does."""
    if len(item_s) != len(reference_s):
        raise ValueError("one reference time per item")
    h = half_window
    return [t * REFERENCE_S / statistics.median(reference_s[max(0, i - h):i + h + 1])
            for i, t in enumerate(item_s)]
