"""Summary statistics for the benchmark's samples.

Timings are reported as a median and a tail percentile.  The tail is the
highest percentile of a fixed ladder that still has at least ten samples
beyond it, so a run never reports a percentile that one or two samples set.
"""

import math

TAIL_LADDER = (50, 90, 99)
MIN_BEYOND = 10


def tail_percentile(n, ladder=TAIL_LADDER):
    """Highest percentile of `ladder` with at least MIN_BEYOND of `n`
    samples beyond it, or None when not even the lowest qualifies."""
    best = None
    for p in ladder:
        if n * (100 - p) >= 100 * MIN_BEYOND:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def median(values):
    return percentile(values, 50)


def fail_ratio(failed, attempted):
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted
