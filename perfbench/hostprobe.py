"""The host's current speed, from a fixed piece of pure-Python work.

The 2-vCPU VM this benchmark was tuned on switches between a fast state and
one about 1.5 times slower, for seconds to minutes at a time, with no steal
time reported; runs minutes apart differed by 30-50% on the same code and
inputs.  So every timed call is scaled by the probe: a fixed piece of work
that uses nothing of qe6, timed next to the call.  A scaled time is the
call's seconds times NOMINAL_S over the probe's time around the call:
seconds on a host where one probe takes NOMINAL_S (this VM takes about
0.35 ms in its fast state and 0.55-0.6 ms in its slow one).  A change to
the program does not move the probe.

The work is shaped like qe6's inner loops: products of sparse Laurent
polynomials held as {exponent: coefficient} dicts under tuple keys, and a
chain of products modulo 2^61 - 1, past 64 bits.
"""

import gc
import random
import statistics
import time

NOMINAL_S = 0.0005
SETUP_PROBES = 10       # probe samples taken before and after a cold set-up

_rng = random.Random(20261017)
_POLYS = [((_rng.randrange(32), _rng.randrange(32)),
           {_rng.randrange(-6, 7): _rng.randrange(1, 10) for _ in range(4)})
          for _ in range(10)]
_MOD = (1 << 61) - 1
_FACTORS = [_rng.randrange(2, _MOD) for _ in range(300)]


def work():
    acc = {}
    for a, pa in _POLYS:
        for b, pb in _POLYS:
            prod = acc.setdefault(a + b, {})
            for e1, c1 in pa.items():
                for e2, c2 in pb.items():
                    e = e1 + e2
                    c = prod.get(e, 0) + c1 * c2
                    if c:
                        prod[e] = c
                    else:
                        del prod[e]
    x = 1
    for f in _FACTORS:
        x = x * f % _MOD
    return acc, x


def time_once():
    """One probe's seconds, after one untimed run of it, so that what the
    program left in the caches does not time it.  The collector is off
    meanwhile: a collection that the probe's few allocations happened to
    trigger would time the program's heap, not the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        work()
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Host:
    """Probe samples of one run, by round.  Scales a call's seconds by the
    probe samples taken around it, or else by the mean probe time of its
    round.  The mean, not the median: the host switches state within a
    round, and the mean weighs each state by the share of the samples it
    held."""

    def __init__(self, clock=time_once):
        self.clock = clock
        self.by_round = {}

    def sample(self, round_no):
        t = self.clock()
        self.by_round.setdefault(round_no, []).append(t)
        return t

    def samples(self):
        return [t for ts in self.by_round.values() for t in ts]

    def scale(self, seconds, round_no, probe=None):
        """`seconds` as they would read on a host whose probe takes
        NOMINAL_S, by `probe` if given, else by the round's mean probe."""
        return seconds * NOMINAL_S / (probe or statistics.mean(self.by_round[round_no]))


def probe_mean(count=SETUP_PROBES):
    """The mean of `count` fresh probe samples."""
    return statistics.mean(time_once() for _ in range(count))
