"""The machine's speed during a run, from a fixed pure-Python kernel.

On a shared machine one core's speed changes by as much as 1.6x over tens
of seconds, and a run of half a minute can fall wholly in a slow or a fast
spell.  A run therefore times this kernel every SAMPLE_EVERY_S seconds
between its items and set-ups.  The kernel does the kinds of work k3lat
does (permutation composition on bytes into a set, lookups in a large
dict) and never changes, so the median of its samples over a run says how
fast the machine ran while the run's own samples were taken.  Times are
reported scaled by REFERENCE_S / that median: seconds at the speed the
kernel has on the reference machine (2 vCPUs, Python 3.11.7).  A
call of a second or more is scaled by the speed in the seconds around it
instead, as it can fall in a spell of its own.
"""

from __future__ import annotations

import statistics
from time import perf_counter

SAMPLE_EVERY_S = 1.0
LOCAL_SAMPLES = 3  # on each side of a long call
REFERENCE_S = 0.040  # about the kernel's median time on the reference machine
_CHECK = (2000, 149985000)


def _shuffled(n: int, state: int) -> bytes:
    """A permutation of range(n) from a fixed linear congruential stream."""
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        j = (state >> 33) % (i + 1)
        out[i], out[j] = out[j], out[i]
    return bytes(out)


# two permutations of the 240 roots of E8, as closure_perms composes them
_GENS = (_shuffled(240, 1), _shuffled(240, 2))


def kernel() -> tuple:
    """About 40 ms of closure-style permutation products into a set and of
    lookups in a dict too big for the fastest caches, as in k3lat's
    root-system and lattice code."""
    p = bytes(range(240))
    seen = set()
    for i in range(2000):
        g = _GENS[i % 3 == 0]
        p = bytes(g[x] for x in p)
        seen.add(p)
    d = {}
    for i in range(30000):
        d[i * 2654435761 % 1000003] = i
    total = 0
    for i in range(0, 30000, 3):
        total += d.get(i * 2654435761 % 1000003, 0)
    return len(seen), total


class Speed:
    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def sample(self) -> None:
        t0 = perf_counter()
        result = kernel()
        t1 = perf_counter()
        if result != _CHECK:
            raise RuntimeError(f"speed kernel returned {result}, expected {_CHECK}")
        self.samples.append(t1 - t0)
        self.last = t1

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Multiply a time measured in this run by this to get reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)

    def local_factor(self) -> float:
        """The factor for one long call that has just ended, from the speed
        around it: LOCAL_SAMPLES samples from before it and as many taken now."""
        before = self.samples[-LOCAL_SAMPLES:]
        for _ in range(LOCAL_SAMPLES):
            self.sample()
        return REFERENCE_S / statistics.median(before + self.samples[-LOCAL_SAMPLES:])
