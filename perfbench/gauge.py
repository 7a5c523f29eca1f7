"""Machine-speed gauge: a fixed reference kernel timed beside the workload.

On a shared host (measured on 2 cores of an x86-64 one) the speed of
the same Python code swings by up to 75% over windows of ten seconds to
minutes, as other tenants contend for the cores' caches and memory; CPU
time tracks wall time, so no clock separates the program's cost from
the machine's state.  The
gauge times a reference kernel that uses no code of the package, right
before and after the timed operations, and every timing the benchmark
reports is scaled by ``REFERENCE_SECONDS / kernel time``: it reads as the
time the operation would take on a machine where the kernel takes
``REFERENCE_SECONDS``.  A faster program lowers the scaled time by the
same share as the wall time; a slower machine moment does not move it.

The kernel mixes, in about equal shares of its time, the two kinds of
work the package does: small
dictionary-polynomial products (allocation, hashing, small integers) and
lookups scattered over a dictionary of about 30 MB (cache and memory
traffic, which is what neighbours on the host contend for).  Its data
hold no containers the garbage collector tracks, so they do not slow
the collections that run inside the workload.
"""

from __future__ import annotations

import time

# about the kernel's time, in seconds, on 2 cores of a shared x86-64
# host with Python 3.11; the scale of every reported timing, not a
# measured figure
REFERENCE_SECONDS = 0.04
# short operations reuse the last reading while it is younger than this;
# an operation at least this long is read before and after
SEGMENT_SECONDS = 0.5

_TABLE_SIZE = 1 << 18           # entries of the scattered-lookup table
_LOOKUPS = 30_000
_STRIDE = 40_503                # odd: the lookups hit distinct slots
_POLY_A = {e: (7 * e + 3) % 11 - 5 for e in range(-20, 20)}
_POLY_B = {e: (5 * e + 1) % 13 - 6 for e in range(-15, 25)}
_PRODUCTS = 80


class Gauge:
    """Reads the machine's speed with the reference kernel."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # int keys and values only: the dict is not tracked by the GC
        self.table = {(i * 2_654_435_761) % (1 << 40): i for i in range(_TABLE_SIZE)}
        self.keys = tuple(self.table)
        self.readings = []      # kernel seconds, in order
        self.read_at = None     # clock when the last reading ended

    def kernel(self):
        table, keys, mask = self.table, self.keys, _TABLE_SIZE - 1
        total = 0
        for i in range(_LOOKUPS):
            total += table[keys[(i * _STRIDE) & mask]]
        for _ in range(_PRODUCTS):
            out = {}
            for e1, c1 in _POLY_A.items():
                for e2, c2 in _POLY_B.items():
                    e = e1 + e2
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            total += len(out)
        return total

    def read(self):
        """Time one pass of the kernel and keep the reading."""
        start = self.clock()
        self.kernel()
        self.read_at = self.clock()
        self.readings.append(self.read_at - start)
        return self.readings[-1]

    def fresh(self):
        """The last reading, taken anew if it is older than a segment."""
        if self.read_at is None or self.clock() - self.read_at >= SEGMENT_SECONDS:
            return self.read()
        return self.readings[-1]

    @staticmethod
    def scale(seconds, before, after=None):
        """Wall seconds -> seconds at the reference speed, from the kernel
        readings taken just before the operation and, for a long one,
        just after it."""
        kernel = before if after is None else (before + after) / 2
        return seconds * REFERENCE_SECONDS / kernel
