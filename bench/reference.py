"""A fixed reference computation that measures the speed of the machine.

The benchmark runs on shared machines whose speed drifts by tens of per cent
within minutes, and CPU time drifts with it.  ``reference_slice`` is a small,
fixed piece of pure-Python work of the kind ratsym does most -- products of
polynomials with rational coefficients, small and large -- that imports
nothing from ratsym, so no change to the program changes its cost.  The
worker runs slices between the items it times; the mean CPU time of a slice
around an item, divided by :data:`NOMINAL_SLICE_S`, is the slowness of the
machine at that item, and the item's times are divided by it.  A reported
time is therefore the CPU time the work would take at the speed at which one
slice takes :data:`NOMINAL_SLICE_S`.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Optional

# CPU seconds of one slice at the reference speed: a round figure near the
# median over 300 slices on a 2-vCPU virtual machine at 2.1 GHz with
# Python 3.11.7 (3.2 ms, in a slow spell).
NOMINAL_SLICE_S = 0.003

# reference CPU time per CPU second of timed work
SHARE = 0.08

# slices run by a fresh process right after its start-up has been timed
START_SLICES = 15

# The speed of the machine changes from one second to the next, so the
# slowness during a piece of work is measured by the slices run within this
# many CPU seconds of it: before it, after it and, for a short piece, after
# its neighbours.
WINDOW_S = 1.0


def _polys(seed: int, size: int) -> list:
    rng = random.Random(seed)
    return [[Fraction(rng.randint(-size, size), rng.randint(1, size)) for _ in range(9)]
            for _ in range(2)]


_SMALL = _polys(7, 99)
_LARGE = _polys(8, 10 ** 15)


def reference_slice() -> int:
    """Every product of two polynomials of a set, for a small-coefficient
    and a large-coefficient set."""
    acc = 0
    for polys in (_SMALL, _LARGE):
        for a in polys:
            for b in polys:
                c = [Fraction(0)] * 17
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        c[i + j] += x * y
                acc += c[8].numerator % 97
    return acc


class Meter:
    """Reference slices run between pieces of timed work, and the slowness of
    the machine they show around each piece."""

    def __init__(self):
        # (start on the process CPU clock, CPU seconds, count) of each batch
        self.marks: list[tuple] = []

    def run(self, count: int) -> None:
        t0 = time.process_time()
        for _ in range(count):
            reference_slice()
        self.marks.append((t0, time.process_time() - t0, count))

    def follow(self, timed_s: float) -> None:
        """Slices worth :data:`SHARE` of ``timed_s`` CPU seconds of work, at
        least one."""
        self.run(max(1, round(timed_s * SHARE / NOMINAL_SLICE_S)))

    def slowness(self, span: Optional[tuple] = None) -> float:
        """Mean CPU time of a slice relative to the reference speed: of all
        slices, or of the batches that started within :data:`WINDOW_S` of
        ``span``, a (start, end) on the process CPU clock."""
        marks = [m for m in self.marks
                 if span is None or span[0] - WINDOW_S <= m[0] <= span[1] + WINDOW_S]
        return sum(m[1] for m in marks) / sum(m[2] for m in marks) / NOMINAL_SLICE_S
