"""A fixed calibration kernel that measures how fast this CPU runs now.

The benchmark's host shares its cores with other machines, and their load
changes the speed of every process here by tens of percent over seconds
to minutes.  The kernel mixes the work idealsieve does (Fraction and
tuple arithmetic, dict and list churn, big-integer gcd, numpy complex
array work) and never changes, so its time, measured in the same process
right before and after the timed work, tracks the speed the work got.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np


def _python_part():
    acc = {}
    x = (Fraction(1), Fraction(0))
    for i in range(1, 1500):
        a = Fraction(i, i % 7 + 1)
        b = Fraction(i % 13 + 1, i)
        x = (x[0] * a - x[1] * b, x[0] * b + x[1] * a)
        x = (Fraction(x[0].numerator % 10007, x[0].denominator % 101 + 1),
             Fraction(x[1].numerator % 10009, x[1].denominator % 103 + 1))
        acc[x] = acc.get(x, 0) + math.gcd(i * 3 ** 20, 2 ** 31 - 1 + i)
    return sorted(acc, key=lambda k: (k[0].numerator, k[1].numerator))


def _numpy_part():
    # Small arrays (256 KB) so the kernel does not move peak RSS.
    t = np.linspace(-1.0, 1.0, 64)
    out = 0.0
    for k in range(32):
        ys = np.linspace(-40.0 - k, 40.0 + k, 256)
        out += float(np.abs(np.exp(1j * np.outer(t, ys)).sum()))
    return out


def calibrate(rounds=4):
    """Seconds for a fixed amount of mixed work (about 0.25-0.35 s)."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        _python_part()
        _numpy_part()
    return time.perf_counter() - t0
