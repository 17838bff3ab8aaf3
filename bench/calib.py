"""Calibration kernel: tells a slower program from a slower host.

On a shared machine the interpreter's speed drifts by tens of percent
over minutes.  The benchmark times this fixed kernel next to every
measurement and reports times rescaled to the reference speed at which
the kernel takes ``CALIB_REF_S``:

    reported = measured * CALIB_REF_S / calibrate()
"""

import cmath
import math
import time

#: kernel time that defines the reference host speed (about what it took
#: on the 2-core Xeon the bounds in BENCHMARK.json were set on)
CALIB_REF_S = 0.070


class _Point:
    __slots__ = ("r", "t")

    def __init__(self, r, t):
        self.r = r
        self.t = t


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def calibrate(n: int = 50_000) -> float:
    """Seconds for a fixed mix of the interpreter work the program does:
    double-double style tuple arithmetic, complex arithmetic, and small
    objects fed to cmath/math.  Frozen: any edit rescales every
    normalized time the benchmark has reported."""
    t0 = time.perf_counter()
    hi, lo, acc, z = 1.0, 0.0, 0j, complex(0.3, -0.3)
    for i in range(n):
        hi, lo = _two_sum(hi * 1.0000001, lo * 0.5)
        if hi > 2.0:
            hi = 1.0
        acc = acc * z + complex(i & 3, 1.0) / (1.0 + abs(acc))
        p = _Point(1.0 + (i & 7), 0.1 * (i & 15))
        acc += cmath.exp(complex(0.0, -p.t)) * math.cos(p.t) / p.r
    return time.perf_counter() - t0
