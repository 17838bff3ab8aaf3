"""Double-double arithmetic: ~32 significant digits from pairs of floats.

A value x is represented by an unevaluated sum (hi, lo) of two doubles
with |lo| <= ulp(hi)/2.  The error-free transformations (two_sum,
two_prod via Dekker splitting) are standard; see Dekker (1971) and the
QD library of Hida, Li and Bailey.  The operations are those the former
double-double Bessel series kernel used: field operations,
sqrt/exp/log, sin/cos and atan2, plus a complex layer built on real
pairs.

This module is not part of the ``oscylinder`` package, and no program
code imports it: the Bessel kernel now works in plain doubles.  It
lives beside its tests (``test_doubledouble.py``) until a later change
removes both.
"""

from __future__ import annotations

import math

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant

# frozen high/low decompositions of the constants the series kernel needed
EULER_GAMMA = (0.5772156649015329, -4.942915152430645e-18)
LN2 = (0.6931471805599453, 2.3190468138462996e-17)
PI = (3.141592653589793, 1.2246467991473532e-16)

ZERO = (0.0, 0.0)
ONE = (1.0, 0.0)


def two_sum(a, b):
    """Error-free sum: returns (s, e) with s = fl(a+b), a+b = s+e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a, b):
    """two_sum specialization valid when |a| >= |b|."""
    s = a + b
    e = b - (s - a)
    return s, e


def two_prod(a, b):
    """Error-free product: returns (p, e) with p = fl(a*b), a*b = p+e exactly."""
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def from_float(a):
    return (a, 0.0)


def add(x, y):
    s, e = two_sum(x[0], y[0])
    t, f = two_sum(x[1], y[1])
    e += t
    s, e = quick_two_sum(s, e)
    e += f
    return quick_two_sum(s, e)


def add_d(x, d):
    s, e = two_sum(x[0], d)
    e += x[1]
    return quick_two_sum(s, e)


def neg(x):
    return (-x[0], -x[1])


def sub(x, y):
    return add(x, neg(y))

def sub_d(x, d):
    return add_d(x, -d)


def mul(x, y):
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def mul_d(x, d):
    p, e = two_prod(x[0], d)
    e += x[1] * d
    return quick_two_sum(p, e)


def div(x, y):
    q1 = x[0] / y[0]
    r = sub(x, mul_d(y, q1))
    q2 = r[0] / y[0]
    r = sub(r, mul_d(y, q2))
    q3 = r[0] / y[0]
    s, e = quick_two_sum(q1, q2)
    return add_d((s, e), q3)


def div_d(x, d):
    q1 = x[0] / d
    p, e = two_prod(q1, d)
    r = add_d(sub(x, (p, e)), 0.0)
    q2 = r[0] / d
    r = sub(r, two_prod(q2, d))
    q3 = r[0] / d
    s, e = quick_two_sum(q1, q2)
    return add_d((s, e), q3)


def recip_int(n):
    """1/n as a double-double, n a nonzero integer."""
    return div_d(ONE, float(n))


def sqrt(x):
    # one Newton step on a double seed doubles the digit count
    if x[0] == 0.0:
        return ZERO
    s = math.sqrt(x[0])
    d = div_d(x, s)
    return mul_d(add_d(d, s), 0.5)


def exp(x):
    """exp of a double-double, via ln2 range reduction and a Maclaurin tail."""
    n = round(x[0] / LN2[0])
    r = sub(x, mul_d(LN2, float(n)))
    # |r| <= ln2/2; sum r^k/k! until terms fall below 1e-35
    term = r
    total = add_d(r, 1.0)
    k = 1
    while abs(term[0]) > 1e-35 and k < 40:
        k += 1
        term = div_d(mul(term, r), float(k))
        total = add(total, term)
    return (math.ldexp(total[0], n), math.ldexp(total[1], n))


def log(x):
    """Natural log of a positive double-double: double seed + exp refinement.

    The argument is reduced to m * 2^k with m in [0.5, 1) so the
    refinement never feeds exp a large argument, whose result would have
    a subnormal lo word near the ends of the double range.
    """
    if x[0] <= 0.0:
        raise ValueError("log argument must be positive")
    w = sub_d(x, 1.0)
    if abs(w[0]) <= 0.0625:
        # log(1+w) series: keeps the relative error bounded as x -> 1,
        # where the seed-and-refine form only bounds the absolute error
        total = w
        p = w
        k = 2
        while abs(p[0]) > 1e-35 * abs(w[0]) and k < 60:
            p = neg(mul(p, w))
            total = add(total, div_d(p, float(k)))
            k += 1
        return total
    k = math.frexp(x[0])[1]
    if -512 < k < 512:
        # direct: no cancellation between log(m) and k*ln2 near x = 1
        l0 = math.log(x[0])
        # delta = x*exp(-l0) - 1 is O(1e-16); log(1+delta) ~ delta - delta^2/2
        d = sub_d(mul(x, exp((-l0, 0.0))), 1.0)
        corr = sub(d, mul_d(mul(d, d), 0.5))
        return add_d(corr, l0)
    xm = (math.ldexp(x[0], -k), math.ldexp(x[1], -k))
    l0 = math.log(xm[0])
    d = sub_d(mul(xm, exp((-l0, 0.0))), 1.0)
    corr = sub(d, mul_d(mul(d, d), 0.5))
    return add(add_d(corr, l0), mul_d(LN2, float(k)))


def sincos(x):
    """Simultaneous sin and cos of a double-double, |x| <= pi assumed."""
    # Maclaurin series; at |x| = pi about 40 terms reach 1e-35
    x2 = mul(x, x)
    s = x
    term = x
    k = 1
    while abs(term[0]) > 1e-35 and k < 60:
        term = div_d(mul(term, x2), float(-(2 * k) * (2 * k + 1)))
        s = add(s, term)
        k += 1
    c = ONE
    term = ONE
    k = 1
    while abs(term[0]) > 1e-35 and k < 60:
        term = div_d(mul(term, x2), float(-(2 * k - 1) * (2 * k)))
        c = add(c, term)
        k += 1
    return s, c


def atan2(y, x):
    """atan2 of two doubles to double-double accuracy, by rotation refinement."""
    phi0 = math.atan2(y, x)
    s, c = sincos((phi0, 0.0))
    # rotate (x, y) by -phi0; residual angle is atan(v/u) ~ v/u, |v/u| ~ 1e-16
    u = add(mul_d(c, x), mul_d(s, y))
    v = sub(mul_d(c, y), mul_d(s, x))
    if u[0] == 0.0:
        return (phi0, 0.0)
    return add_d(div(v, u), phi0)


def to_float(x):
    return x[0]


# ----------------------------------------------------------------------
# complex layer: value is a pair (re, im) of double-doubles
# ----------------------------------------------------------------------

CZERO = (ZERO, ZERO)
CONE = (ONE, ZERO)


def c_from_complex(z):
    return (from_float(z.real), from_float(z.imag))


def c_add(x, y):
    return (add(x[0], y[0]), add(x[1], y[1]))


def c_sub(x, y):
    return (sub(x[0], y[0]), sub(x[1], y[1]))


def c_neg(x):
    return (neg(x[0]), neg(x[1]))


def c_mul(x, y):
    re = sub(mul(x[0], y[0]), mul(x[1], y[1]))
    im = add(mul(x[0], y[1]), mul(x[1], y[0]))
    return (re, im)


def c_mul_dd(x, d):
    """Complex double-double times a real double-double."""
    return (mul(x[0], d), mul(x[1], d))


def c_mul_d(x, d):
    return (mul_d(x[0], d), mul_d(x[1], d))


def c_div_d(x, d):
    return (div_d(x[0], d), div_d(x[1], d))


def c_div(x, y):
    den = add(mul(y[0], y[0]), mul(y[1], y[1]))
    re = div(add(mul(x[0], y[0]), mul(x[1], y[1])), den)
    im = div(sub(mul(x[1], y[0]), mul(x[0], y[1])), den)
    return (re, im)


def c_abs2(x):
    return add(mul(x[0], x[0]), mul(x[1], x[1]))


def c_to_complex(x):
    return complex(x[0][0], x[1][0])


def c_log(z_re, z_im):
    """Principal log of the double z = z_re + i z_im, to double-double accuracy.

    Returns a complex double-double.  The argument must avoid the branch
    cut on the negative real axis (enforced by the caller).
    """
    m2 = add(two_prod(z_re, z_re), two_prod(z_im, z_im))
    re = mul_d(log(m2), 0.5)
    im = atan2(z_im, z_re)
    return (re, im)
