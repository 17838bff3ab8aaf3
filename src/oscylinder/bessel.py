"""Modified Bessel functions of complex argument: K0 and K1.

The flow solution only ever needs arguments on the ray arg z = -pi/4;
the kernel takes Re z >= 0, z != 0 and |z| up to the largest double.
Against 40-digit mpmath its relative error measured below 2e-14 for
1e-8 <= |z| <= 1e6 (the largest, 1.8e-14, in Temme's series just below
|z| = 2.5), and below 7e-16 for the scaled values from |z| = 1e300 up to
the largest double, off the axes too (4e-16 against the two-term
expansion at |z| = 1e10 .. 1e300).  Plain complex double arithmetic.

Two algorithms:

* |z| < 2.5: Temme's series (Temme 1975, J. Comput. Phys. 19:324) at
  order 0, in Horner form over rows of exact ratios, with the term count
  read from |z|^2/4.  It yields K0 and K1 - 1/z with the pole removed exactly.
* |z| >= 2.5: the trapezoidal rule (Trefethen & Weideman 2014,
  SIAM Rev. 56:385) on DLMF 10.32.8 with t = 1 + s^2/z,
      e^z K0(z) = sqrt(2/z) int_0^inf e^{-s^2} (1 + s^2/(2z))^{-1/2} ds,
      e^z K1(z) = 2 sqrt(2/z) int_0^inf s^2 e^{-s^2} (1 + s^2/(2z))^{1/2} ds,
  sampled at s_j = j h <= 6.2 with step h = 0.25, 0.34 or 0.44 for
  |z| < 4, < 8 or above.  The integrands are even in s and analytic in
  |Im s| < sqrt(2|z|) cos(arg z/2) >= sqrt|z|, so the rule's error falls
  like e^{-2 pi sqrt|z|/h}, below 2^-53 on each band; the first node
  dropped past s = 6.2 weighs below 1e-15 of either integral.  As |z|
  grows the integrands flatten toward e^{-s^2} and s^2 e^{-s^2}, which
  the same nodes integrate to double precision.  The nodes are tables
  built at import.

One cache holds each argument's values: Temme's (K0, K1 - 1/z) or the
rule's (e^z K0, e^z K1).  Scaled variants multiply K by e^z, which keeps
it finite over the whole working range (K underflows unscaled near
Re z ~ 745; those unscaled calls raise OverflowError instead of
returning garbage).

General orders are out of scope.
All functions are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

#: Temme/trapezoid crossover for K; Temme's K0 error passes 2e-14 near |z| = 2.83
_TEMME_RADIUS = 2.5

# exp(-x) flushes to zero above this (unscaled K loses all accuracy)
_EXP_UNDERFLOW = 745.1332191019411

_EULER_GAMMA = 0.57721566490153286


def _temme_rows() -> tuple:
    """Temme's rows (H_k, 1/k!^2, (H_k + H_{k+1})/2, 1/(k! (k+1)!)), k < 14,
    each an exact integer ratio rounded once by int / int."""
    rows = []
    hn, hd, fact = 0, 1, 1  # H_k = hn/hd, fact = k!
    for k1 in range(1, 15):
        rows.append((hn / hd, 1 / (fact * fact), (2 * k1 * hn + hd) / (2 * k1 * hd),
                     1 / (fact * fact * k1)))
        hn, hd, fact = hn * k1 + hd, hd * k1, fact * k1
    return tuple(rows)


def _trapezoid_nodes(h: float) -> tuple:
    """The rule's rows (s^2/2, h e^{-s^2}, 2 s^2 h e^{-s^2}) at s = j h for
    1 <= j with j h <= 6.2; the j = 0 node is the half weight h/2 alone."""
    rows = []
    j = 1
    while j * h <= 6.2:
        s2 = (j * h) * (j * h)
        w = h * math.exp(-s2)
        rows.append((0.5 * s2, w, 2.0 * s2 * w))
        j += 1
    return tuple(rows)


_TEMME_ROWS = _temme_rows()
# (bound, rows k = n-1 .. 0) for |x| < bound: the smallest n with
# bound^n/n!^2 (6 + H_n) < 2^-56; |x| < 1.5625 below _TEMME_RADIUS
_TEMME_TERMS = tuple((bound, _TEMME_ROWS[n - 1::-1]) for bound, n in (
    (1e-8, 3), (1e-4, 4), (1e-3, 5), (3e-3, 6), (0.03, 7), (0.1, 9), (0.3, 10),
    (0.6, 12), (1.0, 13), (1.6, 14)))
# (bound, h/2, rows) for |z| < bound: the rule's step h per band of |z|
_TRAPEZOID_BANDS = tuple((bound, 0.5 * h + 0j, _trapezoid_nodes(h))
                         for bound, h in ((4.0, 0.25), (8.0, 0.34), (math.inf, 0.44)))


class BesselDomainError(ValueError):
    """Argument outside the domain: zero, Re z < 0 or |z| past the largest double."""


def _check_domain(z: complex) -> float:  # |z|, for a z in the domain
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise BesselDomainError(f"argument must be finite, got {z!r}")
    if z == 0:
        raise BesselDomainError("argument must be nonzero")
    if z.real < 0.0:
        raise BesselDomainError(
            f"argument {z!r} lies in the left half-plane Re z < 0")
    try:
        return abs(z)
    except OverflowError:
        raise BesselDomainError(f"argument {z!r} is out of range: |z| must not exceed "
                                "the largest double, 1.7976931348623157e+308") from None


def _temme(z: complex) -> tuple[complex, complex]:
    """(K0, K1 - 1/z) by Temme's series at order 0, for |z| < 2.5.

    With x = z^2/4, L = ln(z/2) + gamma and the harmonic numbers H_k,
        K0 = sum_{k>=0} x^k (H_k - L)/k!^2,
        K1 - 1/z = (z/2) sum_{k>=0} x^k (L - (H_k + H_{k+1})/2)/(k! (k+1)!),
    both in Horner form over the first n rows of _TEMME_ROWS, n read from
    |x| in _TEMME_TERMS.  Each coefficient keeps H_k - L grouped: split into
    L P1(x) + P2(x), K0 cancels to errors of 1.8e-14 near |z| = 2.47.
    """
    x = 0.25 * z * z
    ax = abs(x)
    for bound, rows in _TEMME_TERMS:
        if ax < bound:
            break
    else:
        raise ArithmeticError(f"Temme series for {z!r} needs |z|^2/4 < {bound}")
    el = cmath.log(0.5 * z) + _EULER_GAMMA
    k0 = k1m = 0j
    for h, r, g, q in rows:
        k0 = k0 * x + (h - el) * r
        k1m = k1m * x + (el - g) * q
    return k0, 0.5 * z * k1m


def _trapezoid(w: complex) -> tuple[complex, complex]:
    """(e^w K0, e^w K1) by the trapezoidal rule of the module docstring,
    for |w| >= 2.5 and Re w >= 0: one cmath.sqrt per node, the
    K0 sum starting from the half-weighted node at s = 0."""
    aw = abs(w)
    for bound, sum0, rows in _TRAPEZOID_BANDS:
        if aw < bound:
            break
    u = 0.5 / (0.5 * w)  # 1.0 / w overflows inside the division past |w| ~ 1.27e308
    sum1 = 0j
    for hs2, w0, w1 in rows:
        q = cmath.sqrt(1.0 + hs2 * u)
        sum0 += w0 / q
        sum1 += w1 * q
    p = cmath.sqrt(2.0 * u)
    return p * sum0, p * sum1


@lru_cache(maxsize=4096)
def _k_values(z: complex) -> tuple[complex, complex]:
    """Temme's (K0, K1 - 1/z) below |z| = 2.5, the rule's (e^z K0, e^z K1)
    at and above it, for Re z >= 0."""
    return _temme(z) if abs(z) < _TEMME_RADIUS else _trapezoid(z)


def _k(nu: int, z: complex, scaled: bool) -> complex:
    if scaled:
        return bessel_k_pair(z, scaled=True)[nu]
    z = complex(z)
    if _check_domain(z) < _TEMME_RADIUS:
        k0, k1m = _k_values(z)
        return k1m + 1.0 / z if nu else k0
    if z.real > _EXP_UNDERFLOW:
        raise OverflowError(
            f"unscaled K underflows for Re z = {z.real:g}; request scaled=True")
    return _k_values(z)[nu] * cmath.exp(-z)


def bessel_k0(z: complex, scaled: bool = False) -> complex:
    """K0(z), or e^z K0(z) when scaled."""
    return _k(0, z, scaled)


def bessel_k1(z: complex, scaled: bool = False) -> complex:
    """K1(z), or e^z K1(z) when scaled."""
    return _k(1, z, scaled)


def bessel_k_pair(z: complex, scaled: bool = False) -> tuple[complex, complex]:
    """(K0(z), K1(z) - 1/z), or (e^z K0(z), e^z K1(z)) when scaled: the flow
    brackets' pair, from one domain check, one cache lookup and at most one
    exponential.  K1 - 1/z is Temme's pole-free value below |z| = 2.5, so
    it stays accurate as z -> 0.  K0 and the scaled pair are bitwise what
    bessel_k0 and bessel_k1 give, except that at |z| >= 2.5 the unscaled K0
    is e^z K0 times e^{-z}, which flushes to 0 where bessel_k0 would raise."""
    z = complex(z)
    if _check_domain(z) < _TEMME_RADIUS:
        k0, k1m = _k_values(z)
        if scaled:
            ez = cmath.exp(z)
            return k0 * ez, (k1m + 1.0 / z) * ez
        return k0, k1m
    k0s, k1s = _k_values(z)
    if scaled:
        return k0s, k1s
    emz = cmath.exp(-z)
    return k0s * emz, k1s * emz - 0.5 / (0.5 * z)  # not 1.0 / z: see _trapezoid
