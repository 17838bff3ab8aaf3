"""Modified Bessel functions of complex argument: K0, K1, I0, I1.

The flow solution only ever needs arguments on the ray arg z = -pi/4,
but the kernel is accurate on the whole sector |arg z| <= pi/2 with a
relative-error target of 1e-12 for 1e-4 <= |z| <= 700.

Algorithm split at |z| = 17:

* |z| <= 17: Maclaurin/log series (DLMF 10.25.2, 10.31.1-2) accumulated
  in double-double arithmetic.  The K-series assembly cancels like
  e^{2 Re z} near the real axis (~e^34 at the crossover, 15 digits), so
  plain doubles cannot reach 1e-12 here; the ~32-digit accumulator
  leaves ample headroom.
* |z| > 17: asymptotic expansions (DLMF 10.40.2 for K, 10.40.5 for I)
  truncated at the smallest term.  At |z| = 17 the smallest term is
  ~e^{-2|z|} ~ 2e-15 relative, already past the target.

Scaled variants multiply K by e^z and I by e^{-z}, which keeps both
finite over the whole working range (K underflows unscaled near
Re z ~ 745, I overflows near Re z ~ 710; those unscaled calls raise
OverflowError instead of returning garbage).

I0/I1 exist for self-testing K0/K1 through the Wronskian
I0(z) K1(z) + I1(z) K0(z) = 1/z; general orders are out of scope.
All functions are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from . import doubledouble as dd

#: series/asymptotic crossover radius
SERIES_RADIUS = 17.0

# exp(x) overflows above this (unscaled I impossible to represent)
_EXP_OVERFLOW = 709.782712893384
# exp(-x) flushes to zero above this (unscaled K loses all accuracy)
_EXP_UNDERFLOW = 745.1332191019411

_MAX_SERIES_TERMS = 200
_MAX_ASYM_TERMS = 40


class BesselDomainError(ValueError):
    """Argument outside the supported domain (zero or on the negative real axis)."""


def _check_domain(z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise BesselDomainError(f"argument must be finite, got {z!r}")
    if z == 0:
        raise BesselDomainError("argument must be nonzero")
    if z.imag == 0.0 and z.real < 0.0:
        raise BesselDomainError(
            f"argument {z!r} lies on the negative real axis (branch cut)")


@lru_cache(maxsize=4096)
def _series_values(z: complex):
    """All four functions plus K1 - 1/z by simultaneous series, |z| <= 17.

    Uses the expansions
        I0(z) = sum u_k,                u_k = (z^2/4)^k / (k!)^2
        I1(z) = (z/2) sum t_k,          t_k = (z^2/4)^k / (k! (k+1)!)
        K0(z) = -(ln(z/2)+gamma) I0(z) + sum_{k>=1} H_k u_k
        K1(z) = 1/z + (ln(z/2)+gamma) I1(z)
                    - (z/4) sum_{k>=0} (H_k + H_{k+1}) t_k
    with H_k the harmonic numbers.  Everything is accumulated as complex
    double-doubles; returned values are rounded to complex doubles.
    """
    zc = dd.c_from_complex(z)
    w = dd.c_div_d(dd.c_mul(zc, zc), 4.0)

    u = dd.CONE
    t = dd.CONE
    i0 = dd.CONE
    s1 = dd.CONE
    k0sum = dd.CZERO
    hsum = dd.CONE  # k = 0 term: (H_0 + H_1) t_0 = 1
    h = dd.ZERO
    h_next = dd.ONE

    for k in range(1, _MAX_SERIES_TERMS + 1):
        u = dd.c_div_d(dd.c_mul(u, w), float(k * k))
        t = dd.c_div_d(dd.c_mul(t, w), float(k * (k + 1)))
        h = dd.add(h, dd.recip_int(k))
        h_next = dd.add(h_next, dd.recip_int(k + 1))
        i0 = dd.c_add(i0, u)
        s1 = dd.c_add(s1, t)
        k0sum = dd.c_add(k0sum, dd.c_mul_dd(u, h))
        hsum = dd.c_add(hsum, dd.c_mul_dd(t, dd.add(h, h_next)))

        mag_term = abs(u[0][0]) + abs(u[1][0])
        mag_sum = abs(i0[0][0]) + abs(i0[1][0]) + 1.0
        if mag_term < 1e-34 * mag_sum:
            break
    else:
        raise ArithmeticError(f"series for {z!r} did not converge")

    # log(z/2) + gamma, with the principal branch of log
    lg_re, lg_im = dd.c_log(z.real, z.imag)
    lg = (dd.add(dd.sub(lg_re, dd.LN2), dd.EULER_GAMMA), lg_im)

    i1 = dd.c_mul(dd.c_mul_d(zc, 0.5), s1)
    k0 = dd.c_sub(k0sum, dd.c_mul(lg, i0))
    k1m = dd.c_sub(dd.c_mul(lg, i1), dd.c_mul(dd.c_mul_d(zc, 0.25), hsum))
    inv_z = dd.c_div(dd.CONE, zc)
    k1 = dd.c_add(k1m, inv_z)

    return (dd.c_to_complex(i0), dd.c_to_complex(i1), dd.c_to_complex(k0),
            dd.c_to_complex(k1), dd.c_to_complex(k1m))


def _asym_sum(nu: int, z: complex) -> complex:
    """sum_k a_k(nu)/z^k with a_k = a_{k-1} (4 nu^2 - (2k-1)^2)/(8k), truncated
    at the smallest term."""
    mu = 4.0 * nu * nu
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    prev_mag = math.inf
    for k in range(1, _MAX_ASYM_TERMS + 1):
        term = term * (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * z)
        mag = abs(term)
        if mag >= prev_mag:
            break  # past the smallest term; stop before divergence
        total += term
        if mag < 1e-17 * abs(total):
            break
        prev_mag = mag
    return total


@lru_cache(maxsize=4096)
def _asym_values_scaled(z: complex):
    """Scaled (e^z K, e^{-z} I) values from the large-|z| expansions."""
    s0 = _asym_sum(0, z)
    s1 = _asym_sum(1, z)
    pref_k = cmath.sqrt(math.pi / 2.0 / z)
    k0s = pref_k * s0
    k1s = pref_k * s1

    s0m = _asym_sum(0, -z)
    s1m = _asym_sum(1, -z)
    if z.imag >= 0.0:
        sig0, sig1 = 1j, -1j
    else:
        sig0, sig1 = -1j, 1j
    e2 = cmath.exp(-2.0 * z)  # bounded on Re z >= 0
    pref_i = 1.0 / cmath.sqrt(2.0 * math.pi * z)
    i0s = pref_i * (s0m + sig0 * e2 * s0)
    i1s = pref_i * (s1m + sig1 * e2 * s1)
    return k0s, k1s, i0s, i1s


def _k_unscaling(z: complex) -> complex:
    if z.real > _EXP_UNDERFLOW:
        raise OverflowError(
            f"unscaled K underflows for Re z = {z.real:g}; request scaled=True")
    return cmath.exp(-z)


def _i_unscaling(z: complex) -> complex:
    if z.real > _EXP_OVERFLOW:
        raise OverflowError(
            f"unscaled I overflows for Re z = {z.real:g}; request scaled=True")
    return cmath.exp(z)


def bessel_k0(z: complex, scaled: bool = False) -> complex:
    """K0(z), or e^z K0(z) when scaled."""
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        k0 = _series_values(z)[2]
        return k0 * cmath.exp(z) if scaled else k0
    k0s = _asym_values_scaled(z)[0]
    return k0s if scaled else k0s * _k_unscaling(z)


def bessel_k1(z: complex, scaled: bool = False) -> complex:
    """K1(z), or e^z K1(z) when scaled."""
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        k1 = _series_values(z)[3]
        return k1 * cmath.exp(z) if scaled else k1
    k1s = _asym_values_scaled(z)[1]
    return k1s if scaled else k1s * _k_unscaling(z)


def bessel_i0(z: complex, scaled: bool = False) -> complex:
    """I0(z), or e^{-z} I0(z) when scaled."""
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        i0 = _series_values(z)[0]
        return i0 * cmath.exp(-z) if scaled else i0
    i0s = _asym_values_scaled(z)[2]
    return i0s * _i_unscaling(z) if not scaled else i0s


def bessel_i1(z: complex, scaled: bool = False) -> complex:
    """I1(z), or e^{-z} I1(z) when scaled."""
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        i1 = _series_values(z)[1]
        return i1 * cmath.exp(-z) if scaled else i1
    i1s = _asym_values_scaled(z)[3]
    return i1s * _i_unscaling(z) if not scaled else i1s


def bessel_k1_minus_pole(z: complex) -> complex:
    """K1(z) - 1/z with the pole removed analytically.

    In the series region the subtraction happens inside the expansion,
    so the result stays fully accurate as z -> 0 where K1 ~ 1/z would
    cancel catastrophically.  For large |z| the pole dominates and the
    direct difference is safe; if e^{-z} underflows, K1 itself is
    negligible against 1/z.
    """
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        return _series_values(z)[4]
    k1s = _asym_values_scaled(z)[1]
    return k1s * cmath.exp(-z) - 1.0 / z
