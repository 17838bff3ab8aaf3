"""Modified Bessel functions of complex argument: K0, K1, I0, I1.

The flow solution only ever needs arguments on the ray arg z = -pi/4,
but the kernel is accurate on the whole sector |arg z| <= pi/2 with a
relative-error target of 1e-12 for 1e-4 <= |z| <= 700.  Near the zeros
of I0 and I1 on the imaginary axis their relative error grows with
their condition number |z I_n'/I_n|, as for any double evaluation.
Everything is plain complex double arithmetic.

Algorithm split:

* |z| < 2, K: Temme's series (Temme 1975, J. Comput. Phys. 19:324) at
  order 0.  It yields K0 and K1 - 1/z with the pole removed exactly.
* 2 <= |z| <= 17, K: Steed's continued fraction CF2 (Thompson & Barnett
  1986, J. Comput. Phys. 64:490; Numerical Recipes section 6.7), which
  gives e^z K0 and e^z K1 directly.  CF2 needs Re z >= 0; the left
  half-plane is reached by reflection (DLMF 10.34.2), K's only use of I.
* |z| <= 17, I: Miller backward recurrence for the ratios I_k/I_{k-1},
  normalised by I0 + 2 sum_k I_k = e^z (DLMF 10.35.1 at t = 1).  I never
  uses K, so the Wronskian I0 K1 + I1 K0 = 1/z remains an independent
  check.
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

#: series/asymptotic crossover radius
SERIES_RADIUS = 17.0
#: Temme series / Steed CF2 crossover radius for K
_TEMME_RADIUS = 2.0

# exp(x) overflows above this (unscaled I impossible to represent)
_EXP_OVERFLOW = 709.782712893384
# exp(-x) flushes to zero above this (unscaled K loses all accuracy)
_EXP_UNDERFLOW = 745.1332191019411

_EPS = 2.0 ** -53
_EULER_GAMMA = 0.57721566490153286
_MAX_SERIES_TERMS = 200
_MAX_CF2_TERMS = 1000
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


def _temme(z: complex) -> tuple[complex, complex]:
    """(K0, K1 - 1/z) by Temme's series at order 0, for |z| < 2.

    With x = z^2/4, f_0 = -(ln(z/2) + gamma) and p_0 = 1/2,
        f_k = (f_{k-1} + 2 p_{k-1}/k)/k,   p_k = p_{k-1}/k,
        K0 = sum_{k>=0} x^k/k! f_k,
        K1 - 1/z = (z/2) sum_{k>=1} x^{k-1}/k! (p_k - k f_k),
    the k = 0 term of K1 = (2/z) sum x^k/k! (p_k - k f_k) being the pole.
    The stops use <= so that terms underflowing to 0 end the loop.
    """
    x = 0.25 * z * z
    f = -(cmath.log(0.5 * z) + _EULER_GAMMA)
    p = 0.5
    k0 = f
    k1m = 0j
    e = 1.0 + 0j  # x^{k-1}/k!
    for k in range(1, _MAX_SERIES_TERMS + 1):
        f = (f + 2.0 * p / k) / k
        p /= k
        if k > 1:
            e *= x / k
        t0 = x * e * f
        t1 = e * (p - k * f)
        k0 += t0
        k1m += t1
        if abs(t0) <= _EPS * abs(k0) and abs(t1) <= _EPS * abs(k1m):
            return k0, 0.5 * z * k1m
    raise ArithmeticError(f"Temme series for {z!r} did not converge")


def _steed(z: complex) -> tuple[complex, complex]:
    """(e^z K0, e^z K1) by Steed's algorithm for CF2 at order 0.

    Numerical Recipes `bessik` with mu = 0; needs Re z >= 0 and |z| >~ 2.
    """
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0j, 1.0 + 0j
    a1 = 0.25
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAX_CF2_TERMS + 1):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) <= _EPS * abs(s):
            k0s = cmath.sqrt(0.5 * math.pi / z) / s
            return k0s, k0s * (z + 0.5 - a1 * h) / z
    raise ArithmeticError(f"continued fraction CF2 for {z!r} did not converge")


def _miller(w: complex) -> tuple[complex, complex]:
    """(I0, I1) by Miller backward recurrence, Re w >= 0.

    The ratios r_k = I_k/I_{k-1} = w/(2k + w r_{k+1}) run down from
    r_{n+1} = 0, and u_k = r_k (1 + u_{k+1}) = sum_{j>=k} I_j/I_{k-1}, so
    I0 + 2 sum_{k>=1} I_k = e^w gives e^{-w} I0 = 1/(1 + 2 u_1).  The
    start n = 2|w| + 24 is at least 11 orders past the smallest n that
    reproduces the n = 400 result to 1e-17 for |w| <= 17.
    """
    n = 2 * int(abs(w)) + 24
    r = u = 0j
    for k in range(n, 0, -1):
        r = w / (2.0 * k + w * r)
        u = r * (1.0 + u)
    i0s = 1.0 / (1.0 + 2.0 * u)
    ew = cmath.exp(w)
    return i0s * ew, r * i0s * ew


@lru_cache(maxsize=4096)
def _k_values(z: complex):
    """(K0, K1, K1 - 1/z) for |z| <= 17, unscaled: Temme's series below
    |z| = 2, CF2 above.  In the left half-plane CF2 runs on w = -z and
    DLMF 10.34.2 with m = sign(Im z) reflects it back, with Miller's I:
        K0(z) = K0(w) - m pi i I0(w),   K1(z) = -K1(w) - m pi i I1(w).
    """
    if abs(z) < _TEMME_RADIUS:
        k0, k1m = _temme(z)
        return k0, k1m + 1.0 / z, k1m
    reflect = z.real < 0.0
    w = -z if reflect else z
    k0s, k1s = _steed(w)
    emw = cmath.exp(-w)
    k0, k1 = k0s * emw, k1s * emw
    if reflect:
        i0, i1 = _miller(w)
        m = math.pi * 1j if z.imag > 0.0 else -math.pi * 1j
        k0, k1 = k0 - m * i0, -k1 - m * i1
    return k0, k1, k1 - 1.0 / z


def _series_values(z: complex):
    """(I0, I1) for |z| <= 17, unscaled: Miller's recurrence on w = +-z with
    Re w >= 0 (I0 even, I1 odd)."""
    reflect = z.real < 0.0
    i0, i1 = _miller(-z if reflect else z)
    return i0, -i1 if reflect else i1


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
def _asym_k_scaled(z: complex):
    """(e^z K0, e^z K1) from the large-|z| expansion."""
    pref_k = cmath.sqrt(math.pi / 2.0 / z)
    return pref_k * _asym_sum(0, z), pref_k * _asym_sum(1, z)


def _asym_i_scaled(z: complex):
    """(e^{-z} I0, e^{-z} I1) from the large-|z| expansion; its e^{-2z}
    terms carry K's sums."""
    s0 = _asym_sum(0, z)
    s1 = _asym_sum(1, z)
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
    return i0s, i1s


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
        k0 = _k_values(z)[0]
        return k0 * cmath.exp(z) if scaled else k0
    k0s = _asym_k_scaled(z)[0]
    return k0s if scaled else k0s * _k_unscaling(z)


def bessel_k1(z: complex, scaled: bool = False) -> complex:
    """K1(z), or e^z K1(z) when scaled."""
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        k1 = _k_values(z)[1]
        return k1 * cmath.exp(z) if scaled else k1
    k1s = _asym_k_scaled(z)[1]
    return k1s if scaled else k1s * _k_unscaling(z)


def bessel_i0(z: complex, scaled: bool = False) -> complex:
    """I0(z), or e^{-z} I0(z) when scaled."""
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        i0 = _series_values(z)[0]
        return i0 * cmath.exp(-z) if scaled else i0
    i0s = _asym_i_scaled(z)[0]
    return i0s * _i_unscaling(z) if not scaled else i0s


def bessel_i1(z: complex, scaled: bool = False) -> complex:
    """I1(z), or e^{-z} I1(z) when scaled."""
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        i1 = _series_values(z)[1]
        return i1 * cmath.exp(-z) if scaled else i1
    i1s = _asym_i_scaled(z)[1]
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
        return _k_values(z)[2]
    k1s = _asym_k_scaled(z)[1]
    return k1s * cmath.exp(-z) - 1.0 / z


def bessel_k_pair(z: complex, scaled: bool = False) -> tuple[complex, complex]:
    """(K0(z), K1(z) - 1/z), or (e^z K0(z), e^z K1(z)) when scaled: the flow
    brackets' pair, from one domain check, one cache lookup and at most one
    exponential.  Bitwise the values of bessel_k0, bessel_k1 and
    bessel_k1_minus_pole, except that past |z| = 17 the unscaled K0 is
    e^z K0 times e^{-z}, which flushes to 0 where bessel_k0 would raise."""
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        k0, k1, k1m = _k_values(z)
        if scaled:
            ez = cmath.exp(z)
            return k0 * ez, k1 * ez
        return k0, k1m
    k0s, k1s = _asym_k_scaled(z)
    if scaled:
        return k0s, k1s
    emz = cmath.exp(-z)
    return k0s * emz, k1s * emz - 1.0 / z
