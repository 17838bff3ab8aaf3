"""Modified Bessel functions I0 and I1 of complex argument, for the tests.

The flow solution is built from K0 and K1 alone, so the package does not
ship I.  The tests keep I0/I1 as the reference for checking K0/K1 through
the Wronskian I0(z) K1(z) + I1(z) K0(z) = 1/z.  Nothing here calls K, so
that check stays independent.  The domain and target are the kernel's:
Re z >= 0, z != 0, relative error 1e-12 for 1e-4 <= |z| <= 700.  Near
the zeros of I0 and I1 on the imaginary axis their relative error grows
with their condition number |z I_n'/I_n|, as for any double evaluation.

* |z| <= 17: Miller backward recurrence for the ratios I_k/I_{k-1},
  normalised by I0 + 2 sum_k I_k = e^z (DLMF 10.35.1 at t = 1).
* |z| > 17: the asymptotic expansion DLMF 10.40.5, truncated at the
  smallest term, over the kernel's sums for K.

Scaled variants multiply I by e^{-z}, which keeps it finite over the
whole working range; unscaled I overflows near Re z ~ 710, where these
calls raise OverflowError instead of returning garbage.
"""

import cmath
import math

from oscylinder.bessel import SERIES_RADIUS, _asym_sum, _check_domain

# exp(x) overflows above this (unscaled I impossible to represent)
_EXP_OVERFLOW = 709.782712893384


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


def _i_unscaling(z: complex) -> complex:
    if z.real > _EXP_OVERFLOW:
        raise OverflowError(
            f"unscaled I overflows for Re z = {z.real:g}; request scaled=True")
    return cmath.exp(z)


def bessel_i0(z: complex, scaled: bool = False) -> complex:
    """I0(z), or e^{-z} I0(z) when scaled."""
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        i0 = _miller(z)[0]
        return i0 * cmath.exp(-z) if scaled else i0
    i0s = _asym_i_scaled(z)[0]
    return i0s * _i_unscaling(z) if not scaled else i0s


def bessel_i1(z: complex, scaled: bool = False) -> complex:
    """I1(z), or e^{-z} I1(z) when scaled."""
    z = complex(z)
    _check_domain(z)
    if abs(z) <= SERIES_RADIUS:
        i1 = _miller(z)[1]
        return i1 * cmath.exp(-z) if scaled else i1
    i1s = _asym_i_scaled(z)[1]
    return i1s * _i_unscaling(z) if not scaled else i1s
