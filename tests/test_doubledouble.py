"""Tests for the error-free transforms and double-double arithmetic.

The double-double layer (``tests/doubledouble.py``, not part of the
package) is checked directly against mpmath at 40 significant digits.
A double-double value carries ~32 digits; the comparisons below allow
1e-29 relative error to leave headroom for the final rounding of the lo
word.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doubledouble as dd

mpmath.mp.dps = 40

finite = st.floats(min_value=-1e15, max_value=1e15,
                   allow_nan=False, allow_infinity=False)
# magnitudes bounded away from the subnormal range, where the lo word of
# a product or quotient is not representable
normal = st.floats(min_value=1e-12, max_value=1e12,
                   allow_nan=False, allow_infinity=False).flatmap(
    lambda m: st.sampled_from([m, -m]))


def to_mp(x):
    hi, lo = x
    return mpmath.mpf(hi) + mpmath.mpf(lo)


def rel_err(x, ref):
    if ref == 0:
        return abs(to_mp(x))
    return abs((to_mp(x) - ref) / ref)


# ----------------------------------------------------------------------
# error-free transforms
# ----------------------------------------------------------------------

@given(finite, finite)
@settings(max_examples=300)
def test_two_sum_is_exact(a, b):
    hi, lo = dd.two_sum(a, b)
    assert hi == a + b
    assert Fraction(hi) + Fraction(lo) == Fraction(a) + Fraction(b)


# magnitudes bounded away from the subnormal range so the error term of
# the product is itself representable
prodable = st.floats(min_value=1e-100, max_value=1e100,
                     allow_nan=False, allow_infinity=False).flatmap(
    lambda m: st.sampled_from([m, -m]))


@given(prodable, prodable)
@settings(max_examples=300)
def test_two_prod_is_exact(a, b):
    hi, lo = dd.two_prod(a, b)
    assert hi == a * b
    assert Fraction(hi) + Fraction(lo) == Fraction(a) * Fraction(b)


def test_quick_two_sum_normalizes():
    hi, lo = dd.quick_two_sum(1.0, 1e-20)
    assert hi == 1.0 and lo == 1e-20


# ----------------------------------------------------------------------
# field operations against mpmath
# ----------------------------------------------------------------------

@given(finite, finite)
@settings(max_examples=300)
def test_add_matches_mpmath(a, b):
    assert rel_err(dd.add(dd.from_float(a), dd.from_float(b)),
                   mpmath.mpf(a) + mpmath.mpf(b)) < 1e-30


@given(normal, normal)
@settings(max_examples=300)
def test_mul_matches_mpmath(a, b):
    assert rel_err(dd.mul(dd.from_float(a), dd.from_float(b)),
                   mpmath.mpf(a) * mpmath.mpf(b)) < 1e-30


@given(normal, normal)
@settings(max_examples=300)
def test_div_matches_mpmath(a, b):
    assert rel_err(dd.div(dd.from_float(a), dd.from_float(b)),
                   mpmath.mpf(a) / mpmath.mpf(b)) < 1e-30


@given(normal, normal)
@settings(max_examples=200)
def test_div_then_mul_roundtrip(a, b):
    x = dd.from_float(a)
    y = dd.from_float(b)
    back = dd.mul(dd.div(x, y), y)
    assert rel_err(back, mpmath.mpf(a)) < 1e-30


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200)
def test_recip_int(n):
    assert rel_err(dd.recip_int(n), mpmath.mpf(1) / n) < 1e-30


@given(st.floats(min_value=1e-12, max_value=1e12,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=300)
def test_sqrt_matches_mpmath(x):
    assert rel_err(dd.sqrt(dd.from_float(x)), mpmath.sqrt(mpmath.mpf(x))) < 1e-30


# ----------------------------------------------------------------------
# elementary functions
# ----------------------------------------------------------------------

# below ~-620 the lo word of the result is subnormal and the pair loses
# precision; the former Bessel series only ever needed |x| <~ 20
@given(st.floats(min_value=-600.0, max_value=600.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=400)
def test_exp_matches_mpmath(x):
    assert rel_err(dd.exp(dd.from_float(x)), mpmath.exp(mpmath.mpf(x))) < 1e-29


@given(st.floats(min_value=1e-300, max_value=1e300,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=400)
def test_log_matches_mpmath(x):
    assert rel_err(dd.log(dd.from_float(x)), mpmath.log(mpmath.mpf(x))) < 1e-29


@given(st.floats(min_value=0.001, max_value=500.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_log_exp_roundtrip(x):
    # absolute bound: log(exp(x)) carries exp's ~1e-32 relative error as
    # an absolute error in x, which dominates the ratio at small x
    y = dd.log(dd.exp(dd.from_float(x)))
    assert abs(to_mp(y) - mpmath.mpf(x)) < 1e-31 * max(1.0, abs(x))


# sincos documents |x| <= pi (it only ever receives atan2 output)
@given(st.floats(min_value=-math.pi, max_value=math.pi,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=400)
def test_sincos_matches_mpmath(x):
    # 4e-31: the Maclaurin sums accumulate ~40 rounded terms near |x|=pi
    s, c = dd.sincos(dd.from_float(x))
    ref_s = mpmath.sin(mpmath.mpf(x))
    ref_c = mpmath.cos(mpmath.mpf(x))
    assert abs(to_mp(s) - ref_s) < 4e-31 * max(1, abs(ref_s))
    assert abs(to_mp(c) - ref_c) < 4e-31 * max(1, abs(ref_c))


@given(st.floats(min_value=-math.pi, max_value=math.pi,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_sincos_pythagorean(x):
    s, c = dd.sincos(dd.from_float(x))
    one = dd.add(dd.mul(s, s), dd.mul(c, c))
    assert abs(to_mp(one) - 1) < 4e-31


@given(normal, normal)
@settings(max_examples=400)
def test_atan2_matches_mpmath(y, x):
    got = dd.atan2(y, x)
    ref = mpmath.atan2(mpmath.mpf(y), mpmath.mpf(x))
    assert abs(to_mp(got) - ref) < 1e-31 * max(1, abs(ref))


# ----------------------------------------------------------------------
# frozen constants
# ----------------------------------------------------------------------

@pytest.mark.parametrize("pair, ref", [
    (dd.EULER_GAMMA, mpmath.euler),
    (dd.LN2, mpmath.log(2)),
    (dd.PI, mpmath.pi),
])
def test_constants(pair, ref):
    assert abs(to_mp(pair) - ref) < mpmath.mpf("1e-31")


# ----------------------------------------------------------------------
# complex double-double layer
# ----------------------------------------------------------------------

# components bounded away from the subnormal range so that products of
# components stay normal (the low word of a double-double is meaningless
# once the high word underflows)
_comp = st.floats(min_value=1e-8, max_value=1e8).flatmap(
    lambda m: st.sampled_from((m, -m)))
cfinite = st.builds(complex, _comp, _comp)


def c_to_mp(x):
    return mpmath.mpc(to_mp(x[0]), to_mp(x[1]))


def c_rel(x, ref):
    if ref == 0:
        return abs(c_to_mp(x))
    return abs((c_to_mp(x) - ref) / ref)


@given(cfinite, cfinite)
@settings(max_examples=300)
def test_c_mul_matches_mpmath(u, v):
    got = dd.c_mul(dd.c_from_complex(u), dd.c_from_complex(v))
    assert c_rel(got, mpmath.mpc(u) * mpmath.mpc(v)) < 1e-30


@given(cfinite, cfinite.filter(lambda z: abs(z) > 1e-6))
@settings(max_examples=300)
def test_c_div_matches_mpmath(u, v):
    got = dd.c_div(dd.c_from_complex(u), dd.c_from_complex(v))
    assert c_rel(got, mpmath.mpc(u) / mpmath.mpc(v)) < 1e-29


@given(cfinite.filter(lambda z: abs(z) > 1e-8 and (z.real > 0 or abs(z.imag) > 1e-8)))
@settings(max_examples=400)
def test_c_log_matches_mpmath(z):
    got = dd.c_log(z.real, z.imag)
    ref = mpmath.log(mpmath.mpc(z))
    assert abs(c_to_mp(got) - ref) < 1e-29 * max(1, abs(ref))


@given(cfinite)
@settings(max_examples=200)
def test_c_roundtrip(z):
    assert dd.c_to_complex(dd.c_from_complex(z)) == z


def test_c_abs2():
    z = complex(3.0, 4.0)
    assert dd.to_float(dd.c_abs2(dd.c_from_complex(z))) == 25.0
