"""Tests for the complex-argument modified Bessel kernel.

Expected values were computed with mpmath at 50 significant digits and
frozen here (scripts/reference_values.py regenerates them).  The point
set covers every evaluation branch (K: Temme series below |z| = 2.5, the
trapezoidal rule above, with points at the rule's step changes |z| = 4
and 8; I0 and I1 come from the tests' own bessel_i module, the Wronskian
reference, by Miller recurrence up to |z| = 17 and asymptotic expansion
above), the arg(z) = -pi/4 ray the flow solution lives on,
near-imaginary arguments, and the deep-decay regime.  Hypothesis
properties compare the kernel for |z| <= 17, and the rule on 2.5 <= |z|
<= 17 and on 17 <= |z| <= 1e6, with mpmath at 40 digits; fixed points
up to |z| = 1e300 check it against the two-term expansion, and three
past 1.27e308 against mpmath, scaled and unscaled.  Pins tie
the kernel's precomputed tables (Temme's rows and term counts, the
rule's nodes) to exact rationals and to the float operations that form
them.
"""

import cmath
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscylinder import BesselDomainError, bessel_k0, bessel_k1
from oscylinder.bessel import _TEMME_RADIUS, bessel_k_pair

from bessel_i import bessel_i0, bessel_i1

# name: (z, K0, K1, I0, I1)  [unscaled]
BESSEL_REFERENCE = {
    "one": (complex(1.0000000000000000, 0.0),
        complex(0.42102443824070833, 0.0),
        complex(0.60190723019723457, 0.0),
        complex(1.2660658777520083, 0.0),
        complex(0.56515910399248503, 0.0)),
    "half": (complex(0.50000000000000000, 0.0),
        complex(0.92441907122766586, 0.0),
        complex(1.6564411200033009, 0.0),
        complex(1.0634833707413235, 0.0),
        complex(0.25789430539089632, 0.0)),
    "arg45_mid": (complex(1.4420735695518450, -1.4420735695518450),
        complex(-0.045669889116864017, 0.19385702333148481),
        complex(-0.082762627702894814, 0.21967539235091813),
        complex(0.73173709458397498, -1.0086453160623573),
        complex(0.28712232138228099, -1.0256101061385901)),
    "arg45_small": (complex(0.0014420735695518450, -0.0014420735695518450),
        complex(6.3110319643381062, 0.78539056147412303),
        complex(346.71747120524630, 346.72729321383461),
        complex(0.99999999999972971, -1.0397880899999688e-6),
        complex(0.00072103640991312692, -0.00072103715963858818)),
    "generic": (complex(3.0000000000000000, 4.0000000000000000),
        complex(-0.0072390512135701550, 0.026510418350267677),
        complex(-0.0056734204013233075, 0.028666936579007819),
        complex(-3.3924877882755196, -1.3239458916287265),
        complex(-3.0683095812730114, -1.5310157285037969)),
    "cross_lo": (complex(11.950104602052653, -11.950104602052653),
        complex(1.9078213114490683e-6, -4.4386236248553209e-7),
        complex(1.9568023190446622e-6, -4.1402908152211205e-7),
        complex(7976.6763058791884, 12826.131120785631),
        complex(8084.1402500163303, 12387.562834758734)),
    "arg45_band4": (complex(2.8284271247461901, -2.8284271247461901),
        complex(-0.036178847899547611, -0.0021983992949725199),
        complex(-0.039166010769171331, -0.0053512964602774479),
        complex(-2.5634165572585798, -2.2926903226992998),
        complex(-2.5638216885610780, -1.8692484590318993)),
    "arg45_band8": (complex(5.6568542494923802, -5.6568542494923802),
        complex(0.0014858340685189625, -0.00036958395612595959),
        complex(0.0015669747999600444, -0.00032285704780772092),
        complex(20.973955610730256, 35.016725164881512),
        complex(21.673535103011481, 32.506861295691418)),
    "cross_hi": (complex(12.091525958289963, -12.091525958289963),
        complex(1.6841770671958089e-6, -1.4708065068328088e-7),
        complex(1.7219529408009261e-6, -1.1598836426858910e-7),
        complex(11113.799596770572, 13252.198221012574),
        complex(11164.132408446211, 12743.738035557414)),
    "deep": (complex(84.852813742385703, -84.852813742385703),
        complex(-1.4696296427449719e-38, -6.5943447656500020e-39),
        complex(-1.4720223198745875e-38, -6.6569457672041877e-39),
        complex(-2.4175738721410021e+35, -9.2000884237739578e+34),
        complex(-2.4131697880599434e+35, -9.1015433342172570e+34)),
    "tiny": (complex(0.00010000000000000000, 0.0),
        complex(9.3262719134502749, 0.0),
        complex(9999.9995086864050, 0.0),
        complex(1.0000000025000000, 0.0),
        complex(5.0000000062500000e-5, 0.0)),
    "imag5": (complex(0.0, 5.0000000000000000),
        complex(0.48461835249266671, 0.27896835603119587),
        complex(0.51456010606331361, 0.23226288250728622),
        complex(-0.17759677131433830, 0.0),
        complex(0.0, -0.32757913759146522)),
    "imag25": (complex(0.0, 25.000000000000000),
        complex(0.19988294079332003, -0.15121550956223539),
        complex(0.19689971160354291, -0.15524174565877831),
        complex(0.096266783275958116, 0.0),
        complex(0.0, -0.12535024958028990)),
    "near_imag": (complex(0.30000000000000000, 29.900000000000000),
        complex(0.12540622426718921, 0.11444303334344864),
        complex(0.12735746181509281, 0.11238223737462836),
        complex(-0.10207773974399789, -0.033485628236850969),
        complex(-0.028647943478074417, -0.11503832953911967)),
}

# name: (z, e^z K0, e^z K1, e^-z I0, e^-z I1)  [scaled]
BESSEL_REFERENCE_SCALED = {
    "one": (complex(1.0000000000000000, 0.0),
        complex(1.1444630798068950, 0.0),
        complex(1.6361534862632582, 0.0),
        complex(0.46575960759364044, 0.0),
        complex(0.20791041534970845, 0.0)),
    "half": (complex(0.50000000000000000, 0.0),
        complex(1.5241093857739095, 0.0),
        complex(2.7310097082117857, 0.0),
        complex(0.64503527044915007, 0.0),
        complex(0.15642080318487170, 0.0)),
    "arg45_mid": (complex(1.4420735695518450, -1.4420735695518450),
        complex(0.78833118295814645, 0.29681059835767216),
        complex(0.87648685103335879, 0.46641223514604764),
        complex(0.25871685527781663, 0.14096510773920067),
        complex(0.24920034141173993, 0.036196558694088481)),
    "arg45_small": (complex(0.0014420735695518450, -0.0014420735695518450),
        complex(6.3212671554522870, 0.77740904868609744),
        complex(347.71819061753885, 346.72658565905845),
        complex(0.99855792892638128, 0.0014389567043650803),
        complex(0.00072103491298361010, -0.00071895908290821268)),
    "generic": (complex(3.0000000000000000, 4.0000000000000000),
        complex(0.49801908846673846, -0.23801027470488778),
        complex(0.51024502993285216, -0.29012155126693844),
        complex(0.16028665643409430, -0.084740300622581514),
        complex(0.15753910490031256, -0.065786923603761457)),
    "cross_lo": (complex(11.950104602052653, -11.950104602052653),
        complex(0.28077663022249378, 0.11465334123771627),
        complex(0.28429555482428099, 0.12280622346480408),
        complex(0.089920608210121462, 0.037822669642881929),
        complex(0.088849818967381907, 0.035110052294032435)),
    "arg45_band4": (complex(2.8284271247461901, -2.8284271247461901),
        complex(0.57087439328969065, 0.22395718706235093),
        complex(0.60252204512501331, 0.29027579071456832),
        complex(0.18589071127612197, 0.082243567711848191),
        complex(0.17820311964567638, 0.058425619486211855)),
    "arg45_band8": (complex(5.6568542494923802, -5.6568542494923802),
        complex(0.40659627185805798, 0.16359852606740645),
        complex(0.41757345996218697, 0.18804976470963074),
        complex(0.13107126547621602, 0.056159737475396801),
        complex(0.12791163285051057, 0.047623300719033413)),
    "cross_hi": (complex(12.091525958289963, -12.091525958289963),
        complex(0.27914039906333587, 0.11400356826591593),
        complex(0.28259709521558880, 0.12201585569403650),
        complex(0.089390280402478739, 0.037592596981820464),
        complex(0.088337857105138265, 0.034928131508924408)),
    "deep": (complex(84.852813742385703, -84.852813742385703),
        complex(0.10565653752380998, 0.043673756452695900),
        complex(0.10583952761677424, 0.044112811103108978),
        complex(0.033660552316269069, 0.013971885677412013),
        complex(0.033602667777969813, 0.013831254075460427)),
    "tiny": (complex(0.00010000000000000000, 0.0),
        complex(9.3272045872745339, 0.0),
        complex(10000.999558638938, 0.0),
        complex(0.99990000749958335, 0.0),
        complex(4.9995000312485417e-5, 0.0)),
    "imag5": (complex(0.0, 5.0000000000000000),
        complex(0.40497742944484066, -0.38557952860558317),
        complex(0.36868376037757823, -0.42753997962334525),
        complex(-0.050377488282238014, -0.17030185511511714),
        complex(0.31412358690967222, -0.092921814081353922)),
    "imag25": (complex(0.0, 25.000000000000000),
        complex(0.17811089562539064, -0.17634009530414116),
        complex(0.17462103107036609, -0.17993607624005095),
        complex(0.095419906272181299, 0.012741077242856085),
        complex(0.016590324907144008, -0.12424751985177155)),
    "near_imag": (complex(0.30000000000000000, 29.900000000000000),
        complex(0.16353318230702982, -0.16055379520349120),
        complex(0.16090003398789874, -0.16333628576710263),
        complex(0.020622200672974668, -0.076867701201152741),
        complex(0.083930320499305523, -0.025864772859602441)),
    "extreme": (complex(700.00000000000000, 0.0),
        complex(0.047362369454613572, 0.0),
        complex(0.047396187653494544, 0.0),
        complex(0.015081295651531358, 0.0),
        complex(0.015070519444716847, 0.0)),
}

# K1(z) - 1/z (pole-removed remainder)
BESSEL_K1M_REFERENCE = {
    "one": (complex(1.0, 0.0), complex(-0.39809276980276543, 0.0)),
    "half": (complex(0.5, 0.0), complex(-0.34355887999669911, 0.0)),
    "arg45_mid": (complex(1.4420735695518450, -1.4420735695518450),
                  complex(-0.42948557621056743, -0.12704755615675448)),
    "arg45_small": (complex(0.0014420735695518450, -0.0014420735695518450),
                    complex(-0.0054773024263130650, 0.0043447061620007103)),
    "generic": (complex(3.0, 4.0),
                complex(-0.12567342040132331, 0.18866693657900782)),
    "arg45_band4": (complex(2.8284271247461901, -2.8284271247461901),
                    complex(-0.21594270606580821, -0.18212799175691433)),
    "arg45_band8": (complex(5.6568542494923802, -5.6568542494923802),
                    complex(-0.086821372848358396, -0.088711204696126161)),
    "cross_lo": (complex(11.950104602052653, -11.950104602052653),
                 complex(-0.041838681137713353, -0.041841051969113920)),
    "tiny": (complex(0.0001, 0.0), complex(-0.00049131359504274675, 0.0)),
    "imag5": (complex(0.0, 5.0),
              complex(0.51456010606331361, 0.43226288250728622)),
}

FUNCS = (bessel_k0, bessel_k1, bessel_i0, bessel_i1)


def k1_minus_pole(z):
    """K1(z) - 1/z as the flow reads it: the second value of bessel_k_pair."""
    return bessel_k_pair(z)[1]


def rel(x, ref):
    return abs(x - ref) / abs(ref)


@pytest.mark.parametrize("name", sorted(BESSEL_REFERENCE))
def test_unscaled_reference(name):
    z, *refs = BESSEL_REFERENCE[name]
    for fn, ref in zip(FUNCS, refs):
        assert rel(fn(z), ref) < 2e-14, fn.__name__


@pytest.mark.parametrize("name", sorted(BESSEL_REFERENCE_SCALED))
def test_scaled_reference(name):
    z, *refs = BESSEL_REFERENCE_SCALED[name]
    for fn, ref in zip(FUNCS, refs):
        got = fn(z, scaled=True)
        # at z = 700 the imaginary part of scaled I underflows to zero
        assert abs(got - ref) < 2e-14 * abs(ref), fn.__name__


@pytest.mark.parametrize("name", sorted(BESSEL_K1M_REFERENCE))
def test_pole_removed_reference(name):
    z, ref = BESSEL_K1M_REFERENCE[name]
    assert rel(k1_minus_pole(z), ref) < 2e-14


def test_pole_removed_matches_subtraction_at_moderate_z():
    # direct K1 - 1/z is well conditioned once |z| ~ 1; the pair's
    # pole-free value must agree with it there
    for z in (1.0 + 0.5j, 2.0 - 2.0j, 0.5 + 0j, 3.0 + 4.0j):
        direct = bessel_k1(z) - 1.0 / z
        assert abs(k1_minus_pole(z) - direct) < 1e-13 * abs(direct)


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------

def _sample_points(n, seed, lo=1e-3, hi=30.0, phi_max=0.5 * math.pi):
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        radius = lo * (hi / lo) ** rng.random()
        phi = rng.uniform(-phi_max, phi_max)
        pts.append(cmath.rect(radius, phi))
    return pts


def test_wronskian_sweep():
    # K0(z) I1(z) + K1(z) I0(z) = 1/z on 200 moduli in [1e-3, 30] over
    # the whole domain |arg z| <= pi/2
    worst = 0.0
    for z in _sample_points(200, seed=20240817):
        w = bessel_k0(z) * bessel_i1(z) + bessel_k1(z) * bessel_i0(z)
        worst = max(worst, abs(w * z - 1.0))
    assert worst < 1e-12


def test_derivative_identities_fd():
    # dK0/dz = -K1 and dK1/dz = -K0 - K1/z via central differences
    for z in _sample_points(40, seed=7, lo=0.05, hi=25.0):
        h = 1e-6 * abs(z)
        dk0 = (bessel_k0(z + h) - bessel_k0(z - h)) / (2.0 * h)
        dk1 = (bessel_k1(z + h) - bessel_k1(z - h)) / (2.0 * h)
        ref0 = -bessel_k1(z)
        ref1 = -bessel_k0(z) - bessel_k1(z) / z
        assert abs(dk0 - ref0) < 1e-7 * max(1.0, abs(ref0))
        assert abs(dk1 - ref1) < 1e-7 * max(1.0, abs(ref1))


# x >= 0.3 keeps clear of the I0/I1 zeros on the imaginary axis, where a
# relative comparison is meaningless
@given(st.floats(min_value=0.3, max_value=25.0),
       st.floats(min_value=0.01, max_value=25.0))
@settings(max_examples=150)
def test_conjugate_symmetry(x, y):
    z = complex(x, y)
    for fn in FUNCS:
        assert abs(fn(z.conjugate()) - fn(z).conjugate()) <= 1e-14 * abs(fn(z))


@given(st.floats(min_value=0.1, max_value=200.0),
       st.floats(min_value=-0.5 * math.pi, max_value=0.5 * math.pi))
@settings(max_examples=200)
def test_scaled_unscaled_consistency(radius, phi):
    z = cmath.rect(radius, phi)
    # keep e^{+-z} and the e^{-2z} term of scaled I representable
    if abs(z.real) > 250.0:
        return
    for fn, sign in ((bessel_k0, -1), (bessel_k1, -1),
                     (bessel_i0, +1), (bessel_i1, +1)):
        unscaled = fn(z)
        rebuilt = fn(z, scaled=True) * cmath.exp(sign * z)
        if unscaled == 0 or not cmath.isfinite(unscaled):
            continue
        assert abs(rebuilt - unscaled) < 5e-14 * abs(unscaled)


def test_branch_agreement_at_crossover():
    # Temme's series (below |z| = _TEMME_RADIUS) and the trapezoidal rule
    # (above) must agree where K hands over
    from oscylinder.bessel import _temme, _trapezoid
    for phi in (-math.pi / 4, 0.0, math.pi / 3, -1.4):
        z = cmath.rect(_TEMME_RADIUS, phi)
        k0, k1m = _temme(z)
        k1 = k1m + 1.0 / z
        k0s, k1s = _trapezoid(z)
        ez = cmath.exp(-z)
        assert abs(k0s * ez - k0) < 5e-14 * abs(k0)
        assert abs(k1s * ez - k1) < 5e-14 * abs(k1)


def test_k_never_runs_miller():
    # K never needs I: the kernel has no Miller recurrence, and K returns
    # Temme's series (|z| < _TEMME_RADIUS) or the trapezoidal rule (above),
    # bitwise: the cache holds Temme's unscaled values or the rule's scaled
    # ones, and the other form is one exponential away
    from oscylinder import bessel
    from oscylinder.bessel import _temme, _trapezoid

    assert not hasattr(bessel, "_miller")
    bessel._k_values.cache_clear()
    ray = [cmath.rect(r, -math.pi / 4)
           for r in (1e-8, 0.5, _TEMME_RADIUS - 0.01, _TEMME_RADIUS, 4.0, 7.0,
                     8.0, 17.0)]
    others = [cmath.rect(r, phi) for r in (0.3, 3.0, 16.0)
              for phi in (0.0, math.pi / 3, -1.4, math.pi / 2)]
    for z in ray + others:
        if abs(z) < _TEMME_RADIUS:
            k0, k1m = _temme(z)
            k1 = k1m + 1.0 / z
            k0s, k1s = k0 * cmath.exp(z), k1 * cmath.exp(z)
        else:
            k0s, k1s = _trapezoid(z)
            k0, k1 = k0s * cmath.exp(-z), k1s * cmath.exp(-z)
            k1m = k1 - 1.0 / z
        assert bessel_k0(z) == k0
        assert bessel_k1(z) == k1
        assert bessel_k0(z, scaled=True) == k0s
        assert bessel_k1(z, scaled=True) == k1s
        assert k1_minus_pole(z) == k1m


def test_small_argument_limits():
    # K0 -> -ln(z/2) - gamma and K1 -> 1/z as z -> 0; the truncation of
    # the K1 limit is O(|z|^2 ln|z|), so |z| <~ 1e-4 keeps it below 1e-6.
    # K1 - 1/z -> (z/2)(ln(z/2) + gamma - 1/2) with O(|z|^2) relative
    # error.  At 1e-150 on the flow ray, powers of z^2/4 underflow inside
    # the series.
    gamma = 0.5772156649015329
    for z in (1e-4 + 0j, 1e-4 - 1e-4j, 5e-5j, cmath.rect(1e-150, -math.pi / 4)):
        k0_lim = -cmath.log(z / 2.0) - gamma
        assert rel(bessel_k0(z), k0_lim) < 1e-6
        assert rel(bessel_k1(z), 1.0 / z) < 1e-6
        k1m_lim = 0.5 * z * (cmath.log(z / 2.0) + gamma - 0.5)
        assert rel(k1_minus_pole(z), k1m_lim) < 1e-6


# log10 |z| from -3 to log10(17): both branches of K, and the I reference's
# Miller branch
@given(st.floats(min_value=-3.0, max_value=math.log10(17.0)),
       st.floats(min_value=-0.5 * math.pi, max_value=0.5 * math.pi))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_mpmath(log_radius, phi):
    z = cmath.rect(10.0 ** log_radius, phi)
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        k0, k1 = mpmath.besselk(0, zm), mpmath.besselk(1, zm)
        i0, i1 = mpmath.besseli(0, zm), mpmath.besseli(1, zm)
        refs = ((bessel_k0, k0, 1.0), (bessel_k1, k1, 1.0),
                (k1_minus_pole, k1 - 1 / zm, 1.0),
                # relative condition numbers |z I_n'(z)/I_n(z)|: I0 and I1
                # have zeros on the imaginary axis, where no double-precision
                # evaluation keeps relative accuracy; the bound widens only
                # where the conditioning exceeds 10
                (bessel_i0, i0, abs(zm * i1 / i0)),
                (bessel_i1, i1, abs(zm * i0 / i1 - 1)))
        for fn, ref, kappa in refs:
            got = fn(z)
            err = abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref)
            assert err < 2e-14 * max(1.0, float(kappa) / 10.0), fn.__name__


# K on 2 <= |z| < 3, |arg z| <= pi/2, against the kernel's 2e-14: Temme's
# series below _TEMME_RADIUS, the trapezoidal rule above.  Temme's
# cancellation grows with |z|: near the real axis its K0 error passes 2e-14
# from about |z| = 2.83 and reaches 2.4e-14 at the example point, so the
# crossover sits lower.
@given(st.floats(min_value=2.0, max_value=3.0, exclude_max=True),
       st.floats(min_value=-0.5 * math.pi, max_value=0.5 * math.pi))
@example(2.9325030776005447, 0.11613561330857913)
@settings(max_examples=100, deadline=None)
def test_k_matches_mpmath_around_temme_crossover(radius, phi):
    from oscylinder.bessel import _k_values, _temme
    z = cmath.rect(radius, phi)
    k0, k1m = bessel_k_pair(z)
    if radius < _TEMME_RADIUS:
        assert (k0, k1m) == _k_values(z) == _temme(z)
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        ref0, ref1 = mpmath.besselk(0, zm), mpmath.besselk(1, zm)
        for got, ref in ((k0, ref0), (bessel_k1(z), ref1), (k1m, ref1 - 1 / zm)):
            assert abs(mpmath.mpc(got.real, got.imag) - ref) < 2e-14 * abs(ref)


# ----------------------------------------------------------------------
# precomputed kernel factors
# ----------------------------------------------------------------------

def test_temme_rows_are_correctly_rounded():
    # each row (H_k, 1/k!^2, (H_k + H_{k+1})/2, 1/(k! (k+1)!)) is its exact
    # rational rounded once to the nearest float
    from fractions import Fraction
    from oscylinder.bessel import _TEMME_ROWS
    harmonic = [sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))
                for k in range(len(_TEMME_ROWS) + 1)]
    for k, row in enumerate(_TEMME_ROWS):
        fk, fk1 = math.factorial(k), math.factorial(k + 1)
        exact = (harmonic[k], Fraction(1, fk * fk),
                 (harmonic[k] + harmonic[k + 1]) / 2, Fraction(1, fk * fk1))
        assert row == tuple(float(v) for v in exact), k


def test_temme_term_table_covers_the_series_region():
    from oscylinder.bessel import _TEMME_ROWS, _TEMME_TERMS
    bounds = [bound for bound, _ in _TEMME_TERMS]
    assert bounds == sorted(bounds)
    assert bounds[-1] >= _TEMME_RADIUS ** 2 / 4
    assert len(_TEMME_TERMS[-1][1]) == len(_TEMME_ROWS)
    for bound, rows in _TEMME_TERMS:
        assert rows == _TEMME_ROWS[len(rows) - 1::-1]
        # the smallest n whose first omitted term bound^n/n!^2 (6 + H_n)
        # falls below 2^-56
        n = 1
        while not bound ** n / math.factorial(n) ** 2 * (6.0 + sum(
                1.0 / j for j in range(1, n + 1))) < 2.0 ** -56:
            n += 1
        assert len(rows) == n, bound


def _temme_bound_points():
    from oscylinder.bessel import _TEMME_TERMS
    bounds = [bound for bound, _ in _TEMME_TERMS]
    radii = [2.0 * math.sqrt(b * (1.0 - 1e-9)) for b in bounds]
    radii += [2.0 * math.sqrt(b * (1.0 + 1e-9)) for b in bounds[:-1]]
    return [(r, phi) for r in radii
            for phi in (-math.pi / 2, -math.pi / 4, 0.0, 0.1161, math.pi / 3, math.pi / 2)]


@pytest.mark.parametrize("radius, phi", _temme_bound_points())
def test_temme_matches_mpmath_at_term_table_bounds(radius, phi):
    # just inside each |z^2/4| bound of the term table the series runs with
    # the fewest terms for that |x|; just outside, with the next count
    from oscylinder.bessel import _temme
    z = cmath.rect(radius, phi)
    k0, k1m = _temme(z)
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        ref0 = mpmath.besselk(0, zm)
        ref1 = mpmath.besselk(1, zm) - 1 / zm
        for got, ref in ((k0, ref0), (k1m, ref1)):
            assert abs(mpmath.mpc(got.real, got.imag) - ref) < 2e-14 * abs(ref)


def test_temme_refuses_beyond_its_table():
    from oscylinder.bessel import _TEMME_TERMS, _temme
    with pytest.raises(ArithmeticError):
        _temme(complex(2.0 * math.sqrt(_TEMME_TERMS[-1][0] * (1.0 + 1e-9)), 0.0))


def test_trapezoid_nodes_are_built_by_documented_operations():
    # per band of |z| (below 4, below 8 and above) the step h, the half weight
    # h/2 of the node s = 0, and for s = j h <= 6.2, j >= 1, the row
    # (s^2/2, h e^{-s^2}, 2 s^2 h e^{-s^2}) with s^2 = (j h)(j h)
    from oscylinder.bessel import _TRAPEZOID_BANDS
    assert [b[0] for b in _TRAPEZOID_BANDS] == [4.0, 8.0, math.inf]
    for (bound, half, rows), h, nodes in zip(_TRAPEZOID_BANDS, (0.25, 0.34, 0.44),
                                             (25, 19, 15)):
        assert half == complex(0.5 * h, 0.0)
        want = []
        for j in range(1, nodes):
            s2 = (j * h) * (j * h)
            w = h * math.exp(-s2)
            want.append((0.5 * s2, w, 2.0 * s2 * w))
        assert list(rows) == want, bound
        # the rule stops at the last node with s <= 6.2; the first node past
        # it weighs below 1e-15 of the K1 integral int_0^inf s^2 e^{-s^2} ds
        # = sqrt(pi)/4, and less of the K0 one
        assert (nodes - 1) * h <= 6.2 < nodes * h
        s2 = (nodes * h) ** 2
        assert 2.0 * s2 * h * math.exp(-s2) < 1e-15 * math.sqrt(math.pi) / 4


# the trapezoidal rule on 2.5 <= |z| <= 17, |arg z| <= pi/2, scaled and
# unscaled, against the kernel's 2e-14; the examples straddle the step
# changes at |z| = 4 and 8 and lie on the imaginary axis, where the
# integrands' singularities s = +-i sqrt(2z) come nearest the real line
@given(st.floats(min_value=_TEMME_RADIUS, max_value=17.0),
       st.floats(min_value=-0.5 * math.pi, max_value=0.5 * math.pi))
@example(_TEMME_RADIUS, 0.5 * math.pi)
@example(4.0 - 1e-12, 0.5 * math.pi)
@example(4.0, 0.5 * math.pi)
@example(4.0 - 1e-12, -0.5 * math.pi)
@example(4.0, -0.25 * math.pi)
@example(8.0 - 1e-12, -0.5 * math.pi)
@example(8.0, -0.5 * math.pi)
@example(8.0 - 1e-12, 0.5 * math.pi)
@example(8.0, -0.25 * math.pi)
@example(17.0, -0.5 * math.pi)
@settings(max_examples=200, deadline=None)
def test_trapezoid_matches_mpmath(radius, phi):
    from oscylinder.bessel import _k_values, _trapezoid
    z = cmath.rect(radius, phi)
    k0s, k1s = _trapezoid(z)
    if abs(z) >= _TEMME_RADIUS:  # cmath.rect may round |z| below 2.5
        assert _k_values(z) == (k0s, k1s)
    k0, k1, k1m = bessel_k0(z), bessel_k1(z), k1_minus_pole(z)
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        ref0, ref1 = mpmath.besselk(0, zm), mpmath.besselk(1, zm)
        ez = mpmath.exp(zm)
        for got, ref in ((k0s, ref0 * ez), (k1s, ref1 * ez), (k0, ref0),
                         (k1, ref1), (k1m, ref1 - 1 / zm)):
            assert abs(mpmath.mpc(got.real, got.imag) - ref) < 2e-14 * abs(ref)


# the rule past 17, where no other algorithm takes over: |z| log-uniform on
# [17, 1e6], |arg z| <= pi/2, scaled, and unscaled while Re z <= 700 keeps
# K a normal double, against the kernel's 2e-14
@given(st.floats(min_value=math.log10(17.0), max_value=6.0),
       st.floats(min_value=-0.5 * math.pi, max_value=0.5 * math.pi))
@example(math.log10(17.0), 0.5 * math.pi)
@example(6.0, -0.25 * math.pi)
@example(6.0, -0.5 * math.pi)
@settings(max_examples=200, deadline=None)
def test_trapezoid_matches_mpmath_past_17(log_radius, phi):
    z = cmath.rect(10.0 ** log_radius, phi)
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        ref0, ref1 = mpmath.besselk(0, zm), mpmath.besselk(1, zm)
        ez = mpmath.exp(zm)
        pairs = [(bessel_k0(z, scaled=True), ref0 * ez),
                 (bessel_k1(z, scaled=True), ref1 * ez),
                 (k1_minus_pole(z), ref1 - 1 / zm)]
        if z.real <= 700.0:
            pairs += [(bessel_k0(z), ref0), (bessel_k1(z), ref1)]
        for got, ref in pairs:
            assert abs(mpmath.mpc(got.real, got.imag) - ref) < 2e-14 * abs(ref)


@pytest.mark.parametrize("radius", [1e10, 1e100, 1e300])
@pytest.mark.parametrize("phi", [-math.pi / 2, -math.pi / 4, 0.0, 1.1, math.pi / 2])
def test_scaled_k_matches_two_term_expansion(radius, phi):
    # e^z K_nu(z) = sqrt(pi/(2z)) (1 + (4 nu^2 - 1)/(8z) + O(z^-2)): at
    # |z| >= 1e10 the dropped terms are below 1e-20, so two terms in mpmath
    # are the reference (the rule measured within 4e-16 of it)
    z = cmath.rect(radius, phi)
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        pref = mpmath.sqrt(mpmath.pi / (2 * zm))
        for fn, mu in ((bessel_k0, 0), (bessel_k1, 4)):
            ref = pref * (1 + (mu - 1) / (8 * zm))
            got = fn(z, scaled=True)
            assert abs(mpmath.mpc(got.real, got.imag) - ref) < 2e-14 * abs(ref)


@pytest.mark.parametrize("z", [cmath.rect(1.28e308, -math.pi / 4),
                               cmath.rect(1.7e308, -0.3), cmath.rect(1.79e308, 1.2)])
def test_scaled_k_matches_mpmath_at_the_edge_of_double_range(z):
    # past |z| ~ 1.27e308 off the axes 1.0 / w overflows inside the complex
    # division; the rule's 0.5 / (0.5 w) keeps e^z K0 and e^z K1 accurate
    # up to the largest double, on the flow's ray and off it
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        ez = mpmath.exp(zm)
        ref0, ref1 = mpmath.besselk(0, zm) * ez, mpmath.besselk(1, zm) * ez
        for got in ((bessel_k0(z, scaled=True), bessel_k1(z, scaled=True)),
                    bessel_k_pair(z, scaled=True)):
            for g, ref in zip(got, (ref0, ref1)):
                assert abs(mpmath.mpc(g.real, g.imag) - ref) < 1e-15 * abs(ref)


@pytest.mark.parametrize("z", [cmath.rect(1.28e308, -math.pi / 4),
                               cmath.rect(1.5e308, -math.pi / 4), cmath.rect(1.79e308, 1.2)])
def test_unscaled_pair_keeps_minus_one_over_z_at_the_edge_of_double_range(z):
    # K0 and K1 underflow to 0 here, so K1 - 1/z is -1/z, a subnormal that
    # 1.0 / z, overflowing inside the complex division, would return as 0
    k0, k1m = bessel_k_pair(z)
    assert k0 == 0
    with mpmath.workdps(40):
        ref = -1 / mpmath.mpc(z.real, z.imag)
        assert abs(mpmath.mpc(k1m.real, k1m.imag) - ref) < 1e-14 * abs(ref)


def _trapezoid_one_over_w(w):
    """The rule of bessel._trapezoid with its reciprocal formed as 1.0 / w."""
    from oscylinder.bessel import _TRAPEZOID_BANDS
    for bound, sum0, rows in _TRAPEZOID_BANDS:
        if abs(w) < bound:
            break
    u = 1.0 / w
    sum1 = 0j
    for hs2, w0, w1 in rows:
        q = cmath.sqrt(1.0 + hs2 * u)
        sum0 += w0 / q
        sum1 += w1 * q
    p = cmath.sqrt(2.0 * u)
    return p * sum0, p * sum1


def test_trapezoid_reciprocal_is_one_over_w_on_the_flow_ray():
    # on the flow's ray w = j- x, with x log-uniform on [2.5, 1e307], the
    # rule's 0.5 / (0.5 w) gives every value the bits of 1.0 / w
    from oscylinder import J_MINUS
    from oscylinder.bessel import _trapezoid
    rng = random.Random(31)
    for _ in range(3000):
        w = J_MINUS * 10.0 ** rng.uniform(math.log10(_TEMME_RADIUS), 307.0)
        assert repr(_trapezoid(w)) == repr(_trapezoid_one_over_w(w)), w


def test_k_has_two_algorithms():
    # the asymptotic expansion and its 17 crossover are gone: past 17 the
    # scaled pair is the trapezoidal rule's, bitwise
    import oscylinder
    from oscylinder import bessel
    from oscylinder.bessel import _trapezoid
    for name in ("_asym_sum", "_asym_k_scaled", "_ASYM_FACTORS", "SERIES_RADIUS"):
        assert not hasattr(bessel, name), name
    assert not hasattr(oscylinder, "SERIES_RADIUS")
    for radius in (17.001, 400.0, 1e6):
        z = cmath.rect(radius, -math.pi / 4)
        assert bessel_k_pair(z, scaled=True) == _trapezoid(z)


def test_recurrence_i():
    # I0'(z) = I1(z) via central differences
    for z in (0.7 + 0.2j, 2.0 - 1.0j, 5.0 + 5.0j):
        h = 1e-6 * abs(z)
        d = (bessel_i0(z + h) - bessel_i0(z - h)) / (2.0 * h)
        assert abs(d - bessel_i1(z)) < 1e-7 * abs(bessel_i1(z))


# ----------------------------------------------------------------------
# domain and overflow policy
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [0j, complex(-2.0, 0.0), complex(-0.5, -0.0),
                                 complex(float("inf"), 0.0),
                                 complex(float("nan"), 1.0),
                                 complex(-3.0, 1.0), complex(-1e-300, -5.0)])
def test_domain_errors(bad):
    # every finite z with Re z < 0 is refused by name, not only the cut
    match = "left half-plane" if bad.real < 0.0 else None
    for fn in FUNCS:
        with pytest.raises(BesselDomainError, match=match):
            fn(bad)
    for scaled in (False, True):
        with pytest.raises(BesselDomainError, match=match):
            bessel_k_pair(bad, scaled=scaled)


@pytest.mark.parametrize("bad", [complex(1.7e308, 1.7e308), complex(1.3e308, -1.3e308),
                                 complex(1e308, 1.5e308)])
def test_domain_errors_beyond_the_largest_double(bad):
    # a finite z whose |z| leaves double range is refused by name, with the
    # limit, not by a bare OverflowError from abs(z)
    match = r"\|z\| must not exceed the largest double, 1\.7976931348623157e\+308"
    for fn in (bessel_k0, bessel_k1):
        for scaled in (False, True):
            with pytest.raises(BesselDomainError, match=match):
                fn(bad, scaled=scaled)
    for scaled in (False, True):
        with pytest.raises(BesselDomainError, match=match):
            bessel_k_pair(bad, scaled=scaled)
    # |z| at the largest double itself is in the domain
    big = 1.7976931348623157e308
    for z in (complex(0.0, big), complex(big, 0.0)):
        assert cmath.isfinite(bessel_k0(z, scaled=True))
        assert cmath.isfinite(bessel_k_pair(z, scaled=True)[1])


def test_imaginary_axis_is_in_domain():
    # Re z = -0.0 is on the imaginary axis, not in the left half-plane:
    # it evaluates, to the values at Re z = +0.0
    z, zm = complex(0.0, 5.0), complex(-0.0, 5.0)
    for fn in FUNCS:
        for scaled in (False, True):
            assert fn(zm, scaled=scaled) == fn(z, scaled=scaled), fn.__name__
    for scaled in (False, True):
        assert bessel_k_pair(zm, scaled=scaled) == bessel_k_pair(z, scaled=scaled)


def test_domain_error_is_value_error():
    assert issubclass(BesselDomainError, ValueError)


def test_unscaled_overflow_policy():
    # e^{-z} flushes to zero for K, e^{z} overflows for I: both must
    # raise instead of silently returning junk
    with pytest.raises(OverflowError):
        bessel_k0(complex(746.0, 1.0))
    with pytest.raises(OverflowError):
        bessel_i0(complex(710.0, 1.0))
    with pytest.raises(OverflowError):
        bessel_i1(complex(710.0, 1.0))


@pytest.mark.parametrize("radius", [1e-6, 1.999, 2.0, 2.001, _TEMME_RADIUS - 1e-3,
                                    _TEMME_RADIUS, _TEMME_RADIUS + 1e-3, 16.999,
                                    17.0, 17.001, 60.0, 700.0])
@pytest.mark.parametrize("phi", [-math.pi / 2, -math.pi / 4, 0.0, 1.1, math.pi / 2])
def test_k_pair_matches_public_functions(radius, phi):
    # the flow brackets' pair is, bit for bit, what the public K0 and K1
    # give, on both sides of the switch at |z| = _TEMME_RADIUS and far
    # past it
    from oscylinder.bessel import _temme
    z = cmath.rect(radius, phi)
    k0, k1m = bessel_k_pair(z)
    assert k0 == bessel_k0(z)
    # K1 - 1/z: Temme's pole-free value below _TEMME_RADIUS, the direct
    # difference above
    assert k1m == (_temme(z)[1] if abs(z) < _TEMME_RADIUS
                   else bessel_k1(z) - 1.0 / z)
    assert bessel_k_pair(z, scaled=True) == (bessel_k0(z, scaled=True),
                                             bessel_k1(z, scaled=True))


def test_k_pair_unscaled_flushes_to_zero():
    # past Re z ~ 745 e^{-z} underflows: the pair flushes K0 to 0 (K1 - 1/z
    # to -1/z) where the public unscaled K0 raises
    z = complex(800.0, 1.0)
    with pytest.raises(OverflowError):
        bessel_k0(z)
    assert bessel_k_pair(z) == (0.0, -1.0 / z)


def test_scaled_reaches_extreme_arguments():
    for z in (complex(1e4, 0.0), complex(7e3, -7e3), complex(0.0, 1e4)):
        for fn in FUNCS:
            v = fn(z, scaled=True)
            assert cmath.isfinite(v)
            assert abs(v) < 10.0


def test_negative_imaginary_halfplane():
    # same reflection arithmetic as the flow argument ray (arg = -pi/4)
    z = complex(2.0, -3.0)
    for fn in FUNCS:
        assert abs(fn(z) - fn(z.conjugate()).conjugate()) <= 1e-14 * abs(fn(z))
