"""Tests for the complex-argument modified Bessel kernel.

Expected values were computed with mpmath at 50 significant digits and
frozen here (scripts/reference_values.py regenerates them).  The point
set covers every evaluation branch (Temme series below |z| = 2, CF2
and Miller recurrence up to |z| = 17, asymptotic expansion above), the
arg(z) = -pi/4 ray the flow solution lives on, near-imaginary
arguments, and the deep-decay regime.  A hypothesis property compares
the |z| <= 17 kernel with mpmath at 40 digits.
"""

import cmath
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscylinder import (SERIES_RADIUS, BesselDomainError, bessel_i0,
                        bessel_i1, bessel_k0, bessel_k1,
                        bessel_k1_minus_pole)
from oscylinder.bessel import bessel_k_pair

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
    "cross_lo": (complex(11.950104602052653, -11.950104602052653),
                 complex(-0.041838681137713353, -0.041841051969113920)),
    "tiny": (complex(0.0001, 0.0), complex(-0.00049131359504274675, 0.0)),
    "imag5": (complex(0.0, 5.0),
              complex(0.51456010606331361, 0.43226288250728622)),
}

FUNCS = (bessel_k0, bessel_k1, bessel_i0, bessel_i1)


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
    assert rel(bessel_k1_minus_pole(z), ref) < 2e-14


def test_pole_removed_matches_subtraction_at_moderate_z():
    # direct K1 - 1/z is well conditioned once |z| ~ 1; the dedicated
    # function must agree with it there
    for z in (1.0 + 0.5j, 2.0 - 2.0j, 0.5 + 0j, 3.0 + 4.0j):
        direct = bessel_k1(z) - 1.0 / z
        assert abs(bessel_k1_minus_pole(z) - direct) < 1e-13 * abs(direct)


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
    # K0(z) I1(z) + K1(z) I0(z) = 1/z on 200 moduli in [1e-3, 30].
    # For Re z < 0 both products grow like exp(2|Re z|) while their sum
    # stays at 1/z, so the identity is only testable in double precision
    # where that amplification is modest: the right half-plane at any
    # modulus, plus the left half-plane at small modulus (checked below).
    worst = 0.0
    for z in _sample_points(200, seed=20240817):
        w = bessel_k0(z) * bessel_i1(z) + bessel_k1(z) * bessel_i0(z)
        worst = max(worst, abs(w * z - 1.0))
    assert worst < 1e-12


def test_wronskian_left_half_plane():
    # Same identity just off the branch cut; exp(2|Re z|) <= e^5 here
    rng = random.Random(11236)
    worst = 0.0
    for _ in range(60):
        radius = 1e-3 * 2500.0 ** rng.random()
        phi = rng.choice((-1.0, 1.0)) * rng.uniform(0.5 * math.pi, 0.999 * math.pi)
        z = cmath.rect(radius, phi)
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
       st.floats(min_value=-0.75 * math.pi, max_value=0.75 * math.pi))
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
    # Temme's series (below |z| = 2) and CF2 (above) must agree where K
    # hands over, and so must the |z| <= 17 kernel and the asymptotic
    # expansion (above 17)
    from oscylinder.bessel import _asym_k_scaled, _k_values, _steed, _temme
    for phi in (-math.pi / 4, 0.0, math.pi / 3, -1.4):
        z = cmath.rect(2.0, phi)
        k0, k1m = _temme(z)
        k1 = k1m + 1.0 / z
        k0s, k1s = _steed(z)
        ez = cmath.exp(-z)
        assert abs(k0s * ez - k0) < 5e-14 * abs(k0)
        assert abs(k1s * ez - k1) < 5e-14 * abs(k1)

        z = cmath.rect(17.0, phi)
        k0, k1, _ = _k_values(z)
        k0s, k1s = _asym_k_scaled(z)
        ez = cmath.exp(-z)
        assert abs(k0s * ez - k0) < 5e-14 * abs(k0)
        assert abs(k1s * ez - k1) < 5e-14 * abs(k1)


def test_k_runs_miller_only_to_reflect(monkeypatch):
    # K on Re z >= 0 never needs I: with Miller's recurrence disabled it
    # still returns Temme's series (|z| < 2) or CF2 (above), bitwise
    from oscylinder import bessel
    from oscylinder.bessel import _steed, _temme

    def no_miller(w):
        raise AssertionError("K used Miller's recurrence")

    monkeypatch.setattr(bessel, "_miller", no_miller)
    bessel._k_values.cache_clear()
    ray = [cmath.rect(r, -math.pi / 4) for r in (1e-8, 0.5, 1.99, 2.0, 7.0, 17.0)]
    others = [cmath.rect(r, phi) for r in (0.3, 3.0, 16.0)
              for phi in (0.0, math.pi / 3, -1.4, math.pi / 2)]
    for z in ray + others:
        if abs(z) < 2.0:
            k0, k1m = _temme(z)
            k1 = k1m + 1.0 / z
        else:
            k0s, k1s = _steed(z)
            k0, k1 = k0s * cmath.exp(-z), k1s * cmath.exp(-z)
            k1m = k1 - 1.0 / z
        assert bessel_k0(z) == k0
        assert bessel_k1(z) == k1
        assert bessel_k0(z, scaled=True) == k0 * cmath.exp(z)
        assert bessel_k1(z, scaled=True) == k1 * cmath.exp(z)
        assert bessel_k1_minus_pole(z) == k1m
    # the reflected branch is the one K path that still needs I
    with pytest.raises(AssertionError):
        bessel_k0(complex(-3.0, 1.0))


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
        assert rel(bessel_k1_minus_pole(z), k1m_lim) < 1e-6


# log10 |z| from -3 to log10(17): every branch of the |z| <= 17 kernel
@given(st.floats(min_value=-3.0, max_value=math.log10(SERIES_RADIUS)),
       st.floats(min_value=-0.5 * math.pi, max_value=0.5 * math.pi))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_mpmath(log_radius, phi):
    z = cmath.rect(10.0 ** log_radius, phi)
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        k0, k1 = mpmath.besselk(0, zm), mpmath.besselk(1, zm)
        i0, i1 = mpmath.besseli(0, zm), mpmath.besseli(1, zm)
        refs = ((bessel_k0, k0, 1.0), (bessel_k1, k1, 1.0),
                (bessel_k1_minus_pole, k1 - 1 / zm, 1.0),
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
                                 complex(float("nan"), 1.0)])
def test_domain_errors(bad):
    for fn in FUNCS:
        with pytest.raises(BesselDomainError):
            fn(bad)
    for scaled in (False, True):
        with pytest.raises(BesselDomainError):
            bessel_k_pair(bad, scaled=scaled)


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


@pytest.mark.parametrize("radius", [1e-6, 1.999, 2.0, 2.001, 16.999, 17.0,
                                    17.001, 60.0, 700.0])
@pytest.mark.parametrize("phi", [-math.pi / 2, -math.pi / 4, 0.0, 1.1, math.pi / 2])
def test_k_pair_matches_public_functions(radius, phi):
    # the flow brackets' pair is, bit for bit, what the public K0, K1 and
    # K1 - 1/z give, on both sides of the series switches at |z| = 2 and 17
    z = cmath.rect(radius, phi)
    assert bessel_k_pair(z) == (bessel_k0(z), bessel_k1_minus_pole(z))
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
