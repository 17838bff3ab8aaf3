"""Contract of the eleven record types: immutable named tuples that keep
the constructors, checks, reprs and value semantics the package's callers
rely on; and of the package's public names, which __all__ lists exactly.

The expected reprs and messages are the strings the records printed when
they were frozen dataclasses, so a change of record machinery that shows
through any of them fails here.
"""

import math
import os
import subprocess
import sys
import types

import pytest

import oscylinder
from oscylinder import (AIR_20C, Check, FlowState, Fluid, ForceResult,
                        Perturbation, PolarPoint, ResidualReport, Scenario,
                        StressTensor, ValidityReport, f_of_r, force_quadrature,
                        traction, validate_checks, velocity)
from oscylinder.cli import RunConfig

#: (fixed instance's field values, its repr) per record type
CASES = {
    Fluid: ((1.5e-05, 1.2), "Fluid(nu0=1.5e-05, rho0=1.2)"),
    Perturbation: (("B", 1.001), "Perturbation(coefficient='B', factor=1.001)"),
    PolarPoint: ((2e-06, 0.5), "PolarPoint(r=2e-06, theta=0.5)"),
    FlowState: ((1 + 2j, -0.5j, 3 + 0j),
                "FlowState(vr=(1+2j), vtheta=(-0-0.5j), p=(3+0j))"),
    Scenario: ((AIR_20C, 1e-06, 1.0, 62.83185307179586, None),
               "Scenario(fluid=Fluid(nu0=1.511e-05, rho0=1.204), a=1e-06, v0=1.0, "
               "omega=62.83185307179586, perturbation=None)"),
    ValidityReport: ((0.066, 0.002, 0.0007, None, False, True),
                     "ValidityReport(reynolds=0.066, frequency_parameter=0.002, "
                     "boundary_layer_thickness=0.0007, recovery_radius_90=None, "
                     "warn_nonlinear=False, warn_long_range=True)"),
    StressTensor: ((1j, 2 + 0j, -1j),
                   "StressTensor(pi_rr=1j, pi_rtheta=(2+0j), pi_thetatheta=(-0-1j))"),
    ForceResult: ((1j, 0j, "analytic"), "ForceResult(fx=1j, fy=0j, method='analytic')"),
    ResidualReport: ((PolarPoint(2e-06, 0.5), 0.0, 2e-10, False, 1e-09, 2e-09, 3e-09,
                      4e-09),
                     "ResidualReport(location=PolarPoint(r=2e-06, theta=0.5), t=0.0, "
                     "h=2e-10, one_sided=False, continuity=1e-09, momentum_r=2e-09, "
                     "momentum_theta=3e-09, pressure_laplacian=4e-09)"),
    Check: (("residual continuity max", 1e-09, 1e-06, True),
            "Check(name='residual continuity max', value=1e-09, tol=1e-06, ok=True)"),
    RunConfig: ((AIR_20C, 1e-06, 0.0, (10.0, 100.0), None, Perturbation("C", 1.001)),
                "RunConfig(fluid=Fluid(nu0=1.511e-05, rho0=1.204), a=1e-06, "
                "t=0.0, frequencies=(10.0, 100.0), out=None, "
                "perturbation=Perturbation(coefficient='C', factor=1.001))"),
}

records = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@records
def test_annotations_name_the_fields(cls):
    assert list(cls.__annotations__) == list(cls._fields)


@records
def test_positional_and_keyword_construction_agree(cls):
    values = CASES[cls][0]
    rec = cls(*values)
    assert rec == cls(**dict(zip(cls._fields, values)))
    assert [getattr(rec, name) for name in cls._fields] == list(values)


@records
def test_assignment_raises_attribute_error(cls):
    rec = cls(*CASES[cls][0])
    with pytest.raises(AttributeError):
        setattr(rec, cls._fields[0], CASES[cls][0][1])
    with pytest.raises(AttributeError):
        rec.extra = 1.0
    assert rec == cls(*CASES[cls][0])


@records
def test_equality_and_hash_go_by_value(cls):
    values = CASES[cls][0]
    rec, twin = cls(*values), cls(*values)
    assert rec is not twin and rec == twin and hash(rec) == hash(twin)
    i, v = next((i, v) for i, v in enumerate(values) if isinstance(v, (float, complex)))
    assert cls(*values[:i], 2 * v + 1, *values[i + 1:]) != rec
    # a named tuple also equals the plain tuple of its values
    assert rec == tuple(values)


@records
def test_repr_is_unchanged(cls):
    values, text = CASES[cls]
    assert repr(cls(*values)) == text


@records
def test_only_scenario_has_an_instance_dict(cls):
    rec = cls(*CASES[cls][0])
    assert hasattr(rec, "__dict__") == (cls is Scenario)


def test_scenario_perturbation_defaults_to_none():
    s = Scenario(AIR_20C, 1e-06, 1.0, 62.83185307179586)
    assert s.perturbation is None
    assert s == Scenario(AIR_20C, 1e-06, 1.0, 62.83185307179586, None)


def test_scenario_caches_coefficients_but_refuses_assignment():
    s = Scenario(AIR_20C, 1e-06, 1.0, 62.83185307179586)
    k = s._coefficients
    assert s._coefficients is k and s.__dict__ == {"_coefficients": k}
    for name in ("a", "_coefficients", "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(s, name, 1.0)
    # a replaced scenario starts without the old coefficient set
    assert s._replace(a=2e-06).__dict__ == {}


#: an int too large for a float, where math.isfinite raises OverflowError
HUGE = 10**309

BAD = [
    (Fluid, (-1.0, 1.2), "nu0 must be a positive finite number, got -1.0"),
    (Fluid, (1.5e-05, math.nan), "rho0 must be a positive finite number, got nan"),
    (Perturbation, ("x", 1.0),
     "coefficient must be one of ('B', 'C', 'f_a', 'beta'), got 'x'"),
    (Perturbation, ("B", 0.0), "factor must be a positive finite number, got 0.0"),
    (PolarPoint, (math.inf, 0.0), "PolarPoint components must be finite"),
    (PolarPoint, (1.0, math.nan), "PolarPoint components must be finite"),
    (Scenario, (AIR_20C, 0.0, 1.0, 1.0), "a must be a positive finite number, got 0.0"),
    (Scenario, (AIR_20C, 1.0, 1.0, -1.0),
     "omega must be a positive finite number, got -1.0"),
    (Scenario, (AIR_20C, 1.0, -1.0, 1.0), "v0 must be finite and >= 0, got -1.0"),
    (Scenario, (AIR_20C, 1.0, math.nan, 1.0), "v0 must be finite and >= 0, got nan"),
    # a str fluid and bool numbers are refused when built, not at first use
    (Scenario, ("air", 1e-6, 1.0, 628.0), "fluid must be a Fluid, got 'air'"),
    (Scenario, (AIR_20C, True, 1.0, 628.0), "a must be a positive finite number, got True"),
    (Scenario, (AIR_20C, 1e-6, True, 628.0), "v0 must be finite and >= 0, got True"),
    (Fluid, (True, True), "nu0 must be a positive finite number, got True"),
    (Perturbation, ("B", True), "factor must be a positive finite number, got True"),
    # an int too large for a float is refused by name, not with OverflowError
    (Scenario, (AIR_20C, HUGE, 1.0, 1.0), f"a must be a positive finite number, got {HUGE!r}"),
    (Scenario, (AIR_20C, 1.0, HUGE, 1.0), f"v0 must be finite and >= 0, got {HUGE!r}"),
    (Scenario, (AIR_20C, 1.0, 1.0, HUGE),
     f"omega must be a positive finite number, got {HUGE!r}"),
    (Fluid, (HUGE, 1.0), f"nu0 must be a positive finite number, got {HUGE!r}"),
    (Perturbation, ("B", HUGE), f"factor must be a positive finite number, got {HUGE!r}"),
    (PolarPoint, (HUGE, 0.0), "PolarPoint components must be finite"),
    (PolarPoint, (1.0, HUGE), "PolarPoint components must be finite"),
    # a str or bool component is refused by name, as Scenario refuses them
    (PolarPoint, ("1e-6", 0.5), "PolarPoint r must be an int or float, got '1e-6'"),
    (PolarPoint, (True, 0.5), "PolarPoint r must be an int or float, got True"),
    (PolarPoint, (1e-6, None), "PolarPoint theta must be an int or float, got None"),
]


@pytest.mark.parametrize("cls, args, message", BAD,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(BAD)])
def test_validation_messages_are_unchanged(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message
    # _replace goes through the same checks
    good = cls(*CASES[cls][0])
    with pytest.raises(ValueError) as info:
        good._replace(**dict(zip(cls._fields, args)))
    assert str(info.value) == message


def test_from_frequency_refuses_an_int_too_large_for_a_float():
    with pytest.raises(ValueError) as info:
        Scenario.from_frequency(AIR_20C, 1.0, 1.0, HUGE)
    assert str(info.value) == f"f must be a positive finite number, got {HUGE!r}"


@pytest.mark.parametrize("call, message", [
    (lambda s: velocity(s, PolarPoint(2e-6, 0.3), HUGE),
     f"time t = {HUGE!r} s is out of range (not finite)"),
    (lambda s: force_quadrature(s, HUGE),
     f"time t = {HUGE!r} s is out of range (not finite)"),
    (lambda s: validate_checks(s, HUGE),
     f"time t = {HUGE!r} s is out of range (not finite)"),
    (lambda s: traction(s, HUGE, 0.0),
     f"traction angle theta = {HUGE!r} rad is out of range (not finite)"),
    (lambda s: f_of_r(s, HUGE),
     f"field point radius {HUGE!r} is out of range (not finite)"),
    (lambda s: velocity(s, PolarPoint(2e-6, 0.3), math.nan),
     "time t = nan s is out of range (not finite)"),
    (lambda s: validate_checks(s, math.inf),
     "time t = inf s is out of range (not finite)"),
    (lambda s: force_quadrature(s, -math.inf),
     "time t = -inf s is out of range (not finite)"),
], ids=["velocity-t", "force_quadrature-t", "validate_checks-t", "traction-theta",
        "f_of_r-r", "velocity-t-nan", "validate_checks-t-inf",
        "force_quadrature-t-minus-inf"])
def test_time_angle_and_radius_beyond_double_range_are_refused(call, message):
    # compared, not converted: omega * t, math.cos and math.isfinite would
    # raise OverflowError on an int too large for a float; a NaN or infinite
    # t is refused by name before omega t is formed
    with pytest.raises(ValueError) as info:
        call(Scenario.from_frequency(AIR_20C, 1e-6, 1.0, 10.0))
    assert str(info.value) == message


def test_import_leaves_dataclasses_and_typing_unloaded():
    """Startup cost: the package imports none of these modules (the Bessel
    tables are built from int / int, not fractions or decimal).  -S keeps
    site hooks (which may preload typing) out of the measurement."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(oscylinder.__file__)))
    code = ("import sys, oscylinder.cli; print(sorted({'dataclasses', 'typing', "
            "'inspect', 'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"


def test_all_lists_exactly_the_public_names():
    names = oscylinder.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(oscylinder, name) for name in names)
    bound = {name for name, value in vars(oscylinder).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == bound
    assert len(names) == 37
    # reference routes that only the tests read live in the tests
    for name in ("continuity_pair", "radial_velocity_from_constants",
                 "bessel_k1_minus_pole", "far_field_velocity",
                 "far_field_pressure", "bessel_i0", "bessel_i1", "SERIES_RADIUS"):
        with pytest.raises(ImportError):
            exec(f"from oscylinder import {name}", {})
    with pytest.raises(ImportError):  # boundary_suite returns Check rows
        from oscylinder import BoundaryReport  # noqa: F401
