"""Correctness gate: compare unit outputs with an independent reference.

The reference is the 50-digit mpmath closed form in
``scripts/reference_values.py`` (class ``Case``), imported read-only.
Every comparison is written ``not err <= tol`` so that a NaN fails.

Each check returns a list of problems; an empty list means the unit is
correct.  A validate run under ``--mutate`` is a sensitivity probe: it
fails only if it exits 0, i.e. the self-check did not notice the
perturbation.  Exit 2 (the program refusing the input) is not a failure.
"""

from __future__ import annotations

import csv
import functools
import importlib.util
import math
import random
import sys

REFERENCE_PATH = "scripts/reference_values.py"


@functools.cache
def reference():
    """The reference module, loaded once and without writing bytecode."""
    spec = importlib.util.spec_from_file_location("reference_values",
                                                  REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))[1:]


def _exceeds(err, tol) -> bool:
    return not err <= tol


def check_force(unit, rc, out, rng) -> list[str]:
    if rc != 0:
        return [f"exit {rc}"]
    ref = reference()
    rows = _rows(out)
    problems = []
    if len(rows) != unit["rows"]:
        problems.append(f"{len(rows)} rows, expected {unit['rows']}")
    for row in rows:
        analytic, quadrature = float(row[1]), float(row[4])
        rel = abs(quadrature - analytic) / abs(analytic)
        if _exceeds(rel, 1e-9):
            problems.append(f"f={row[0]}: quadrature rel err {rel:.3e}")
    for row in rng.sample(rows, min(unit["samples"], len(rows))):
        case = ref.Case("bench", unit["a"], float(row[0]))
        exact = abs(case.force_analytic(0))
        rel = float(abs(ref.mpf(row[1]) - exact) / exact)
        if _exceeds(rel, 1e-12):
            problems.append(f"f={row[0]}: analytic |F| rel err {rel:.3e}")
    return problems


def check_field(unit, rc, out, rng) -> list[str]:
    if rc != 0:
        return [f"exit {rc}"]
    ref = reference()
    mp = ref.mp
    a, nx = unit["a"], unit["n"]
    rows = _rows(out)
    problems = []
    if len(rows) != nx * nx:
        problems.append(f"{len(rows)} rows, expected {nx * nx}")
    inside = sum(1 for iy in range(nx) for ix in range(nx)
                 if math.hypot(-4 * a + 8 * a * ix / (nx - 1),
                               -4 * a + 8 * a * iy / (nx - 1)) < a)
    masked = sum(1 for row in rows if row[2] == "1")
    if masked != inside:
        problems.append(f"{masked} masked rows, expected {inside}")
    case = ref.Case("bench", a, unit["f"])
    p_scale = abs(case.pressure(case.a, 0, 0))
    open_rows = [row for row in rows if row[2] == "0"]
    for row in rng.sample(open_rows, min(unit["samples"], len(open_rows))):
        x, y = ref.mpf(row[0]), ref.mpf(row[1])
        r, theta = mp.sqrt(x * x + y * y), mp.atan2(y, x)
        vr, vt = case.vr(r, theta, 0), case.vtheta(r, theta, 0)
        p = case.pressure(r, theta, 0)
        vx = vr * mp.cos(theta) - vt * mp.sin(theta)
        vy = vr * mp.sin(theta) + vt * mp.cos(theta)
        errs = {
            "re_p": abs(ref.mpf(row[3]) - p.real) / p_scale,
            "abs_p": abs(ref.mpf(row[4]) - abs(p)) / p_scale,
            "re_vx": abs(ref.mpf(row[5]) - vx.real) / case.v0,
            "re_vy": abs(ref.mpf(row[6]) - vy.real) / case.v0,
        }
        for name, err in errs.items():
            if _exceeds(float(err), 1e-12):
                problems.append(f"({row[0]}, {row[1]}): {name} err {float(err):.3e}")
    return problems


def check_profile(unit, rc, out, rng) -> list[str]:
    if rc != 0:
        return [f"exit {rc}"]
    ref = reference()
    rows = _rows(out)
    problems = []
    if len(rows) != unit["rows"]:
        problems.append(f"{len(rows)} rows, expected {unit['rows']}")
    case = ref.Case("bench", unit["a"], unit["f"])
    for row in rng.sample(rows, min(unit["samples"], len(rows))):
        r = ref.mpf(row[1])
        vr = abs(case.vr(r, 0, 0)) / case.v0
        vt = abs(case.vtheta(r, ref.pi / 2, 0)) / case.v0
        for name, got, exact in (("vr", row[3], vr), ("vtheta", row[4], vt)):
            err = float(abs(ref.mpf(got) - exact))
            if _exceeds(err, 1e-12):
                problems.append(f"r={row[1]}: |{name}|/v0 err {err:.3e}")
    return problems


def check_recovery(unit, rc, out, rng) -> list[str]:
    if rc != 0:
        return [f"exit {rc}"]
    ref = reference()
    case = ref.Case("bench", unit["a"], unit["f"])
    r90 = ref.mpf(out.strip())
    ratio = float(abs(case.vr(r90, 0, 0)) / case.v0)
    err = abs(ratio - unit["fraction"])
    if _exceeds(err, 1e-6):
        return [f"|v_r(r90, 0)|/v0 = {ratio!r}, off by {err:.3e}"]
    return []


def check_validate(unit, rc, out, rng) -> list[str]:
    lines = out.strip().splitlines()
    verdict = lines[-1] if lines else ""
    if unit.get("mutate") is None:
        if rc != 0 or verdict != "RESULT PASS":
            return [f"clean run: exit {rc}, {verdict!r}"]
        return []
    if rc == 0:
        return [f"--mutate {unit['mutate']} not detected: exit 0, {verdict!r}"]
    return []


CHECKS = {
    "force": check_force,
    "field": check_field,
    "profile": check_profile,
    "recovery_radius": check_recovery,
    "validate": check_validate,
}


def check_unit(unit, rc, out, seed: int) -> list[str]:
    """Problems found in one unit's output; samples are drawn from `seed`."""
    rng = random.Random(f"check-{seed}-{unit['check']}")
    return CHECKS[unit["check"]](unit, rc, out, rng)
