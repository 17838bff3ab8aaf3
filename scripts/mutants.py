"""Which `validate` rows catch which source defect: a table of mutants.

Run:  python scripts/mutants.py [SRC]

SRC is a directory holding the `oscylinder` package (a checkout's `src/`,
by default the one beside this script).  Each mutant is one edit, an
exact old text replaced by a new one in one module; the script checks
that every old text occurs exactly once in SRC before it runs anything,
then copies the package to a temporary directory once per mutant and
applies that mutant's edit there.  The unedited copy runs first, as
"clean".  Each copy runs `oscylinder validate --a 1e-3` in a fresh
interpreter at each beta a in BETA_A, and the script prints one JSON line
per (mutant, beta a) with the exit code and the rows that print FAIL.  It
exits 2 if an old text does not occur exactly once, 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

NU0_AIR = 15.11e-6  # kinematic viscosity of the default fluid
BETA_A = (1e-9, 1e-3, 1.0, 1e3, 1e7)
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

#: (name, module, old text, new text); factors are x1.001 unless stated
MUTANTS = (
    ("slopes B_r'", "flow.py",
     "return dbr + dwall, dbth + dwall",
     "return (dbr + dwall) * 1.001, dbth + dwall"),
    ("slopes pole term", "flow.py",
     "b * (k.pole * inv)",
     "b * (k.pole * inv * 1.001)"),
    ("P dipole c/rho -> c/rho^2", "flow.py",
     "pb = (rho + c / rho) + (c * k.g1) / rho",
     "pb = (rho + c / (rho * rho)) + (c * k.g1) / rho"),
    ("P rho term", "flow.py",
     "pb = (rho + c / rho) + (c * k.g1) / rho",
     "pb = (rho * 1.001 + c / rho) + (c * k.g1) / rho"),
    ("P g1 term", "flow.py",
     "pb = (rho + c / rho) + (c * k.g1) / rho",
     "pb = (rho + c / rho) + (c * k.g1) / rho * 1.001"),
    ("tail G/rho -> G/rho^1.001", "flow.py",
     "tail = b * gr / rho - (c * k.g1r) * inv2",
     "tail = b * gr / rho ** 1.001 - (c * k.g1r) * inv2"),
    ("B_theta K0 ratio", "flow.py",
     "b * (2.0 * k0r)) + tail - wall",
     "b * (2.0 * k0r * 1.001)) + tail - wall"),
    ("stress viscous shear", "forces.py",
     "sn * ph * (visc * (dbth - sum_b))",
     "sn * ph * (visc * (dbth - sum_b) * 1.001)"),
    ("closed form F_v", "forces.py",
     "return fb, fb * s._coefficients.g1",
     "return fb, fb * s._coefficients.g1 * 1.001"),
    ("residual stencil p at theta - h_theta x(1 + 1e-7)", "residuals.py",
     "pv * cw * ph,",
     "pv * cw * ph * (1.0 + 1e-7),"),
)


def _unique_sites(package: str) -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    problems = []
    for name, module, old, _ in MUTANTS:
        with open(os.path.join(package, module), encoding="utf-8") as fh:
            count = fh.read().count(old)
        if count != 1:
            problems.append(f"{name}: {module} holds its old text {count} times")
    return problems


def _copy(package: str, root: str, edit: tuple | None) -> str:
    """A copy of the package under root with edit applied; its source dir."""
    src = os.path.join(root, "src")
    shutil.copytree(package, os.path.join(src, "oscylinder"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        _, module, old, new = edit
        path = os.path.join(src, "oscylinder", module)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
    return src


def _validate(src: str, ba: float) -> tuple[int, list[str]]:
    """validate --a 1e-3 at beta a = ba: exit code and the FAIL rows' names."""
    f = (ba / 1e-3) ** 2 * NU0_AIR / (2.0 * math.pi)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "oscylinder.cli", "validate",
                           "--a", "1e-3", "--f", repr(f)],
                          env=env, capture_output=True, text=True, timeout=600)
    failing = [" ".join(line.split()[:2]) for line in proc.stdout.splitlines()
               if line.endswith(" FAIL") and not line.startswith("RESULT")]
    return proc.returncode, failing


def main(args: list[str]) -> int:
    if len(args) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    package = os.path.join(args[0] if args else SRC, "oscylinder")
    if not os.path.isdir(package):
        print(f"no oscylinder package in {os.path.dirname(package)}", file=sys.stderr)
        return 2
    problems = _unique_sites(package)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for k, edit in enumerate([None, *MUTANTS]):
            src = _copy(package, os.path.join(tmp, str(k)), edit)
            for ba in BETA_A:
                code, failing = _validate(src, ba)
                print(json.dumps({"mutant": edit[0] if edit else "clean", "ba": ba,
                                  "exit": code, "failing": failing}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
