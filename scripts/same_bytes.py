"""Compare the CLI's bytes between two source trees.

Run:  python scripts/same_bytes.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the `oscylinder` package (a
checkout's `src/`).  Every run of a fixed argv list is made in a fresh
interpreter, once per tree, with that tree first on PYTHONPATH.  The
list covers the four default commands, bench-style `force` sweeps,
mutated `force` and `profile` runs, clean and mutated `validate` runs at
one beta*a every other decade from 1e-8 to 1e4, and runs at the edges
of the domain.  Every run whose exit code, stdout or stderr differs is
reported; the script exits 1 if any does, 0 otherwise.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

NU0_AIR = 15.11e-6  # kinematic viscosity of the default fluid
MUTATIONS = ("B:1.001", "C:1.001", "fa:1.001", "beta:1.001")


def _argv_list() -> list[list[str]]:
    runs = [["force"], ["field"], ["profile"], ["validate"]]
    # bench/run.py's force_sweep units for seeds 1..10
    for seed in range(1, 11):
        rng = random.Random(f"force_sweep-{seed}")
        a = 10.0 ** rng.uniform(math.log10(1e-6), math.log10(1e-4))
        runs.append(["force", "--a", repr(a), "--f-range", "1:1e4:200",
                     "--nodes", "512", "--jobs", "1"])
    for mutate in MUTATIONS:
        runs.append(["force", "--a", "1e-4", "--mutate", mutate])
        runs.append(["profile", "--a", "1e-3", "--f", "1000", "--mutate", mutate])
    beta = math.sqrt(2.0 * math.pi * 1000.0 / NU0_AIR)
    for decade in range(-8, 5, 2):
        argv = ["validate", "--a", repr(10.0 ** decade / beta), "--f", "1000"]
        runs.append(argv)
        runs += [[*argv, "--mutate", mutate] for mutate in MUTATIONS]
    edge = "-1.77e303:1.77e303:3"
    runs += [
        ["validate", "--a", "1e-20", "--f", "1e-270"],  # beta a ~ 6e-153
        ["validate", "--a", "1e-20", "--f", "1e-270", "--mutate", "B:1.001"],
        ["validate", "--a", "1e-150", "--f", "1e300"],
        ["force", "--a", "1e-158", "--f", "1"],
        ["force", "--a", "1e-160"],
        ["field", "--a", "1", "--f", "1e4", f"--grid={edge},{edge}"],  # |w| ~ 1.6e308
        ["field", "--a", "1e-300"],
    ]
    return runs


def _run(src: str, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "oscylinder.cli", *argv],
                          env=env, capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def _first_difference(old: bytes, new: bytes) -> str:
    a, b = old.splitlines(), new.splitlines()
    for n, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return f"line {n}: {x[:120]!r} -> {y[:120]!r}"
    return f"{len(a)} -> {len(b)} lines"


def main(args: list[str]) -> int:
    if len(args) != 2 or not all(os.path.isdir(os.path.join(d, "oscylinder"))
                                 for d in args):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = args
    runs = _argv_list()
    differing = 0
    for argv in runs:
        old, new = _run(parent, argv), _run(change, argv)
        if old == new:
            continue
        differing += 1
        print("DIFFERS:", " ".join(argv))
        if old[0] != new[0]:
            print(f"  exit code {old[0]} -> {new[0]}")
        for name, x, y in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
            if x != y:
                print(f"  {name} {_first_difference(x, y)}")
    print(f"{len(runs)} runs compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
