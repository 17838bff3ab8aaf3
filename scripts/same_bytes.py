"""Compare the CLI's bytes between two source trees.

Run:  python scripts/same_bytes.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the `oscylinder` package (a
checkout's `src/`).  Every run of a fixed argv list is made in a fresh
interpreter, once per tree, with that tree first on PYTHONPATH.  The
list covers the four default commands, the command-line units of
bench/run.py's workloads (its GENERATORS, loaded read-only: force_sweep
seeds 1..10, field_map seeds 1..5, verify seeds 1..2), mutated `force`
and `profile` runs, clean and mutated `validate` runs at one beta*a every
other decade from 1e-8 to 1e4, with a one-sided stencil (--h-rel 0.095),
another step and t != 0, the `validate --a 1e-3` runs of the detection
matrix in tests/test_cli.py (beta*a from 1e-150 to 1e16), `field` runs
where a row's mirror row can and cannot reuse its values, and runs at the
edges of the domain.  Every run whose exit code, stdout or stderr differs
is reported; the script exits 1 if any does, 0 otherwise.
"""

from __future__ import annotations

import importlib.util
import math
import os
import random
import subprocess
import sys

NU0_AIR = 15.11e-6  # kinematic viscosity of the default fluid
MUTATIONS = ("B:1.001", "C:1.001", "fa:1.001", "beta:1.001")
BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
BENCH_SEEDS = {"force_sweep": range(1, 11), "field_map": range(1, 6), "verify": range(1, 3)}


def _bench_generators() -> dict:
    """bench/run.py's GENERATORS, loaded without writing bytecode under bench/."""
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  os.path.join(BENCH_DIR, "run.py"))
    module = importlib.util.module_from_spec(spec)
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, BENCH_DIR)  # run.py imports its siblings checks and calib
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return module.GENERATORS


def _argv_list() -> list[list[str]]:
    runs = [["force"], ["field"], ["profile"], ["validate"]]
    # the command-line units of bench/run.py's workloads, seeded as it seeds them
    generators = _bench_generators()
    runs += [unit["argv"] for name, seeds in BENCH_SEEDS.items() for seed in seeds
             for unit in generators[name](random.Random(f"{name}-{seed}"))
             if unit["kind"] == "cli"]
    # field grids with points on r = a, where exact zeros print "0.0" and
    # "-0.0" apart; v0 = 0 and subnormal; no y = 0 row; t != 0; beta a >= 1;
    # a y-range that is not symmetric
    surface = "--grid=-4e-6:4e-6:9,-4e-6:4e-6:9"
    runs += [["field", surface], ["field", surface, "--t", "0.00037"]]
    runs += [["field", *grid, "--v0", v0] for v0 in ("0", "5e-324")
             for grid in ([], [surface])]
    runs += [
        ["field", "--grid=-4e-6:4e-6:40,-4e-6:4e-6:40"],
        ["field", "--t", "0.00037"],
        ["field", "--a", "1e-3", "--f", "1000", "--grid=-4e-3:4e-3:9,-4e-3:4e-3:9"],
        ["field", "--grid=-4e-6:4e-6:41,-3e-6:4e-6:41"],
    ]
    for mutate in MUTATIONS:
        runs.append(["field", surface, "--mutate", mutate])
        runs.append(["force", "--a", "1e-4", "--mutate", mutate])
        runs.append(["profile", "--a", "1e-3", "--f", "1000", "--mutate", mutate])
    beta = math.sqrt(2.0 * math.pi * 1000.0 / NU0_AIR)
    for decade in range(-8, 5, 2):
        argv = ["validate", "--a", repr(10.0 ** decade / beta), "--f", "1000"]
        runs.append(argv)
        runs += [[*argv, "--mutate", mutate] for mutate in MUTATIONS]
    # --h-rel 0.095 puts rho = 1.1's stencil on one side, into the fluid
    runs.append(["validate", "--h-rel", "0.095"])
    runs += [["validate", "--h-rel", "0.095", "--mutate", mutate] for mutate in MUTATIONS]
    runs += [["validate", "--h-rel", "1e-3"], ["validate", "--t", "0.00037"]]
    # tests/test_cli.py's DETECTION_MATRIX: validate --a 1e-3 at each beta*a
    for ba in [10.0 ** e for e in range(-150, 1, 10)] + [1e3, 1e7, 5e9, 1e10, 1e11, 1e16]:
        f = (ba / 1e-3) ** 2 * NU0_AIR / (2.0 * math.pi)
        argv = ["validate", "--a", "1e-3", "--f", repr(f)]
        runs += [argv] + [[*argv, "--mutate", mutate] for mutate in MUTATIONS]
    edge = "-1.77e303:1.77e303:3"
    runs += [
        ["validate", "--a", "1e-20", "--f", "1e-270"],  # beta a ~ 6e-153
        ["validate", "--a", "1e-20", "--f", "1e-270", "--mutate", "B:1.001"],
        ["validate", "--a", "1e-150", "--f", "1e300"],
        ["force", "--a", "1e-158", "--f", "1"],
        ["force", "--a", "1e-160"],
        # (beta a)^2 overflows, refused by force and validate alike; at nu0 =
        # 1e300 it is finite and the force scale rho0 omega a^2 overflows instead
        ["force", "--a", "1e154", "--f", "1"],
        ["force", "--a", "1e305", "--f", "1e-305"],
        ["force", "--a", "1e154", "--f", "1", "--nu0", "1e300", "--rho0", "1"],
        ["validate", "--a", "1e305", "--f", "1e-305"],
        ["validate", "--a", "1e154", "--f", "1", "--nu0", "1e300", "--rho0", "1"],
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
