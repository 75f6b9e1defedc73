#!/usr/bin/env python3
"""Compare the command-line outputs of two checkouts, command by command.

    python3 bench/same_outputs.py PARENT_DIR CHANGE_DIR

Each command runs as ``python -m closure14.cli`` with that checkout's
``src/`` on ``PYTHONPATH``, for both built-in families: ``verify --seed``
0 to 9, ``coeffs`` as JSON and as CSV, ``eval``, ``kinetic``, ``subsystem``
and ``boost`` at their defaults, ``eval`` and ``boost`` at a
nonequilibrium state with a nonzero velocity, and ``coeffs`` with each of
``COEFFS_CONFIGS``: a 13 x 13 table at S = 6, and two tables that exit 3,
one past n_max and one past the series order S.  For each command it prints
``identical``, or the first line where stdout, stderr or the exit code
differ.  It exits 1 when any command differs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FAMILIES = ("exponential", "poly_exponential")
NONEQ_CONFIG = {
    "state": {
        "lam": 0.2,
        "lam_i": [1e-2, -2e-2, 5e-3],
        "lam_ij": [[0.34, 0.01, -0.02], [0.01, 0.33, 0.015], [-0.02, 0.015, 0.32]],
        "lam_ill": [4e-3, -3e-3, 6e-3],
        "lam_iill": 5e-3,
    },
    "velocity": [0.1, -0.2, 0.05],
}
COEFFS_CONFIGS = {
    "coeffs_p12_q12_S6.json": {"p_max": 12, "q_max": 12, "S": 6},
    "coeffs_p30_q0.json": {"p_max": 30, "q_max": 0},
    "coeffs_p2_q14_S6.json": {"p_max": 2, "q_max": 14, "S": 6},
}


def commands():
    for family in FAMILIES:
        fam = ["--family", family]
        for seed in range(10):
            yield ["verify", *fam, "--seed", str(seed)]
        yield ["coeffs", *fam]
        yield ["coeffs", *fam, "--format", "csv"]
        for name in ("eval", "kinetic", "subsystem", "boost"):
            yield [name, *fam]
        for name in ("eval", "boost"):
            yield [name, *fam, "--config", "noneq.json"]
        for config in COEFFS_CONFIGS:
            yield ["coeffs", *fam, "--config", config]


def run(checkout: Path, args: list, workdir: str) -> str:
    """Exit code, stdout and stderr of one command, as one text."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    res = subprocess.run([sys.executable, "-m", "closure14.cli", *args], cwd=workdir,
                         env=env, capture_output=True, text=True)
    return f"exit {res.returncode}\n--- stdout\n{res.stdout}--- stderr\n{res.stderr}"


def first_difference(a: str, b: str):
    """(line number, parent line, change line) of the first difference, or None."""
    pairs = itertools.zip_longest(a.splitlines(), b.splitlines())
    for n, (x, y) in enumerate(pairs, 1):
        if x != y:
            return n, x, y
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    differing = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, config in {"noneq.json": NONEQ_CONFIG, **COEFFS_CONFIGS}.items():
            (Path(workdir) / name).write_text(json.dumps(config))
        for cmd in commands():
            label = " ".join(cmd)
            diff = first_difference(run(args.parent, cmd, workdir),
                                    run(args.change, cmd, workdir))
            if diff is None:
                print(f"identical  {label}", flush=True)
                continue
            differing += 1
            n, x, y = diff
            print(f"DIFFERS    {label}: line {n}\n  parent: {x}\n  change: {y}", flush=True)
    print(f"{differing} command(s) differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
