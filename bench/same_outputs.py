#!/usr/bin/env python3
"""Compare the command-line outputs of two checkouts, command by command.

    python3 bench/same_outputs.py PARENT_DIR CHANGE_DIR [--ops N]

Each command runs as ``python -m closure14.cli`` with that checkout's
``src/`` on ``PYTHONPATH``, for both built-in families: ``verify --seed``
0 to 9, ``coeffs`` as JSON and as CSV, ``eval``, ``kinetic``, ``subsystem``
and ``boost`` at their defaults, ``eval`` and ``boost`` at a
nonequilibrium state with a nonzero velocity, ``coeffs`` with each of
``COEFFS_CONFIGS``: a 13 x 13 table at S = 6, and three that exit 3, one
past n_max, one past the series order S and one whose family fails the
ladder gate, ``kinetic`` at S = 6 with that family's non-default kernel
parameters from ``KINETIC_CONFIGS``, ``kinetic`` and ``verify`` with
``{"count": 0}`` and with ``--seed -1``, which exit 2, and the verify plan
away from its defaults: ``verify`` with ``VERIFY_CONFIG`` and with
``--n-trunc 0`` (the whole plan at the lowest order), ``verify`` past the
default family with ``--n-trunc 12 --s-trunc 8`` and ``HIGH_ORDER_CONFIG``,
and ``kinetic`` with ``{"p_max": 2, "q_max": 1}``, and the series too short for
the plan, which exits 3: ``verify`` at ``SHORT_SERIES_VERIFY`` and
``kinetic`` at ``SHORT_SERIES_KINETIC``; ``kinetic`` and ``verify`` of
the exponential family with ``SLOW_KERNEL_CONFIG``, a kernel that decays
slowly, and ``eval``, ``verify`` and ``subsystem`` with the boolean numbers
of ``BOOLEAN_CONFIGS``, which exit 2.  It also runs each of the malformed
configs of ``BAD_CONFIGS`` on the commands that read the value (a boolean,
string or null where a number is due, a list of the wrong length, an
unknown field inside an object, an ``out`` that is not a string, a
``lam_ij``, ``m_ij`` or ``f_kij`` that is not symmetric, the CSV format
on every command but ``coeffs``, a format that is neither JSON nor CSV, and
a config file that holds a JSON list), ``coeffs`` with a config file that
does not exist, and ``coeffs`` with an ``--out`` it cannot open,
``UNWRITABLE_OUTS``; each exits 2.  Last come ``--help`` and
``<command> --help``, once each.  For each command it prints
``identical``, or the first line where stdout, stderr or the exit code
differ.

With ``--ops N`` it also runs the first N ops (seed 0) of the ``potentials``,
``coeffs`` and ``kinetic`` workloads, each in a subprocess that imports that
checkout's own ``src/`` and ``perfbench/workloads.py``, and compares the
SHA-256 of a canonical form of the outputs: floats by ``float.hex``, arrays
by dtype, shape and bytes, containers by their items, and dataclasses by
class name and the values of their compared fields, ``ClassVar`` constants
included.  So two outputs hash alike when their values are the same,
whatever objects they share, and a field that becomes a class constant or a
cache attribute (``compare=False``) that is added changes no hash.
It exits 1 when any command or workload differs.
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
    "coeffs_amplitude_1e300.json": {"family_params": {"amplitude": 1e300}},
}
KINETIC_CONFIGS = {
    "exponential": {"family_params": {"amplitude": 2.0, "scale": 1.7}, "S": 6},
    "poly_exponential": {"family_params": {"amplitude": 2.0}, "S": 6},
}
VERIFY_CONFIG = {"count": 3, "noneq_magnitude": 0.001, "N": 4, "S": 5}
# members up to s = 10, so that verify can run at N = 12, S = 8
HIGH_ORDER_CONFIG = {"family_params": {"s_max": 10}}
# F = exp(-x/100): it decays on each point's own ray, but slowly on the lambda_ll = 1 ray
SLOW_KERNEL_CONFIG = {"family_params": {"scale": 0.01}}
# JSON true where a number is due; each exits 2
BOOLEAN_CONFIGS = {
    "eval": {"N": True, "seed": True},
    "verify": {"count": True},
    "subsystem": {"lam": True},
}
EQ_STATE = {"lam": 0, "lam_i": [0, 0, 0], "lam_ij": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "lam_ill": [0, 0, 0], "lam_iill": 0}
ZERO_MOMENTS = {"m": 0, "m_i": [0] * 3, "m_ij": [[0] * 3] * 3, "m_ill": [0] * 3, "m_iill": 0,
                "f_k": [0] * 3, "f_ki": [[0] * 3] * 3, "f_kij": [[[0] * 3] * 3] * 3,
                "f_kill": [[0] * 3] * 3, "f_kiill": [0] * 3}
ASYMMETRIC = [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]
# name: (commands that read the bad value, config); each exits 2
BAD_CONFIGS = {
    "noneq_string": (("verify",), {"noneq_magnitude": "x"}),
    "noneq_null": (("verify",), {"noneq_magnitude": None}),
    "point_bool": (("coeffs", "eval"), {"point": {"lam": True}}),
    "point_string": (("coeffs", "eval"), {"point": {"lam_ll": "2"}}),
    "point_unknown": (("coeffs", "eval"), {"point": {"lam_pp": 1}}),
    "state_string": (("eval", "boost"), {"state": {**EQ_STATE, "lam": "0"}}),
    "state_bool": (("eval", "boost"), {"state": {**EQ_STATE, "lam_i": [True, 0, 0]}}),
    "state_short_list": (("eval", "boost"), {"state": {**EQ_STATE, "lam_i": [0, 0]}}),
    "state_unknown": (("eval", "boost"), {"state": {**EQ_STATE, "lam_jj": 0}}),
    "velocity_bool": (("boost",), {"velocity": [True, 0, 0]}),
    "velocity_string": (("boost",), {"velocity": ["0.1", 0, 0]}),
    "moments_bool": (("boost",), {"moments": {**ZERO_MOMENTS, "m": True}}),
    "moments_string": (("boost",), {"moments": {**ZERO_MOMENTS, "f_k": [0, "0.5", 0]}}),
    "moments_unknown": (("boost",), {"moments": {**ZERO_MOMENTS, "f_kk": 0}}),
    "family_unknown": (("coeffs", "verify"), {"family": {"kynd": "poly_exponential"}}),
    "out_int": (("coeffs",), {"out": 7}),
    "out_bool": (("coeffs",), {"out": True}),
    "state_asymmetric": (("eval", "boost"), {"state": {**EQ_STATE, "lam_ij": ASYMMETRIC}}),
    "moments_m_ij_asymmetric": (("boost",), {"moments": {**ZERO_MOMENTS, "m_ij": ASYMMETRIC}}),
    "moments_f_kij_asymmetric": (("boost",), {"moments": {
        **ZERO_MOMENTS, "f_kij": [[[0] * 3] * 3, ASYMMETRIC, [[0] * 3] * 3]}}),
    "format_csv": (("eval", "boost", "verify", "kinetic", "subsystem"), {"format": "csv"}),
    "format_xml": (("coeffs",), {"format": "xml"}),
    "config_list": (("coeffs",), [{"S": 3}]),
}
MISSING_CONFIG = "missing.json"  # never written
# (N, S) and S too short for the verify plan and the kinetic elements; each exits 3
SHORT_SERIES_VERIFY = ((4, 3), (2, 2))
SHORT_SERIES_KINETIC = (1, 2)
UNWRITABLE_OUTS = ("missing/table.json", ".")  # no such directory; a directory
COMMANDS = ("coeffs", "eval", "boost", "verify", "kinetic", "subsystem")
WORKLOADS = ("potentials", "coeffs", "kinetic")
WORKLOAD_SEED = 0
# argv: workload, seed, ops; prints the hash of the outputs of ops 0..ops-1.  The
# perfbench/ it imports is the one beside the src/ that closure14 comes from.
OPS_SCRIPT = """
import dataclasses, fractions, hashlib, pathlib, sys, tempfile
import numpy as np
import closure14
sys.path.insert(0, str(pathlib.Path(closure14.__file__).resolve().parents[2] / "perfbench"))
import workloads

def canon(x):
    # the value of x as nested tuples of str, int and bytes, whatever its object layout
    if isinstance(x, (bool, np.bool_)):
        return "bool", bool(x)
    if isinstance(x, (int, np.integer)):
        return "int", int(x)
    if isinstance(x, (float, np.floating)):
        return "float", float(x).hex()
    if isinstance(x, (str, type(None))):
        return type(x).__name__, x
    if isinstance(x, fractions.Fraction):
        return "Fraction", x.numerator, x.denominator
    if isinstance(x, np.ndarray):
        if x.dtype.hasobject:
            return "array", x.shape, tuple(canon(v) for v in x.flat)
        return "array", x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return "sequence", tuple(canon(v) for v in x)
    if isinstance(x, dict):
        return "dict", tuple(sorted((repr(canon(k)), canon(v)) for k, v in x.items()))
    if dataclasses.is_dataclass(x):
        # every compared field, ClassVar constants included; caches are compare=False
        names = sorted(name for name, f in x.__dataclass_fields__.items() if f.compare)
        return type(x).__name__, tuple((name, canon(getattr(x, name))) for name in names)
    raise TypeError(f"no canonical form for {type(x).__name__}")

name, seed, ops = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
with tempfile.TemporaryDirectory() as workdir:
    wl = workloads.WORKLOADS[name](seed, workdir)
    ctx = workloads.plain_context(name)
    outputs = [wl.op(wl.inputs(i), ctx) for i in range(ops)]
print(name, ops, "ops", hashlib.sha256(repr(canon(outputs)).encode()).hexdigest())
"""


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
        yield ["kinetic", *fam, "--config", f"kinetic_{family}.json"]
        for name in ("kinetic", "verify"):
            yield [name, *fam, "--config", "count_0.json"]
            yield [name, *fam, "--seed", "-1"]
        yield ["verify", *fam, "--config", "verify.json"]
        yield ["verify", *fam, "--n-trunc", "0"]
        yield ["verify", *fam, "--n-trunc", "12", "--s-trunc", "8", "--config", "high_order.json"]
        yield ["kinetic", *fam, "--config", "kinetic_p2_q1.json"]
        for n_trunc, s_trunc in SHORT_SERIES_VERIFY:
            yield ["verify", *fam, "--n-trunc", str(n_trunc), "--s-trunc", str(s_trunc)]
        for s_trunc in SHORT_SERIES_KINETIC:
            yield ["kinetic", *fam, "--s-trunc", str(s_trunc)]
        if family == "exponential":
            for name in ("kinetic", "verify"):
                yield [name, *fam, "--config", "slow_kernel.json"]
        for name in BOOLEAN_CONFIGS:
            yield [name, *fam, "--config", f"boolean_{name}.json"]
        for bad, (names, _) in BAD_CONFIGS.items():
            for name in names:
                yield [name, *fam, "--config", f"bad_{bad}.json"]
        yield ["coeffs", *fam, "--config", MISSING_CONFIG]
        for out in UNWRITABLE_OUTS:
            yield ["coeffs", *fam, "--out", out]
    yield ["--help"]
    for name in COMMANDS:
        yield [name, "--help"]


def run(checkout: Path, args: list, workdir: str) -> str:
    """Exit code, stdout and stderr of one python command, as one text."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    res = subprocess.run([sys.executable, *args], cwd=workdir,
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
    parser.add_argument("--ops", type=int, default=0, metavar="N",
                        help="also compare the outputs of the first N ops of each workload")
    args = parser.parse_args(argv)
    runs = [(" ".join(cmd), ["-m", "closure14.cli", *cmd]) for cmd in commands()]
    if args.ops > 0:
        runs += [(f"workload {name}, {args.ops} ops", ["-c", OPS_SCRIPT, name, str(WORKLOAD_SEED), str(args.ops)])
                 for name in WORKLOADS]
    differing = 0
    with tempfile.TemporaryDirectory() as workdir:
        configs = {"noneq.json": NONEQ_CONFIG, "count_0.json": {"count": 0},
                   "verify.json": VERIFY_CONFIG, "kinetic_p2_q1.json": {"p_max": 2, "q_max": 1},
                   "slow_kernel.json": SLOW_KERNEL_CONFIG, "high_order.json": HIGH_ORDER_CONFIG,
                   **{f"boolean_{name}.json": c for name, c in BOOLEAN_CONFIGS.items()},
                   **{f"bad_{bad}.json": c for bad, (_, c) in BAD_CONFIGS.items()},
                   **COEFFS_CONFIGS,
                   **{f"kinetic_{family}.json": c for family, c in KINETIC_CONFIGS.items()}}
        for name, config in configs.items():
            (Path(workdir) / name).write_text(json.dumps(config))
        for label, python_args in runs:
            diff = first_difference(run(args.parent, python_args, workdir),
                                    run(args.change, python_args, workdir))
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
