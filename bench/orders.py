#!/usr/bin/env python3
"""Time a warm ``moments_from_potentials`` at high order in two checkouts.

    python3 bench/orders.py PARENT_DIR CHANGE_DIR [--rounds 7] --out BENCH_<n>_orders.json

The gated benchmark runs the potentials only to N = 6, so this script is
the in-process evidence for higher orders.  Each round runs one probe
process per checkout and thread setting, with that checkout's ``src/``
first on the import path; the side that runs first alternates from round
to round.  A probe builds the exponential family, calls
``moments_from_potentials`` once at each order of ``ORDERS`` to warm its
caches, then times it there: the median over ``REPEATS`` repeats of the
mean time per call.  Each probe runs twice, once with the BLAS library's
default threads and once with one BLAS thread: a matrix product large
enough to be split over threads can be much slower when the threads
compete for few cores.  The output holds the environment, the commits,
every round's times, and per thread setting and order the per-side median
over the rounds and the parent/change ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# (N, S, family s_max): S = N // 2 + 1 is the smallest truncation at which
# every lambda_ppqq derivative of order N keeps a term; s_max is the default
# 6 where that suffices
ORDERS = ((6, 4, 6), (12, 7, 14), (18, 10, 14))
REPEATS = 7
THREADS = {  # environment of the probe process, on top of this one's
    "default_threads": {},
    "one_blas_thread": {name: "1" for name in
                        ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")},
}
REPEAT_SECONDS = 0.2  # the calls of one repeat take about this long


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def probe(src: Path) -> dict:
    """Milliseconds per warm call at each order, closure14 imported from ``src``."""
    sys.path.insert(0, str(src))
    from closure14 import coeffs, potentials
    from closure14.symtensor import SymMatrix

    if not Path(potentials.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"orders: closure14 imported from {potentials.__file__}, not {src}")
    rng = np.random.default_rng(0)
    eps = 1e-2
    state = potentials.MultiplierState(
        frame=potentials.HATTED,
        lam=0.2,
        lam_i=eps * rng.uniform(-1, 1, 3),
        lam_ij=SymMatrix(np.eye(3) / 3.0 + eps * rng.uniform(-1, 1, (3, 3))),
        lam_ill=eps * rng.uniform(-1, 1, 3),
        lam_iill=eps * rng.uniform(0.1, 0.5),
    )
    out = {}
    for N, S, s_max in ORDERS:
        f = coeffs.make_family("exponential", {"s_max": s_max})
        t0 = time.perf_counter()
        potentials.moments_from_potentials(f, state, N, S)  # compiles the plans
        first = time.perf_counter() - t0
        calls = max(1, int(REPEAT_SECONDS / max(first, 1e-6)))
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(calls):
                potentials.moments_from_potentials(f, state, N, S)
            times.append((time.perf_counter() - t0) / calls)
        out[f"N{N}_S{S}"] = statistics.median(times) * 1e3
    return out


def git_commit(checkout: Path) -> str:
    res = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_probe(checkout: Path, env: dict) -> dict:
    res = subprocess.run([sys.executable, __file__, "--probe", str(checkout / "src")],
                         capture_output=True, text=True, env={**os.environ, **env})
    if res.returncode != 0:
        sys.exit(f"orders: probe in {checkout} failed:\n{res.stderr[-2000:]}")
    return json.loads(res.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0))},
        "commits": {side: git_commit(path) for side, path in dirs.items()},
        "orders": [{"N": N, "S": S, "s_max": s_max} for N, S, s_max in ORDERS],
        "repeats": REPEATS,
        "threads": THREADS,
        "unit": "ms per call",
        "rounds": [],
    }
    for i in range(args.rounds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        entry = {"first": order[0]}
        for threads, env in THREADS.items():
            for side in order:
                entry.setdefault(threads, {})[side] = run_probe(dirs[side], env)
                print(f"round {i} {threads} {side}: {entry[threads][side]}", flush=True)
        report["rounds"].append(entry)
    report["median"], report["speedup"] = {}, {}
    for threads in THREADS:
        runs = [r[threads] for r in report["rounds"]]
        median = report["median"][threads] = {
            side: {key: statistics.median(run[side][key] for run in runs) for key in runs[0][side]}
            for side in SIDES
        }
        report["speedup"][threads] = {key: median["parent"][key] / median["change"][key]
                                      for key in median["parent"]}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report["speedup"]))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:  # one side of a round, run by run_probe
        print(json.dumps(probe(Path(sys.argv[2]))))
        sys.exit(0)
    sys.exit(main())
