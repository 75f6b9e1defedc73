#!/usr/bin/env python3
"""In-process A/B timing of named layer probes in two checkouts.

    python3 bench/ab.py PARENT_DIR CHANGE_DIR --probe NAME [NAME ...] \\
        [--rounds 7] --out BENCH_<n>_layers.json

The gated benchmark times whole ops, and its traced layer medians move by
tens of percent between runs of unchanged code, so a claim about one layer
needs a direct comparison.  For each probe and thread setting this script
starts one long-lived worker process per checkout, with that checkout's
``src/`` first on the import path and the thread setting in the worker's
own environment.  A worker builds its cases once, warms them, and picks how
many calls make one repeat.  Then, in each round, each worker in turn times
``REPEATS`` repeats of every case and reports the median time per call; the
side that runs first alternates from round to round.

Probes (``PROBES``):

- ``orders``: a warm ``moments_from_potentials`` at (N, S) = (6, 4), (12, 7)
  and (18, 10), with the BLAS library's default threads and with one.
- ``kinetic_kpq``: ``kinetic_kpq(3, 3)`` at a point whose values are all in
  the kernel's table, and at a new point on every call.
- ``kinetic_op``: one op of the benchmark's ``kinetic`` workload, from the
  checkout's ``perfbench/workloads.py``.
- ``kinetic_equivalence``: ``check_kinetic_equivalence`` over the kinetic
  points of ``TestPointSet`` seeds 0-9.

The output holds the environment, the commits, every round's times, and per
probe, thread setting and case the per-side median over the rounds, the
parent/change ratio of those medians, the median of the per-round ratios,
and the number of rounds the change was faster.
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

SIDES = ("parent", "change")
REPEATS = 5
REPEAT_SECONDS = 0.1  # the calls of one repeat take about this long
THREADS = {  # environment of a worker, on top of this one's
    "default_threads": {},
    "one_blas_thread": {name: "1" for name in
                        ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")},
}
PROBES = {  # name: thread settings it runs under
    "orders": ("default_threads", "one_blas_thread"),
    "kinetic_kpq": ("one_blas_thread",),
    "kinetic_op": ("one_blas_thread",),
    "kinetic_equivalence": ("one_blas_thread",),
}
# (N, S, family s_max): S = N // 2 + 1 is the smallest truncation at which
# every lambda_ppqq derivative of order N keeps a term
ORDERS = ((6, 4, 6), (12, 7, 14), (18, 10, 14))
PQS = [(p, n - p) for n in range(7) for p in range(n + 1)]  # p + q <= 6


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--probe", nargs="+", required=True, choices=PROBES)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


# --- cases, built inside a worker --------------------------------------------
# each returns {case: run}, where run(calls) makes that many calls


def orders_cases(checkout: Path) -> dict:
    import numpy as np
    from closure14 import coeffs, potentials
    from closure14.symtensor import SymMatrix

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

    def case(N, S, s_max):
        f = coeffs.make_family("exponential", {"s_max": s_max})

        def run(calls):
            for _ in range(calls):
                potentials.moments_from_potentials(f, state, N, S)
        return run

    return {f"moments_from_potentials.N{N}_S{S}": case(N, S, s_max) for N, S, s_max in ORDERS}


def kinetic_kpq_cases(checkout: Path) -> dict:
    from closure14 import kinetic
    from closure14.coeffs import EquilibriumPoint

    kernel = kinetic.exponential_kernel()
    point = EquilibriumPoint(0.3, 1.6)
    new_points = [EquilibriumPoint(0.3, 1.6 + 1e-9 * i) for i in range(100_000)]

    def from_table(calls):
        for _ in range(calls):
            kinetic.kinetic_kpq(kernel, 3, 3, point)

    def at_new_point(calls):
        for pt in new_points[:calls]:  # consecutive points differ, so each call is a miss
            kinetic.kinetic_kpq(kernel, 3, 3, pt)

    for pq in PQS:  # fill the table at the point
        kinetic.kinetic_kpq(kernel, *pq, point)
    return {"kinetic_kpq_3_3.from_table": from_table, "kinetic_kpq_3_3.new_point": at_new_point}


def kinetic_op_cases(checkout: Path) -> dict:
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads

    workload = workloads.WORKLOADS["kinetic"](seed=0, workdir=str(checkout))
    ctx = workloads.plain_context("kinetic")
    inputs = [workload.inputs(i) for i in range(64)]

    def run(calls):
        for i in range(calls):
            workload.op(inputs[i % len(inputs)], ctx)
    return {"kinetic_op": run}


def kinetic_equivalence_cases(checkout: Path) -> dict:
    from closure14 import coeffs, kinetic, verify

    f = coeffs.make_family("exponential")
    kernel = kinetic.exponential_kernel()
    point_sets = []
    for seed in range(10):
        config = verify.TestPointSet(seed=seed)
        point_sets.append(config.scalar_points(with_ppqq=False)[: config.kinetic_points])

    def run(calls):
        for _ in range(calls):
            for points in point_sets:
                verify.check_kinetic_equivalence(f, kernel, points, pq_total_max=6, S=4)
    return {"check_kinetic_equivalence.seeds_0_9": run}


CASES = {
    "orders": orders_cases,
    "kinetic_kpq": kinetic_kpq_cases,
    "kinetic_op": kinetic_op_cases,
    "kinetic_equivalence": kinetic_equivalence_cases,
}


def worker(checkout: Path, probe: str) -> None:
    """Build the probe's cases, then answer each line "go" with one JSON line of times."""
    src = checkout / "src"
    sys.path.insert(0, str(src))
    import closure14

    if not Path(closure14.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"ab: closure14 imported from {closure14.__file__}, not {src}")
    cases = CASES[probe](checkout)
    calls = {}
    for name, run in cases.items():
        t0 = time.perf_counter()
        run(1)  # warms caches and compiled plans
        run(1)
        first = (time.perf_counter() - t0) / 2
        calls[name] = max(1, int(REPEAT_SECONDS / max(first, 1e-7)))
    print(json.dumps({"calls": calls}), flush=True)
    for line in sys.stdin:
        if line.strip() != "go":
            break
        out = {}
        for name, run in cases.items():
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                run(calls[name])
                times.append((time.perf_counter() - t0) / calls[name])
            out[name] = statistics.median(times) * 1e6
        print(json.dumps(out), flush=True)


# --- driver ------------------------------------------------------------------


class Worker:
    """A long-lived worker process for one checkout, probe and thread setting."""

    def __init__(self, checkout: Path, probe: str, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(checkout), probe],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, **env}, cwd=checkout)
        self.calls = self._read()["calls"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            sys.exit(f"ab: worker {self.proc.args} exited with {self.proc.returncode}")
        return json.loads(line)

    def time(self) -> dict:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def git_commit(checkout: Path) -> str:
    res = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def summarize(rounds: list) -> dict:
    """Per case: per-side median over the rounds, parent/change ratios, rounds the change won.

    ``round_speedup`` is the median over the rounds of each round's
    parent/change ratio: a burst of load on the host slows both sides of a
    round, so it moves this less than the ratio of the medians.
    """
    out = {}
    for case in rounds[0]["parent"]:
        per_side = {side: [r[side][case] for r in rounds] for side in SIDES}
        median = {side: statistics.median(v) for side, v in per_side.items()}
        out[case] = {
            "median_us": median,
            "speedup": median["parent"] / median["change"],
            "round_speedup": statistics.median(
                p / c for p, c in zip(per_side["parent"], per_side["change"])),
            "change_faster": sum(c < p for p, c in zip(per_side["parent"], per_side["change"])),
        }
    return out


def main(argv=None) -> int:
    import numpy as np

    args = parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "command": "python3 bench/ab.py PARENT CHANGE --probe " + " ".join(args.probe),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0))},
        "commits": {side: git_commit(path) for side, path in dirs.items()},
        "repeats": REPEATS,
        "rounds": args.rounds,
        "threads": THREADS,
        "unit": "us per call, median of the repeats of a round",
        "probes": {},
    }
    for probe in args.probe:
        for threads in PROBES[probe]:
            workers = {side: Worker(path, probe, THREADS[threads]) for side, path in dirs.items()}
            rounds = []
            for i in range(args.rounds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                entry = {"first": order[0]}
                for side in order:
                    entry[side] = workers[side].time()
                rounds.append(entry)
                print(f"{probe} {threads} round {i}: {entry}", flush=True)
            for w in workers.values():
                w.close()
            report["probes"].setdefault(probe, {})[threads] = {
                "calls_per_repeat": {side: w.calls for side, w in workers.items()},
                "rounds": rounds,
                "summary": summarize(rounds),
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    for probe, by_threads in report["probes"].items():
        for threads, result in by_threads.items():
            for case, s in result["summary"].items():
                print(f"{probe} {threads} {case}: {s['median_us']['parent']:.2f} -> "
                      f"{s['median_us']['change']:.2f} us, {s['speedup']:.3f}x "
                      f"(per round {s['round_speedup']:.3f}x), "
                      f"faster in {s['change_faster']}/{args.rounds}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:  # one side of a probe, started by Worker
        worker(Path(sys.argv[2]), sys.argv[3])
        sys.exit(0)
    sys.exit(main())
