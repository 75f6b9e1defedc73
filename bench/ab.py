#!/usr/bin/env python3
"""A/B timing of two checkouts: the benchmark end to end, traced layers and layer probes.

    python3 bench/ab.py PARENT_DIR CHANGE_DIR [--workload W ...] [--probe P ...] \\
        [--pairs 10] [--first-seed N] --out BENCH_<n>.json

Every timing is a pair: one fresh process per side prints one JSON object of
numbers, and the side that runs first alternates from pair to pair.  A bias
that one process carries for its whole life (its memory layout, the BLAS
library's thread placement) so falls on one pair only.

- ``--workload W``: the ``command`` of the change's ``BENCHMARK.json`` for its
  ``run_seconds``, ``--pairs`` pairs with ``--trace 0``, pair i at seed N + i.
  Then ``TRACED_RUNS`` pairs with ``--trace 1`` at the seeds after those
  record the ``coeffs.*``, ``potentials.*``, ``kinetic.*`` and ``verify.*``
  layer metrics; one traced run is too noisy to resolve a layer.
- ``--probe P``: for each thread setting of ``PROBES[P]``, ``--pairs`` pairs of
  ``bench/ab.py --worker CHECKOUT P THREADS``.  The worker imports that
  checkout's ``src/`` with the thread setting in its own environment only,
  builds its cases, warms them, picks how many calls take about
  ``REPEAT_SECONDS``, and prints each case's median over ``REPEATS`` repeats,
  in microseconds per call.  A case whose calls need fresh inputs builds
  them before the clock starts and hands no input object to two calls.

Probes:

- ``orders``: a warm ``moments_from_potentials`` at (N, S) = (6, 4), (12, 7)
  and (18, 10), with the BLAS library's default threads and with one.
- ``kinetic_kpq``: ``kinetic_kpq(3, 3)`` at a point whose values are all in
  the kernel's table, and at a new point on every call; and the ten ``k_pq``
  with p + q <= 3 at S = 4 of a quadrature-backed family, as a ``kinetic``
  op asks for them, at lambda_ppqq = 0 and a new lambda on every call, so
  each member the series read is a new quadrature.
- ``coeffs``: ``k_pq(3, 3)`` at S = 6 at a new point on every call, so every
  call evaluates its series; ``h_pqr`` of the request (2, 2, 0, 6) asked again
  at the same point; building ``CoefficientRequest(3, 3, 1, 6)``; every
  h and phi cell of order p + q + 2r <= 8 at S = 6 at a new point on every
  call, as a ``coeffs`` op asks for them; and ``constraint_residuals`` at
  S = 6 at a new point on every call, whose scaling residual takes its
  derivative series from ``CoeffSeries.derivative``.
- ``potentials``: at N = 6, S = 4 and a new ``MultiplierState`` on every
  call, ``eval_h_hat`` then ``eval_phi_hat``, as every caller asks for the
  pair; ``eval_h_hat`` alone; and ``lab_potentials``.
- ``op``: one op of each workload that the checkout's ``BENCHMARK.json``
  names, from its own ``perfbench/workloads.py``, on the inputs of op 0, 1,
  2, ... in turn, built before the clock starts, as the benchmark's own loop
  hands each op inputs that no op saw before.
- ``kinetic_equivalence``: ``check_kinetic_equivalence`` over the kinetic
  points of ``TestPointSet`` seeds 0-9.
- ``cold_verify``: one fresh ``python -m closure14.cli verify --n-trunc 18
  --s-trunc 12`` process per call, with the config ``COLD_VERIFY_CONFIG``,
  so every call builds its coefficient series and plans from nothing.

``summarize`` judges every metric by one rule.  Per metric it gives each
side's median and quartiles, the ratio of the medians, the pairs the change
won (ties count for neither side), whether the gain exceeds the parent's
quartile spread, and ``claims_gain``: at least ``MIN_PAIRS`` pairs, wins in
at least nine tenths of them, and a gain beyond that spread.  Which way is
better comes from ``BENCHMARK.json`` (``end_to_end`` and ``per_layer``);
for probe times lower is better.

Noise floor of the probes, measured A/A (one commit against a copy of
itself, 2-core x86-64): with ``orders`` and ``kinetic_kpq`` at 15 pairs the
ratios of the medians read 0.978-1.025, wins 4/15-8/15 and single-pair
ratios 0.46-1.57; in ``BENCH_24.json`` (10 pairs) ``orders`` at N = 18 with
one BLAS thread read 1.096 with wins 2/10.  So wins as uneven as 2/10 and
probe ratios up to about 10 % occur on identical code.  No A/A case set
``claims_gain``: the rule, not the ratio, keeps noise from becoming a claim.

The output is rewritten after every pair, so an interrupted run keeps the
pairs it made.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10
TRACED_RUNS = 3
LAYER_PREFIXES = ("coeffs.", "potentials.", "kinetic.", "verify.")
REPEATS = 5
REPEAT_SECONDS = 0.1  # the calls of one repeat take about this long
THREADS = {  # environment of a probe worker, on top of this one's
    "default_threads": {},
    "one_blas_thread": {name: "1" for name in
                        ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")},
}
PROBES = {  # name: thread settings it runs under
    "orders": ("default_threads", "one_blas_thread"),
    "kinetic_kpq": ("one_blas_thread",),
    "coeffs": ("one_blas_thread",),
    "potentials": ("one_blas_thread",),
    "op": ("one_blas_thread",),
    "kinetic_equivalence": ("one_blas_thread",),
    "cold_verify": ("one_blas_thread",),
}
COLD_VERIFY_CONFIG = {"family_params": {"s_max": 12}}
# (N, S, family s_max): S = N // 2 + 1 is the smallest truncation at which
# every lambda_ppqq derivative of order N keeps a term
ORDERS = ((6, 4, 6), (12, 7, 14), (18, 10, 14))
PQS = [(p, n - p) for n in range(7) for p in range(n + 1)]  # p + q <= 6


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", default=[])
    parser.add_argument("--probe", nargs="+", default=[], choices=PROBES)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--first-seed", type=int)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if not args.workload and not args.probe:
        parser.error("give at least one of --workload and --probe")
    if args.workload and args.first_seed is None:
        parser.error("--workload needs --first-seed")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


# --- probe cases, built inside a worker --------------------------------------
# each returns {case: run}, where run(calls) makes that many calls, or
# {case: (make, call)}, where make(i) builds the input of call i and
# call(input) makes the call; see ``timer``


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
    from closure14 import coeffs, kinetic
    from closure14.coeffs import EquilibriumPoint

    kernel = kinetic.exponential_kernel()
    point = EquilibriumPoint(0.3, 1.6)

    def from_table(calls):
        for _ in range(calls):
            kinetic.kinetic_kpq(kernel, 3, 3, point)

    for pq in PQS:  # fill the table at the point
        kinetic.kinetic_kpq(kernel, *pq, point)
    family = kinetic.make_kinetic_family(kinetic.exponential_kernel())  # its own kernel table

    def family_k_pq(pt):
        for p, q in PQS[:10]:  # p + q <= 3
            coeffs.k_pq(family, p, q, pt, 4)

    return {"kinetic_kpq_3_3.from_table": from_table,
            "kinetic_kpq_3_3.new_point": (  # consecutive points differ, so each call is a miss
                lambda i: EquilibriumPoint(0.3, 1.6 + 1e-9 * i),
                lambda pt: kinetic.kinetic_kpq(kernel, 3, 3, pt)),
            "family_k_pq_S4.new_point": (  # a new lam: every member is a new quadrature
                lambda i: EquilibriumPoint(0.3 + 1e-9 * i, 1.6, 0.0), family_k_pq)}


def coeffs_cases(checkout: Path) -> dict:
    from closure14 import coeffs

    f = coeffs.make_family("exponential")
    point = coeffs.EquilibriumPoint(0.3, 1.6, 0.02)
    req = coeffs.CoefficientRequest(2, 2, 0, 6)

    def repeat(calls):
        for _ in range(calls):
            coeffs.h_pqr(f, req, point)

    def build(calls):
        for _ in range(calls):
            coeffs.CoefficientRequest(3, 3, 1, 6)

    N, S = 8, 6
    reqs = [coeffs.CoefficientRequest(p, q, r, S) for p in range(N + 1)
            for q in range(N + 1 - p) for r in range((N - p - q) // 2 + 1)]

    def cells(pt):
        for req in reqs:
            coeffs.h_pqr(f, req, pt)
            coeffs.phi_pqr(f, req, pt)

    def new_point(i):  # a new point object on each call, so each call evaluates
        return coeffs.EquilibriumPoint(0.3, 1.6 + 1e-9 * i, 0.02)

    return {"k_pq_3_3.new_point": (new_point, lambda pt: coeffs.k_pq(f, 3, 3, pt, 6)),
            "h_pqr_2_2_0.repeat": repeat, "coefficient_request.build": build,
            "cells_N8_S6.new_point": (new_point, cells),
            "constraints.new_point": (new_point, lambda pt: coeffs.constraint_residuals(f, pt, 6))}


def potentials_cases(checkout: Path) -> dict:
    import numpy as np
    from closure14 import coeffs, potentials
    from closure14.symtensor import SymMatrix

    f = coeffs.make_family("exponential")
    rng = np.random.default_rng(0)
    eps, N, S = 1e-2, 6, 4
    lam_i, lam_ill = eps * rng.uniform(-1, 1, 3), eps * rng.uniform(-1, 1, 3)
    lam_ij = SymMatrix(np.eye(3) / 3.0 + eps * rng.uniform(-1, 1, (3, 3)))
    v = potentials.BoostVelocity([0.1, -0.2, 0.3])

    def state(frame):
        # a new state and a new lam on every call: no pair, member or series value is kept
        return lambda i: potentials.MultiplierState(frame, 0.2 + 1e-9 * i, lam_i, lam_ij,
                                                    lam_ill, 0.3 * eps)

    def h_then_phi(st):
        potentials.eval_h_hat(f, st, N, S)
        potentials.eval_phi_hat(f, st, N, S)

    return {"h_then_phi.N6": (state(potentials.HATTED), h_then_phi),
            "h_alone.N6": (state(potentials.HATTED),
                           lambda st: potentials.eval_h_hat(f, st, N, S)),
            "lab_potentials.N6": (state(potentials.LAB),
                                  lambda st: potentials.lab_potentials(f, st, v, N, S))}


def op_cases(checkout: Path) -> dict:
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads

    def case(name):
        workload = workloads.WORKLOADS[name](seed=0, workdir=str(checkout))
        ctx = workloads.plain_context(name)
        return workload.inputs, lambda inp: workload.op(inp, ctx)

    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    return {f"{w['name']}_op": case(w["name"]) for w in bench["workloads"]}


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


def cold_verify_cases(checkout: Path) -> dict:
    fd, config = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(COLD_VERIFY_CONFIG, fh)
    atexit.register(os.unlink, config)
    cmd = [sys.executable, "-m", "closure14.cli", "verify", "--n-trunc", "18", "--s-trunc", "12",
           "--config", config]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}

    def run(calls):
        for _ in range(calls):  # exit 1: the report holds failed records at this order
            res = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
            if res.returncode not in (0, 1):
                sys.exit(f"ab: {' '.join(cmd)} exited {res.returncode}:\n{res.stderr[-2000:]}")
    return {"verify.N18_S12": run}


CASES = {
    "orders": orders_cases,
    "kinetic_kpq": kinetic_kpq_cases,
    "coeffs": coeffs_cases,
    "potentials": potentials_cases,
    "op": op_cases,
    "kinetic_equivalence": kinetic_equivalence_cases,
    "cold_verify": cold_verify_cases,
}


def timer(case):
    """time_calls(calls): the seconds ``calls`` calls of ``case`` take.

    A case ``(make, call)`` has its inputs built before the clock starts, by
    make(0), make(1), ... across all timings, so no input object reaches two
    calls.
    """
    if callable(case):
        def time_calls(calls):
            t0 = time.perf_counter()
            case(calls)
            return time.perf_counter() - t0
        return time_calls
    make, call = case
    made = itertools.count()

    def time_calls(calls):
        inputs = [make(next(made)) for _ in range(calls)]
        t0 = time.perf_counter()
        for inp in inputs:
            call(inp)
        return time.perf_counter() - t0
    return time_calls


def worker(checkout: Path, probe: str, threads: str) -> None:
    """One side of one probe pair: print each case's median time per call, in µs."""
    os.environ.update(THREADS[threads])  # before numpy loads the BLAS library
    src = checkout / "src"
    sys.path.insert(0, str(src))
    import closure14

    if not Path(closure14.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"ab: closure14 imported from {closure14.__file__}, not {src}")
    out = {}
    for name, case in CASES[probe](checkout).items():
        time_calls = timer(case)
        time_calls(1)  # warms caches and compiled plans
        calls = max(1, int(REPEAT_SECONDS / max(time_calls(1), 1e-7)))
        times = [time_calls(calls) / calls for _ in range(REPEATS)]
        out[name] = statistics.median(times) * 1e6
    print(json.dumps(out))


# --- driver ------------------------------------------------------------------


def stdout_lines(cmd: list, checkout: Path) -> list:
    """Run ``cmd`` in a fresh process in ``checkout``; exit if it fails."""
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if res.returncode != 0 or not res.stdout.strip():
        sys.exit(f"ab: {' '.join(cmd)} in {checkout} failed:\n{res.stderr[-2000:]}")
    return res.stdout.splitlines()


def bench_run(bench: dict, checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One run of the benchmark command; a traced run keeps only the layer metrics."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    result = json.loads(stdout_lines(cmd, checkout)[-1])
    wall_s = time.perf_counter() - t0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
                **{k: v for k, v in metrics.items() if k.startswith(LAYER_PREFIXES)}}
    return {"seed": seed, "wall_s": round(wall_s, 2), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def probe_run(checkout: Path, probe: str, threads: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout), probe, threads]
    return json.loads(stdout_lines(cmd, checkout)[-1])


def pair_loop(heads: list, run):
    """Run one pair per head, the first side alternating; yield the pairs so far after each."""
    pairs = []
    for i, head in enumerate(heads):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {**head, "first": order[0]}
        for side in order:
            pair[side] = run(side, head)
        pairs.append(pair)
        yield pairs


def quartiles(values: list) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else (values[0],) * 3)
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(specs: list, runs: dict) -> dict:
    """Judge each metric of ``specs`` by one rule.

    A spec names a metric and whether ``higher`` or ``lower`` is better; its
    other keys, such as ``bound``, are copied.  ``runs[side][i]`` maps each
    metric to its value in pair i.
    """
    out = {}
    for spec in specs:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        values = {side: [run[name] for run in runs[side]] for side in SIDES}
        stats = {side: quartiles(v) for side, v in values.items()}
        pairs = len(values["parent"])
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
        beats_spread = gain > stats["parent"]["q3"] - stats["parent"]["q1"]
        base = stats["parent"]["median"]
        out[name] = {
            **{k: v for k, v in spec.items() if k != "name"},
            **stats,
            "change_wins": wins,
            "pairs": pairs,
            "median_ratio": stats["change"]["median"] / base if base else None,
            "gain_beats_parent_quartile_spread": beats_spread,
            "claims_gain": pairs >= MIN_PAIRS and 10 * wins >= 9 * pairs and beats_spread,
        }
    return out


def per_side(pairs: list, key=None) -> dict:
    return {side: [p[side][key] if key else p[side] for p in pairs] for side in SIDES}


def environment(dirs: dict) -> dict:
    def commit(path):
        res = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"

    return {"python": platform.python_version(),
            **{name: metadata.version(name) for name in ("numpy", "scipy")},
            "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
            "commits": {side: commit(path) for side, path in dirs.items()}}


def show(label: str, summary: dict) -> None:
    for name, s in summary.items():
        ratio = "" if s["median_ratio"] is None else f" ({s['median_ratio']:.3f}x)"
        print(f"{label} {name}: {s['parent']['median']:.4g} -> {s['change']['median']:.4g}"
              f"{ratio}, change better in {s['change_wins']}/{s['pairs']}"
              f"{', claims a gain' if s['claims_gain'] else ''}")


def main(argv=None) -> int:
    args = parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    report = {"env": environment(dirs), "command": bench["command"],
              "run_seconds": bench["run_seconds"], "first_seed": args.first_seed,
              "repeats": REPEATS, "threads": THREADS, "probe_unit": "us per call",
              "workloads": {}, "probes": {}}

    def save(label, pairs):
        print(f"{label}: pair {len(pairs)} done", flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    for workload in args.workload:
        entry = report["workloads"][workload] = {}
        heads = [{"seed": args.first_seed + i} for i in range(args.pairs)]
        for pairs in pair_loop(heads, lambda side, head: bench_run(
                bench, dirs[side], workload, head["seed"], trace=0)):
            entry.update(pairs=pairs,
                         summary=summarize(bench["end_to_end"], per_side(pairs, "metrics")))
            save(workload, pairs)
        heads = [{"seed": args.first_seed + args.pairs + i} for i in range(TRACED_RUNS)]
        for pairs in pair_loop(heads, lambda side, head: bench_run(
                bench, dirs[side], workload, head["seed"], trace=1)):
            runs = per_side(pairs)
            specs = [m for m in bench["per_layer"] if m["name"] in runs["parent"][0]]
            summary = summarize(specs, runs)
            entry["traced"] = {side: {"runs": runs[side], "median": {
                name: s[side]["median"] for name, s in summary.items()}} for side in SIDES}
            entry["traced"]["summary"] = summary
            save(f"{workload} traced", pairs)
    for probe in args.probe:
        for threads in PROBES[probe]:
            entry = report["probes"].setdefault(probe, {})[threads] = {}
            for pairs in pair_loop([{}] * args.pairs,
                                   lambda side, _: probe_run(dirs[side], probe, threads)):
                specs = [{"name": case, "better": "lower"} for case in pairs[0]["parent"]]
                entry.update(pairs=pairs, summary=summarize(specs, per_side(pairs)))
                save(f"{probe} {threads}", pairs)
    for workload, entry in report["workloads"].items():
        failed = {side: f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
                  for side, runs in per_side(entry["pairs"]).items()}
        print(f"{workload} failed ops: {failed}")  # a gain does not count if more ops fail
        show(workload, entry["summary"])
        show(f"{workload} traced", entry["traced"]["summary"])
    for probe, by_threads in report["probes"].items():
        for threads, entry in by_threads.items():
            show(f"{probe} {threads}", entry["summary"])
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:  # one side of a probe pair, started by probe_run
        worker(Path(sys.argv[2]), sys.argv[3], sys.argv[4])
        sys.exit(0)
    sys.exit(main())
