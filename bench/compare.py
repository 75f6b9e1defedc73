#!/usr/bin/env python3
"""Compare the benchmark of two checkouts in alternating pairs of runs.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --workload coeffs [kinetic ...] \\
        --pairs 10 --first-seed N --out BENCH_<n>.json

The benchmark command and its run length are the ``command`` and
``run_seconds`` of the change's ``BENCHMARK.json``.  For each workload, pair i
runs the command with ``--trace 0`` once in each checkout with seed N + i; the
side that runs first alternates from pair to pair.  Then ``TRACED_RUNS``
``--trace 1`` runs per side, at seeds N + pairs onwards and again alternating
the side that runs first, record the ``coeffs.*``, ``potentials.*``,
``kinetic.*`` and ``verify.*`` layer metrics of each run and their per-side
median; one traced run is too noisy to resolve a layer.  The output holds the
command, the run length, the environment, every run's metrics, per-side
medians and quartiles of the end-to-end metrics declared in
``BENCHMARK.json``, and the number of pairs the change won on each.  It is
rewritten after every run, so an interrupted comparison keeps the runs it made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
LAYER_PREFIXES = ("coeffs.", "potentials.", "kinetic.", "verify.")
TRACED_RUNS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def bench_run(bench: dict, checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One run of the benchmark command in ``checkout``; its provenance and result."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall_s = time.perf_counter() - t0
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"compare: {' '.join(cmd)} in {checkout} failed:\n{res.stderr[-2000:]}")
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("provenance "))
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": round(wall_s, 2),
        "commit": provenance["commit"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "provenance": provenance,
    }


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per-side median and quartiles of each metric, and the change's wins."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        stats = {}
        for side, vals in values.items():
            q1, q2, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                          if len(vals) > 1 else (vals[0],) * 3)
            stats[side] = {"median": q2, "q1": q1, "q3": q3}
        gain = sign * (stats["change"]["median"] - stats["parent"]["median"])
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            **stats,
            "change_wins": sum(sign * (c - p) > 0
                               for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "median_ratio": stats["change"]["median"] / stats["parent"]["median"],
            "gain_beats_parent_quartile_spread":
                gain > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return out


def layer_metrics(run: dict) -> dict:
    return {k: v for k, v in run["metrics"].items() if k.startswith(LAYER_PREFIXES)}


def main(argv=None) -> int:
    args = parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    report = {"env": {}, "command": bench["command"], "run_seconds": bench["run_seconds"],
              "first_seed": args.first_seed, "workloads": {}}

    def save():
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    for workload in args.workload:
        entry = report["workloads"][workload] = {"pairs": [], "summary": {}, "traced": {}}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = bench_run(bench, dirs[side], workload, seed, trace=0)
                prov = run.pop("provenance")
                report["env"].setdefault("python", prov["python"])
                report["env"].setdefault("numpy", prov["numpy"])
                report["env"].setdefault("scipy", prov["scipy"])
                report["env"].setdefault("nproc", prov["nproc"])
                report["env"].setdefault("commits", {})[side] = run["commit"]
                pair[side] = run
                print(f"{workload} seed {seed} {side}: {run['metrics']}", flush=True)
            entry["pairs"].append(pair)
            entry["summary"] = summarize(entry["pairs"], bench["end_to_end"])
            save()
        traced = entry["traced"] = {side: {"runs": [], "median": {}} for side in SIDES}
        for i in range(TRACED_RUNS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = bench_run(bench, dirs[side], workload, args.first_seed + args.pairs + i,
                                trace=1)
                runs = traced[side]["runs"]
                runs.append({"seed": run["seed"], "correct": run["correct"],
                             "failed": run["failed"], **layer_metrics(run)})
                traced[side]["median"] = {name: statistics.median(r[name] for r in runs)
                                          for name in layer_metrics(run)}
                save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
