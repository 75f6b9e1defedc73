#!/usr/bin/env python3
"""closure14 benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload {verify,moments,potentials,coeffs,kinetic} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(see README.md in this directory).  The exit code is 0 whenever the run
completed, whatever the verdicts; it is not 0 when the sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# set-up is measured in SETUP_SAMPLES fresh processes started at even steps
# through the run, so that they fall in different phases of a noisy host;
# the metric is their median
SETUP_SAMPLES = 8
SETUP_TIMEOUT_S = 150
# per-op counts are taken over ops 1..COUNT_OPS, so they repeat exactly
COUNT_OPS = 2
# a traced run keeps this many spans in memory; later ones are timed, not kept
KEPT_SPANS = 100_000


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "moments", "potentials", "coeffs", "kinetic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def load_program():
    """Import closure14 from this checkout's src/, never from site-packages."""
    if not (SRC / "closure14" / "__init__.py").is_file():
        sys.exit(f"perfbench: closure14 sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import closure14

    if not Path(closure14.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: closure14 imported from {closure14.__file__}, not {SRC}")


def run_op(wl, inp, ctx):
    """Time one op, then gate it.  Returns (seconds, failed check names)."""
    t0 = time.perf_counter()
    try:
        out = wl.op(inp, ctx)
        dt = time.perf_counter() - t0
        return dt, wl.gate(inp, out)
    except Exception as exc:  # a raising op is a failed op, never retried
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, [f"raised.{type(exc).__name__}"]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def provenance(wl) -> dict:
    import closure14
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "closure14": closure14.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": wl.name,
        "seed": wl.seed,
        "family": wl.family,
        "N": wl.N,
        "S": wl.S,
    }


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time measured by a fresh interpreter, not normalised.

    Scaling it by yardstick bursts timed around the fresh process, as op
    times are, made its spread larger, not smaller.
    """
    res = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT, check=True,
    )
    return json.loads(res.stdout.splitlines()[-1])["setup_s"]


def untraced(wl, ctx, seconds, first):
    from speed import Yardstick

    yardstick = Yardstick()
    verdicts, raw, norm, setups = [first], [], [], []
    start = time.perf_counter()
    setup_wall = 0.0  # time spent in set-up samples, not counted as run time
    i = 1
    while not raw or time.perf_counter() - start - setup_wall < seconds:
        if len(setups) < SETUP_SAMPLES and \
                time.perf_counter() - start - setup_wall >= len(setups) * seconds / SETUP_SAMPLES:
            t0 = time.perf_counter()
            setups.append(setup_sample(wl.name, wl.seed))
            setup_wall += time.perf_counter() - t0
        before = yardstick.factor_now()
        dt, bad = run_op(wl, wl.inputs(i), ctx)
        raw.append(dt)
        norm.append(dt * 0.5 * (before + yardstick.factor_now()))
        verdicts.append(bad)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_SAMPLES:  # ops longer than a step can end the run first
        setups.append(setup_sample(wl.name, wl.seed))
    print(f"raw ops_per_s {len(raw) / sum(raw)} op_p50_ms {statistics.median(raw) * 1e3} "
          f"yardstick_p50_ms {statistics.median(yardstick.samples) * 1e3} over {len(raw)} ops; "
          f"set-up samples {' '.join(f'{x:.4f}' for x in setups)}")
    metrics = {
        "ops_per_s": (len(norm) / sum(norm), "1/s"),
        "op_p50_ms": (statistics.median(norm) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return verdicts, metrics, True


def traced(wl, ctx, seconds, first):
    import probes
    import workloads
    from closure14 import symtensor
    from spans import Tracer, profile_call

    tracer = Tracer(keep=KEPT_SPANS)
    tctx = dataclasses.replace(ctx, tracer=tracer)
    start = time.perf_counter()
    tracer.op = "verify"
    report = probes.verify_layers(tracer, wl.seed, wl.workdir)

    verdicts, inputs, plain_s, traced_s = [first], [], [], []
    agree = True
    i = 1
    while i <= COUNT_OPS or time.perf_counter() - start < seconds:
        inp = wl.inputs(i)
        dt, bad = run_op(wl, inp, ctx)
        tracer.op = i
        with tracer.span(f"op.{wl.name}"):
            dt_traced, bad_traced = run_op(wl, inp, tctx)
        agree &= bad == bad_traced
        inputs.append(inp)
        plain_s.append(dt)
        traced_s.append(dt_traced)
        verdicts.append(bad)
        i += 1

    # counts come from ops 1..COUNT_OPS run once more with the counting
    # wrappers, so that the spans above time the program without them
    cctx = workloads.counting_context(ctx)
    counts, kin_oracle_s = [], []
    for inp, bad in zip(inputs[:COUNT_OPS], verdicts[1:]):
        cctx.reset_counts()
        agree &= run_op(wl, inp, cctx)[1] == bad
        counts.append(cctx.counts())
        kin_oracle_s.append(cctx.oracle_seconds("kin_family_oracle"))

    dc_calls, dc_share = profile_call(lambda: run_op(wl, inputs[0], ctx),
                                      symtensor.delta_contract.__code__)
    tracer.op = "probe"
    wl.layer_probes(tracer, ctx, inputs)
    tracer.write(OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl")

    durations = tracer.durations()

    def median_span(name, scale):
        """Median kept span; 0 when the workload makes no such call."""
        return statistics.median(durations[name]) * scale if name in durations else 0.0

    def per_op(key):
        return statistics.mean(c.get(key, 0) for c in counts)

    terms = wl.series_terms()
    k_pq_totals = tracer.per_op_totals("coeffs.k_pq")
    kin_oracle_calls = sum(c.get("kin_family_oracle", 0) for c in counts)
    metrics = {
        "symtensor.delta_contract.calls": (dc_calls, "count"),
        "symtensor.delta_contract.share": (dc_share * 100.0, "%"),
        **{f"symtensor.delta_contract.us.r{r}": (median_span(f"symtensor.delta_contract.r{r}",
                                                             1e6), "us") for r in (4, 6, 8)},
        "coeffs.series_eval.us_per_term": (
            statistics.median(k_pq_totals) / terms * 1e6 if terms and k_pq_totals else 0.0, "us"),
        "coeffs.family_oracle.calls": (per_op("family_oracle"), "count"),
        **{f"potentials.{fn}.n{n}.us": (median_span(f"potentials.{fn}.n{n}", 1e6), "us")
           for fn in ("eval_h_hat", "eval_phi_hat") for n in (4, 6)},
        "potentials.moments_from_potentials.ms": (
            median_span("potentials.moments_from_potentials", 1e3), "ms"),
        "potentials.lab_moments_from_rest.us": (
            median_span("potentials.lab_moments_from_rest", 1e6), "us"),
        "potentials.lab_potentials.us": (median_span("potentials.lab_potentials", 1e6), "us"),
        "kinetic.kinetic_kpq.us": (median_span("kinetic.kinetic_kpq", 1e6), "us"),
        "kinetic.kernel_evals": (per_op("kernel"), "count"),
        "kinetic.family_oracle.calls": (per_op("kin_family_oracle"), "count"),
        "kinetic.family_oracle.us": (
            sum(kin_oracle_s) / kin_oracle_calls * 1e6 if kin_oracle_calls else 0.0, "us"),
        **{f"verify.check_{name}.ms": (median_span(f"verify.check_{name}", 1e3), "ms")
           for name in probes.CHECKS},
        "verify.records_failed": (report.summary()["failed"], "count"),
        "cli.self_ms": (median_span("cli.self", 1e3), "ms"),
        "trace.overhead_pct": (
            (statistics.median(traced_s) / statistics.median(plain_s) - 1.0) * 100.0, "%"),
    }
    print(f"traced {len(traced_s)} op pairs; kept {len(tracer.spans)} spans, "
          f"dropped {tracer.dropped}")
    return verdicts, metrics, agree


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    load_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ctx = workloads.plain_context(args.workload)
        _, first = run_op(wl, wl.inputs(0), ctx)
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print("provenance " + json.dumps(provenance(wl), sort_keys=True), flush=True)
        run = traced if args.trace else untraced
        verdicts, metrics, agree = run(wl, ctx, args.seconds, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(bool(v) for v in verdicts)
    kinds = sorted({name for v in verdicts for name in v})
    if kinds:
        print(f"failed ops {failed}/{len(verdicts)}; failing checks: {', '.join(kinds)}")
    if not agree:
        print("traced and untraced gate verdicts differ")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    result = {
        "correct": agree and not any(workloads.is_unexpected(v) for v in verdicts),
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
