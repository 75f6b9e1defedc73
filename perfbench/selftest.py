#!/usr/bin/env python3
"""Self-test of the benchmark's gates and counters.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout.  For each workload it runs a few ops and
checks that:

* with a family whose derivative oracle is wrong (instantiated directly,
  so the ladder gate is skipped), the gate fails every op, and on every op
  with a failure that makes the run incorrect (``correct`` false), not
  only with compatibility misses inside the finite-difference band;
* without faults, ``potentials``, ``coeffs`` and ``kinetic`` fail no op;
* each gate gives the same verdict with the counting wrappers as without;
* the per-op oracle and kernel counts repeat exactly when the ops run again.

Prints one line per workload and exits 1 when any check does not hold.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile

import run

OPS = {"verify": 1, "moments": 3, "potentials": 4, "coeffs": 4, "kinetic": 4}
MUST_BE_CLEAN = ("potentials", "coeffs", "kinetic")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run.load_program()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=run.OUT)
    ok = True
    try:
        for name, n in OPS.items():
            wl = workloads.WORKLOADS[name](args.seed, workdir)
            plain = workloads.plain_context(name)
            inputs = [wl.inputs(i) for i in range(1, n + 1)]

            def verdicts(ctx):
                return [run.run_op(wl, inp, ctx)[1] for inp in inputs]

            def counted():
                ctx = workloads.counting_context(plain)
                out = []
                for inp in inputs:
                    ctx.reset_counts()
                    out.append((run.run_op(wl, inp, ctx)[1], ctx.counts()))
                return out

            clean = verdicts(plain)
            faulty = verdicts(workloads.faulty_context(plain))
            first, second = counted(), counted()
            checks = {
                "fault fails every op": all(faulty),
                "fault makes the run incorrect": all(map(workloads.is_unexpected, faulty)),
                "clean run fails no op": name not in MUST_BE_CLEAN or not any(clean),
                "traced verdicts agree": [v for v, _ in first] == clean,
                "counts repeat": first == second,
            }
            ok &= all(checks.values())
            failed = ", ".join(k for k, v in checks.items() if not v) or "none"
            print(f"{name}: {n} ops; clean failures {sum(map(bool, clean))}, "
                  f"faulty failures {sum(map(bool, faulty))}; "
                  f"counts {[c for _, c in first]}; checks not holding: {failed}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
