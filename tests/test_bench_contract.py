"""The benchmark in ``perfbench/`` still runs against this checkout.

perfbench calls public names of the package, such as ``k_series(None, ...)``,
the ``VerifyConfig`` fields and plan constants, ``TestPointSet(N=, S=)`` and
``symtensor.delta_contract``.  An API change that drops one of them fails
here, not first in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench(*args):
    res = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    return res.stdout


def test_selftest_passes():
    bench("perfbench/selftest.py", "--seed", "0")


def test_traced_kinetic_run_fails_no_op():
    # run.py exits 0 whatever the verdicts, and an op that raises counts as failed
    out = bench("perfbench/run.py", "--workload", "kinetic", "--seed", "1",
                "--seconds", "1", "--trace", "1")
    result = json.loads(out.splitlines()[-1])
    assert result["attempted"] > 0 and result["failed"] == 0, result
