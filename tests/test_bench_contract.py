"""The benchmark in ``perfbench/`` still runs against this checkout.

perfbench calls public names of the package, such as ``k_series(None, ...)``,
the ``VerifyConfig`` fields and plan constants, ``TestPointSet(N=, S=)`` and
``symtensor.delta_contract``.  An API change that drops one of them fails
here, not first in a benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from closure14.coeffs import tensor_series
from closure14.errors import TruncationError

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


def test_closed_series_is_never_the_production_series(monkeypatch):
    # the potentials gate's second route walks the step rules from k00; a cell
    # it shares with tensor_series would be compared with itself
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    checked = 0
    for S in range(5):
        for p in range(7):
            for q in range(7 - p):
                for r in range((6 - p - q) // 2 + 1):
                    try:
                        production = tensor_series(p, q, r, S)
                    except TruncationError:
                        with pytest.raises(TruncationError):
                            workloads.closed_series(p, q, r, S)
                        continue
                    closed = workloads.closed_series(p, q, r, S)
                    assert closed is not production, (p, q, r, S)
                    assert closed.terms == production.terms, (p, q, r, S)
                    checked += 1
    assert checked == 200
