"""Layer probes for ``verify`` and ``cli``: the layers no listed workload calls.

A traced run calls :func:`verify_layers` once, on every workload.  It runs
the eight ``verify.check_*`` functions with the arguments ``run_all`` gives
them at the workload seed (inputs from ``verify.TestPointSet``), one span
each, and then times ``closure14 verify`` with ``run_all`` answered at once
by the report those checks built, which leaves the CLI's own time.
"""

from __future__ import annotations

import contextlib
import io
import os
from unittest import mock

import numpy as np

from closure14 import cli, kinetic, verify
from closure14.coeffs import make_family

CHECKS = (
    "constraints",
    "ladder",
    "scalar_identity_chain",
    "closed_forms",
    "compatibility",
    "velocity_independence",
    "kinetic_equivalence",
    "subsystem",
)
CLI_REPEATS = 5


def _check_calls(f, kernel, cfg: verify.VerifyConfig):
    """The eight checks with the arguments ``verify.run_all`` passes them."""
    pts = verify.TestPointSet(seed=cfg.seed, count=cfg.count,
                              noneq_magnitude=cfg.noneq_magnitude, N=cfg.N, S=cfg.S)
    scalar_pts = pts.scalar_points()
    return {
        "constraints": lambda: verify.check_constraints(f, scalar_pts, cfg.S),
        "ladder": lambda: verify.check_ladder(
            f, range(min(4, f.s_max - 1) + 1), np.linspace(-1.0, 1.0, 9)),
        "scalar_identity_chain": lambda: verify.check_scalar_identity_chain(
            f, cfg.pq_max, cfg.pq_max, 2, scalar_pts[:3], S=cfg.S),
        "closed_forms": lambda: verify.check_closed_forms(
            f, cfg.pq_max, cfg.pq_max, scalar_pts[:3], S=cfg.S),
        "compatibility": lambda: verify.check_compatibility(
            f, pts.hatted_states(), cfg.N, cfg.S),
        "velocity_independence": lambda: verify.check_velocity_independence(
            f, pts.equilibrium_lab_states()[:3], cfg.v_scales, cfg.N, cfg.S),
        "kinetic_equivalence": lambda: verify.check_kinetic_equivalence(
            f, kernel, pts.scalar_points(with_ppqq=False)[: cfg.kinetic_points],
            pq_total_max=cfg.kinetic_pq_total_max, S=cfg.S),
        "subsystem": lambda: verify.check_subsystem(
            f, np.linspace(-1.0, 1.0, 5), q_max=min(6, 2 * f.s_max - 2)),
    }


def verify_layers(tracer, seed: int, workdir: str) -> verify.VerificationReport:
    """Span each check once and the CLI CLI_REPEATS times; return the report."""
    f = make_family("exponential")
    kernel = kinetic.exponential_kernel()
    cfg = verify.VerifyConfig(seed=seed)
    report = verify.VerificationReport()
    for name, fn in _check_calls(f, kernel, cfg).items():
        report.extend(tracer.call(f"verify.check_{name}", fn))
    report.sort()

    argv = ["verify", "--seed", str(seed), "--out", os.path.join(workdir, "probe-report.json")]
    with mock.patch.object(verify, "run_all", lambda *a, **kw: report), \
            contextlib.redirect_stderr(io.StringIO()):
        for _ in range(CLI_REPEATS):
            tracer.call("cli.self", cli.main, argv)
    return report
