"""Finite-difference helpers with a uniform accuracy model.

All derivative checks use 4th-order central stencils with step
h = max(1, |x|) * eps**(1/5), and relative residuals are scaled by the
larger side, floored at 1e-30 to avoid 0/0 at structural zeros.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)
RESIDUAL_FLOOR = 1e-30


def fd_step(x: float) -> float:
    return max(1.0, abs(x)) * EPS ** 0.2


def central_diff(fn, x: float, h: float | None = None):
    """4th-order central first derivative; fn may return scalars or arrays."""
    if h is None:
        h = fd_step(x)
    fm2 = np.asarray(fn(x - 2 * h), dtype=float)
    fm1 = np.asarray(fn(x - h), dtype=float)
    fp1 = np.asarray(fn(x + h), dtype=float)
    fp2 = np.asarray(fn(x + 2 * h), dtype=float)
    out = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
    return float(out) if out.ndim == 0 else out


def rel_residual_sym(a, b) -> float:
    """Relative deviation of two quantities, scaled by the larger side."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(
        float(np.max(np.abs(a))) if a.size else 0.0,
        float(np.max(np.abs(b))) if b.size else 0.0,
        RESIDUAL_FLOOR,
    )
    return float(np.max(np.abs(a - b))) / scale
