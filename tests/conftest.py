import numpy as np
import pytest

from closure14.potentials import LAB, MultiplierState
from closure14.symtensor import SymMatrix


@pytest.fixture(params=[5e-4, 1e-2], ids=["eps5e-4", "eps1e-2"])
def noneq_lab_state(request):
    """Lab state with every multiplier off equilibrium, at magnitude eps.

    lam_i, lam_ill and lam_iill are all nonzero, so a boost of this state
    exercises every term of the transformation laws.
    """
    eps = request.param
    rng = np.random.default_rng(11)
    return MultiplierState(
        frame=LAB,
        lam=0.2,
        lam_i=eps * rng.uniform(-1, 1, 3),
        lam_ij=SymMatrix(np.eye(3) / 3.0 + eps * rng.uniform(-1, 1, (3, 3))),
        lam_ill=eps * rng.uniform(-1, 1, 3),
        lam_iill=eps * rng.uniform(0.1, 0.5),
    )
