"""Arbitrary-order macroscopic closure of the 14-moment model.

Scalar coefficient hierarchy, truncated entropy potentials, Galilean
boosts, a kinetic quadrature oracle, and a verification harness.
"""

from .coeffs import (
    CoefficientRequest,
    CoeffSeries,
    EquilibriumPoint,
    GeneratingFamily,
    SubsystemTable,
    h_pqr,
    k00,
    k_pq,
    ladder_factor,
    ladder_residual,
    make_family,
    phi_pqr,
    reduce_to_13,
)
from .errors import (
    AccuracyError,
    ClosureError,
    ConfigError,
    DecayError,
    DomainError,
    FamilyConstructionError,
    ParityError,
    TruncationError,
)
from .kinetic import (
    KineticKernel,
    exponential_kernel,
    kinetic_kpq,
    kinetic_ktilde,
    make_kinetic_family,
    poly_exponential_kernel,
)
from .potentials import (
    BoostVelocity,
    MomentSet,
    MultiplierState,
    PotentialPair,
    eval_h_hat,
    eval_phi_hat,
    hat_multipliers,
    lab_moments_from_rest,
    lab_potentials,
    moments_from_potentials,
)
from .symtensor import SymMatrix, delta_contract, deviator
from .verify import TestPointSet, VerificationReport, VerifyConfig, run_all

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BoostVelocity",
    "ClosureError",
    "CoefficientRequest",
    "CoeffSeries",
    "ConfigError",
    "DecayError",
    "DomainError",
    "EquilibriumPoint",
    "FamilyConstructionError",
    "GeneratingFamily",
    "KineticKernel",
    "MomentSet",
    "MultiplierState",
    "ParityError",
    "PotentialPair",
    "SubsystemTable",
    "SymMatrix",
    "TestPointSet",
    "TruncationError",
    "VerificationReport",
    "VerifyConfig",
    "delta_contract",
    "deviator",
    "eval_h_hat",
    "eval_phi_hat",
    "exponential_kernel",
    "h_pqr",
    "hat_multipliers",
    "k00",
    "k_pq",
    "kinetic_kpq",
    "kinetic_ktilde",
    "lab_moments_from_rest",
    "lab_potentials",
    "ladder_factor",
    "ladder_residual",
    "make_family",
    "make_kinetic_family",
    "moments_from_potentials",
    "phi_pqr",
    "poly_exponential_kernel",
    "reduce_to_13",
    "run_all",
]
