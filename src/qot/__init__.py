"""Quantum optimal transport distances for finite-dimensional states.

The package solves the linearized transport problem between density
matrices and its operator-potential dual as semidefinite programs, checks
the strong-duality gap numerically, and evaluates the known closed-form
qubit results (distances, divergences, optimal couplings and potentials)
as independent witnesses against the solver.
"""

from . import closedform, cost, linalg, sdp, suites, transport
from .closedform import state_from_bloch
from .cost import cost_symm, cost_z, observable_set, pauli_triple, sigma_z_observable
from .sdp import SdpProblem, SdpSolution, certify, sdp_problem, solve
from .transport import (
    Coupling,
    DualPotentials,
    TransportInstance,
    TransportResult,
    factorized_instance,
    gap_demo,
    general_instance,
    is_coupling,
    joint_instance,
    purification_coupling,
    symm_instance,
    trivial_coupling,
    wasserstein_distance,
    z_instance,
)

__version__ = "0.1.0"

__all__ = [
    "closedform",
    "cost",
    "linalg",
    "sdp",
    "suites",
    "transport",
    "state_from_bloch",
    "cost_symm",
    "cost_z",
    "observable_set",
    "pauli_triple",
    "sigma_z_observable",
    "SdpProblem",
    "SdpSolution",
    "certify",
    "sdp_problem",
    "solve",
    "Coupling",
    "DualPotentials",
    "TransportInstance",
    "TransportResult",
    "factorized_instance",
    "gap_demo",
    "general_instance",
    "is_coupling",
    "joint_instance",
    "purification_coupling",
    "symm_instance",
    "trivial_coupling",
    "wasserstein_distance",
    "z_instance",
    "__version__",
]
