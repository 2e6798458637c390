"""Raise and peel dynamics on a ring, solved three independent ways.

The package studies a continuous-time adsorption/desorption interface
whose stable shapes are cyclic nonnegative height profiles.  Avalanche
currents and stationary observables are computed along three routes that
share the model (``profiles`` and its transition table) and never a
solver: exact rational stationary states of the finite chain,
tilted-generator cumulant functions, and closed-form polynomial
identities of Baxter type, with a twisted spin-chain representation
bridging the probabilistic and algebraic sides.  A kinetic Monte Carlo
sampler provides the statistical cross-check.

Submodules:

- ``profiles``   height-profile state space, moves, counters, transition table
- ``simulate``   continuous-time Monte Carlo sampling and batch statistics
- ``stationary`` exact rational stationary vectors, drifts, peak means
- ``scgf``       tilted generators and the cumulant generating function
- ``qfield``     exact arithmetic over rationals adjoined a sixth root of unity
- ``tq``         polynomial functional relations and closed-form growth rates
- ``spinchain``  twisted spin-chain operators and the energy bridge
- ``cli``        command-line driver (``raisepeel`` console script)
"""

from .profiles import (
    EventCounters,
    MoveClass,
    TransitionRecord,
    apply_move,
    classify_move,
    count_peaks,
    enumerate_states,
    in_omega_global,
    substrate,
    tile_count,
    transitions,
)
from .qfield import Polynomial, QFieldElement, Q_GEN
from .scgf import (
    ConvergenceError,
    DeformedParams,
    SCGFResult,
    build_deformed,
    largest_eigenvalue,
    scgf_derivatives,
    scgf_value,
)
from .simulate import Estimate, SimConfig, TrajectorySummary, pooled_estimate, run_ensemble
from .spinchain import (
    BridgeParameters,
    XXZParams,
    bridge_parameters,
    build_xxz,
    ground_energy,
    lambda_bridge,
    tl_generator_matrix,
    tl_relations_check,
)
from .stationary import (
    StationaryVector,
    build_generator,
    exact_drifts,
    expected_peaks,
    prob_omega_global,
    stationary_distribution,
)
from .tq import (
    boundary_values,
    hypergeometric_check,
    lambda_alpha,
    lambda_alpha_formula,
    lambda_beta,
    lambda_beta_formula,
    lambda_from_roots,
    q_poly,
    recurrence_check,
    verify_tq,
    verify_wronskian,
)

__version__ = "0.1.0"

__all__ = [
    "BridgeParameters",
    "ConvergenceError",
    "DeformedParams",
    "Estimate",
    "EventCounters",
    "MoveClass",
    "Polynomial",
    "QFieldElement",
    "Q_GEN",
    "SCGFResult",
    "SimConfig",
    "StationaryVector",
    "TrajectorySummary",
    "TransitionRecord",
    "XXZParams",
    "apply_move",
    "boundary_values",
    "bridge_parameters",
    "build_deformed",
    "build_generator",
    "build_xxz",
    "classify_move",
    "count_peaks",
    "enumerate_states",
    "exact_drifts",
    "expected_peaks",
    "ground_energy",
    "hypergeometric_check",
    "in_omega_global",
    "lambda_alpha",
    "lambda_alpha_formula",
    "lambda_beta",
    "lambda_beta_formula",
    "lambda_bridge",
    "lambda_from_roots",
    "largest_eigenvalue",
    "pooled_estimate",
    "prob_omega_global",
    "q_poly",
    "recurrence_check",
    "run_ensemble",
    "scgf_derivatives",
    "scgf_value",
    "stationary_distribution",
    "substrate",
    "tile_count",
    "tl_generator_matrix",
    "tl_relations_check",
    "transitions",
    "verify_tq",
    "verify_wronskian",
    "__version__",
]
