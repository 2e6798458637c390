"""Tilted-generator route to the avalanche cumulant generating function.

Off-diagonal entries of the forward generator are reweighted by
exp(alpha * dGlobal + beta * dDiamond), the exponential tilt conjugate to
the two avalanche counters.  The largest eigenvalue of the tilted matrix
is the scaled cumulant generating function of the pair of currents, and
its gradient at the origin recovers the long-run drifts.  Everything here
is numerical and independent of the exact stationary solver on purpose:
agreement of the two routes is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .profiles import transition_table

_DENSE_FALLBACK_DIM = 512
_TOLERANCE = 1e-13
_DEFAULT_MAX_ITERATIONS = 1_000_000
_STALL_LIMIT = 500


class ConvergenceError(RuntimeError):
    """An iterative eigensolve could not reach the requested tolerance."""


@dataclass(frozen=True)
class DeformedParams:
    """Tilt strengths; (0, 0) is the undeformed stochastic point."""
    alpha: float = 0.0
    beta: float = 0.0


@dataclass(frozen=True)
class SCGFResult:
    """Largest-eigenvalue report.

    residual is a certified enclosure width for the iterative path (the
    true Perron root lies within residual of lambda_value) and the
    imaginary leakage of the selected root for the dense path.
    """
    lambda_value: float
    residual: float
    iterations: int
    method: str = "power-iteration"


def build_deformed(length: int,
                   params: DeformedParams = DeformedParams()) -> sp.csr_matrix:
    """Tilted generator on the enumerated basis, a float64 CSR matrix.

    Entry (target, source) collects exp(alpha*dGlobal + beta*dDiamond)
    over the sites realizing that move; reflections stay weight one and
    cancel against their own loss term, so the diagonal is minus the
    number of non-reflecting sites.  At (0, 0) this is the plain forward
    generator, entry for entry.  Non-finite move weights are refused.
    """
    table = transition_table(length)
    n = len(table.states)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(params.alpha * table.d_global + params.beta * table.d_diamond)
    if not np.isfinite(weights).all():
        raise ValueError(f"tilt (alpha, beta) = ({params.alpha}, {params.beta}) "
                         "gives non-finite move weights")
    diagonal = np.arange(n)
    rows = np.concatenate([table.target.ravel(), diagonal])
    cols = np.concatenate([np.repeat(diagonal, length), diagonal])
    values = np.concatenate([weights.ravel(), np.full(n, -float(length))])
    return sp.csr_matrix((values, (rows, cols)), shape=(n, n))


def largest_eigenvalue(matrix: sp.spmatrix | np.ndarray,
                       max_iterations: int = _DEFAULT_MAX_ITERATIONS) -> SCGFResult:
    """Perron root of a shifted-nonnegative matrix, with certified bounds.

    Power iteration runs on matrix + shift*I (shift clearing the diagonal
    sign), and stops once the classical two-sided quotient bounds
    min (Av)_i/v_i <= rho <= max (Av)_i/v_i pinch to within _TOLERANCE.  If
    the enclosure stalls above it, small problems fall back to a dense
    eigensolve; large ones raise ConvergenceError with diagnostics.
    """
    a = sp.csr_matrix(matrix, dtype=float)
    n = a.shape[0]
    entries = a.tocoo()
    if (entries.data[entries.row != entries.col] < 0.0).any():
        raise ValueError("matrix has negative off-diagonal entries")
    # the extra unit keeps the diagonal strictly positive: the shifted
    # matrix is then primitive, not merely irreducible, and the quotient
    # bounds pinch geometrically
    shift = max(0.0, -float(a.diagonal().min())) + 1.0
    shifted = a + shift * sp.identity(n, format="csr")
    v = np.full(n, 1.0 / np.sqrt(n))
    best_width = np.inf
    stalled = 0
    iterations = 0
    width = np.inf
    lo = hi = 0.0
    for iterations in range(1, max_iterations + 1):
        w = shifted @ v
        quotients = w / v
        lo, hi = float(quotients.min()), float(quotients.max())
        width = hi - lo
        if width < _TOLERANCE:
            return SCGFResult(0.5 * (lo + hi) - shift, width, iterations)
        if width < 0.999 * best_width:
            best_width, stalled = width, 0
        else:
            stalled += 1
            if stalled > _STALL_LIMIT:
                break
        v = w / np.linalg.norm(w)
    if n < _DENSE_FALLBACK_DIM:
        eigenvalues = np.linalg.eigvals(shifted.toarray())
        top = eigenvalues[int(np.argmax(eigenvalues.real))]
        return SCGFResult(float(top.real) - shift, float(abs(top.imag)),
                          iterations, method="dense-fallback")
    raise ConvergenceError(
        f"Perron enclosure stalled at width {width:.3e} after "
        f"{iterations} iterations (tol {_TOLERANCE:.1e}, dimension {n})")


def scgf_value(length: int,
               params: DeformedParams = DeformedParams()) -> SCGFResult:
    """Largest eigenvalue of the tilted generator at the given tilt."""
    return largest_eigenvalue(build_deformed(length, params))


def scgf_derivatives(length: int, h_step: float = 1e-3) -> tuple[float, float]:
    """Gradient of the cumulant generating function at the origin.

    Central differences at steps h and h/2 combined by one Richardson
    step; the truncation error is then far below the eigenvalue enclosure
    noise.  Returns (d/dalpha, d/dbeta), i.e. the global-avalanche and
    evacuated-tile currents.
    """
    if not 0.0 < h_step <= 1e-3:
        raise ValueError(f"h_step must lie in (0, 1e-3], got {h_step}")

    def lam(alpha: float, beta: float) -> float:
        return scgf_value(length, DeformedParams(alpha, beta)).lambda_value

    def central(axis: int, h: float) -> float:
        plus = lam(h, 0.0) if axis == 0 else lam(0.0, h)
        minus = lam(-h, 0.0) if axis == 0 else lam(0.0, -h)
        return (plus - minus) / (2.0 * h)

    def richardson(axis: int) -> float:
        return (4.0 * central(axis, h_step / 2) - central(axis, h_step)) / 3.0

    return richardson(0), richardson(1)


def perron_gap(matrix: sp.spmatrix | np.ndarray) -> float:
    """Modulus gap between the two leading eigenvalues of the shifted matrix.

    Dense-only diagnostic confirming the Perron root is simple.
    """
    a = sp.csr_matrix(matrix, dtype=float).toarray()
    n = a.shape[0]
    if n >= _DENSE_FALLBACK_DIM:
        raise ValueError("gap diagnostic is dense-only; matrix too large")
    shift = max(0.0, -float(a.diagonal().min())) + 1.0
    moduli = np.sort(np.abs(np.linalg.eigvals(a + shift * np.eye(n))))
    return float(moduli[-1] - moduli[-2])
