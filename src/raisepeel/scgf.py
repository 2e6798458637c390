"""Tilted-generator route to the avalanche cumulant generating function.

Off-diagonal entries of the forward generator are reweighted by
exp(alpha * dGlobal + beta * dDiamond), the exponential tilt conjugate to
the two avalanche counters.  The largest eigenvalue of the tilted matrix
is the scaled cumulant generating function of the pair of currents, and
its gradient at the origin recovers the long-run drifts.  Each Perron
root comes from a power iteration on one matrix with a certified quotient
enclosure, read every _STRIDE steps (every step once the enclosure stops
narrowing); the Richardson stencil solves its eight tilts one at a time.
The iteration starts from the modulus of ARPACK's Perron vector (R. B.
Lehoucq, D. C. Sorensen and C. Yang, ARPACK Users' Guide, SIAM 1998),
which removes the slow modes before the first matvec; ARPACK's eigenvalue
is discarded, and the value and its certificate come from the enclosure
alone, which holds for any positive start vector.  Everything here is
numerical and independent of the exact stationary solver on purpose:
agreement of the two routes is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from .profiles import ConvergenceError, transition_table

log = logging.getLogger(__name__)

_TOLERANCE = 1e-13
_MAX_ITERATIONS = 1_000_000
_STALL_LIMIT = 500
_STRIDE = 8
# ARPACK's Krylov dimension for the power iteration's start vector; a
# matrix of at most this many rows starts from ones (ARPACK needs
# ncv <= n).  On a 2-core machine eigs at n = 924 takes about 2 ms up to
# ncv = 8 and 8 ms from ncv = 10, where OpenBLAS starts threads in the
# dense Schur step.
_KRYLOV_DIM = 8


@dataclass(frozen=True)
class DeformedParams:
    """Tilt strengths; (0, 0) is the undeformed stochastic point."""
    alpha: float = 0.0
    beta: float = 0.0


@dataclass(frozen=True)
class SCGFResult:
    """Largest-eigenvalue report.

    residual is always the width of the certified enclosure, below
    _TOLERANCE, whose midpoint is lambda_value; method is always
    "power-iteration".
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
    # the counters are int8: an integer tilt must not multiply them in int8
    d_global = table.d_global.astype(np.float64)
    d_diamond = table.d_diamond.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(params.alpha * d_global + params.beta * d_diamond)
    if not np.isfinite(weights).all():
        raise ValueError(f"tilt (alpha, beta) = ({params.alpha}, {params.beta}) "
                         "gives non-finite move weights")
    diagonal = np.arange(n)
    rows = np.concatenate([table.target.ravel(), diagonal])
    cols = np.concatenate([np.repeat(diagonal, length), diagonal])
    values = np.concatenate([weights.ravel(), np.full(n, -float(length))])
    return sp.csr_matrix((values, (rows, cols)), shape=(n, n))


def _power_of_two_below(bound: float) -> float:
    """The power of two in (bound/2, bound], for bound >= 1."""
    return math.ldexp(1.0, math.frexp(bound)[1] - 1)


def _arpack_seed(matrix: sp.csr_matrix) -> np.ndarray | None:
    """Modulus of ARPACK's Perron vector of a shifted, scaled matrix, its
    largest entry one.

    None for a matrix of at most _KRYLOV_DIM rows, when ARPACK does not
    converge, or when the vector is not a Perron vector: an entry is not
    finite, or, divided by the largest entry, not of positive real part.
    """
    n = matrix.shape[0]
    if n <= _KRYLOV_DIM:
        return None
    try:
        _, vectors = eigs(matrix, k=1, which="LM", tol=0, v0=np.ones(n), ncv=_KRYLOV_DIM)
    except ArpackNoConvergence:
        return None
    vector = vectors[:, 0]
    seed = np.abs(vector)
    top = int(np.argmax(seed))
    if not (np.isfinite(seed).all() and seed[top] > 0.0
            and ((vector / vector[top]).real > 0.0).all()):
        return None
    return seed / seed[top]


def largest_eigenvalue(matrix: sp.spmatrix | np.ndarray) -> SCGFResult:
    """Perron root of a square shifted-nonnegative matrix, certified.

    Power iteration runs on matrix + shift*I, the shift clearing the
    diagonal sign.  A matrix of more than _KRYLOV_DIM rows starts from the
    modulus of ARPACK's Perron vector of the shifted, scaled matrix (a
    Krylov space of _KRYLOV_DIM vectors from ones), kept only when every
    entry is finite and, with one common phase divided out, strictly
    positive; any other matrix, and one whose ARPACK run does not
    converge, starts from ones.  ARPACK's eigenvalue is discarded, and
    iterations counts power matvecs only.  Every _STRIDE matvecs the
    classical two-sided quotient bounds min (Av)_i/v_i <= rho <= max
    (Av)_i/v_i are read, and the root is returned when the enclosure first
    pinches below _TOLERANCE.  Since Av <= max-quotient * v componentwise,
    the matrix is divided by the power of two just below the upper bound
    (the row sums before the first check): the unnormalised steps between
    checks grow the iterate at most twofold each, and no quotient loses a
    digit.  A narrower enclosure counts as progress only while float64 can
    still resolve _TOLERANCE at the root's lower bound; after a check
    without progress, the next check comes one matvec later.  The root is
    the midpoint of the first enclosure narrower than _TOLERANCE, and
    residual its width.  Without progress for _STALL_LIMIT matvecs
    ("stalled"), or still open after _MAX_ITERATIONS, ConvergenceError is
    raised; it names the narrowest enclosure seen, the row sums' included,
    and a stall quotes that enclosure's width.
    """
    a = sp.csr_matrix(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    # the extra unit keeps the diagonal strictly positive: the shifted
    # matrix is then primitive, not merely irreducible, and the quotient
    # bounds pinch geometrically
    shift = max(0.0, -float(a.diagonal().min())) + 1.0
    a = a + sp.csr_matrix((np.full(n, shift), np.arange(n), np.arange(n + 1)), shape=(n, n))
    # every negative entry left is off the diagonal
    if (a.data < 0.0).any():
        raise ValueError("matrix has negative off-diagonal entries")
    # the start vector is all ones, so its quotients are the row sums
    row_sums = a @ np.ones(n)
    if not np.isfinite(row_sums).all():
        raise ValueError("matrix row sums are not finite in float64")
    lo, hi = float(row_sums.min()), float(row_sums.max())
    best = hi - lo
    narrowest = (lo, hi)
    scale = 1.0

    def rescale(bound: float) -> None:
        nonlocal scale
        new_scale = _power_of_two_below(bound)
        if new_scale != scale:
            a.data *= scale / new_scale
            scale = new_scale

    rescale(hi)
    # the row-sum bounds above hold for any start vector; the scaled matrix
    # has row sums below 2, so no start with largest entry one can grow
    # more than twofold per step
    seed = _arpack_seed(a)
    v, start = (np.ones(n), "ones") if seed is None else (seed, "arpack")

    def report(iterations: int, method: str) -> None:
        log.debug("perron root (dimension %d): %s start, %d power matvecs, width %.3e, %s",
                  n, start, iterations, hi - lo, method)

    done = since_gain = 0
    while done < _MAX_ITERATIONS:
        # an enclosure at float64's noise floor makes no progress, and then
        # gets a chance to pinch at every step, as under a per-step check
        steps = min(_STRIDE if since_gain == 0 else 1, _MAX_ITERATIONS - done)
        for _ in range(steps - 1):
            v = a @ v
        w = a @ v
        done += steps
        with np.errstate(divide="ignore", invalid="ignore"):
            quotients = w / v
            lo, hi = float(quotients.min()) * scale, float(quotients.max()) * scale
            v = w / w.max()
        width = hi - lo
        if width < _TOLERANCE:
            report(done, "power-iteration")
            return SCGFResult(0.5 * (lo + hi) - shift, width, done)
        # a finite width means both ends are finite
        if width < narrowest[1] - narrowest[0]:
            narrowest = (lo, hi)
        if width < 0.999 * best and math.ulp(lo) <= _TOLERANCE:
            best, since_gain = width, 0
        else:
            since_gain += steps
            if since_gain >= _STALL_LIMIT:
                break
        if math.isfinite(hi):
            rescale(hi)

    report(done, "refused")
    low, high = narrowest
    if since_gain >= _STALL_LIMIT:
        verdict = f"stalled at width {high - low:.3e} after {done} matvecs"
    else:
        verdict = f"still open after {done} matvecs"
    detail = f"; narrowest enclosure [{low - shift!r}, {high - shift!r}]"
    if math.ulp(low) > _TOLERANCE:
        detail += (f"; float64 spacing {math.ulp(low):.1e} at the shifted lower bound "
                   f"{low:.6g} exceeds the tolerance")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        detail += "; the iterate left float64's range"
    raise ConvergenceError(f"Perron enclosure {verdict} (tol {_TOLERANCE:.1e}, "
                           f"dimension {n}){detail}")


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

    def tilt(axis: int, t: float) -> DeformedParams:
        return DeformedParams(t, 0.0) if axis == 0 else DeformedParams(0.0, t)

    lam = {(axis, h, sign):
           largest_eigenvalue(build_deformed(length, tilt(axis, sign * h))).lambda_value
           for axis in (0, 1) for h in (h_step, h_step / 2) for sign in (1.0, -1.0)}

    def central(axis: int, h: float) -> float:
        return (lam[axis, h, 1.0] - lam[axis, h, -1.0]) / (2.0 * h)

    def richardson(axis: int) -> float:
        return (4.0 * central(axis, h_step / 2) - central(axis, h_step)) / 3.0

    return richardson(0), richardson(1)
