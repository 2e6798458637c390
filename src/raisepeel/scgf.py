"""Tilted-generator route to the avalanche cumulant generating function.

Off-diagonal entries of the forward generator are reweighted by
exp(alpha * dGlobal + beta * dDiamond), the exponential tilt conjugate to
the two avalanche counters.  The largest eigenvalue of the tilted matrix
is the scaled cumulant generating function of the pair of currents, and
its gradient at the origin recovers the long-run drifts.  Perron roots
come from one block power iteration: equal-size tilted matrices are
stacked block-diagonally and advanced by one matvec per step, each block
with its own certified quotient enclosure, read every _STRIDE steps (every
step once an enclosure stops narrowing); a single matrix is the one-block
case, and the Richardson stencil's eight tilts are one block solve.  Each
block starts from the modulus of ARPACK's Perron vector (R. B. Lehoucq,
D. C. Sorensen and C. Yang, ARPACK Users' Guide, SIAM 1998), which removes
the slow modes before the first matvec; ARPACK's eigenvalue is discarded,
and the value and its certificate come from the enclosure alone, which
holds for any positive start vector.  Everything here is numerical and
independent of the exact stationary solver on purpose: agreement of the
two routes is a genuine cross-check, not a tautology.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from .profiles import transition_table

log = logging.getLogger(__name__)

_DENSE_FALLBACK_DIM = 512
_TOLERANCE = 1e-13
_DEFAULT_MAX_ITERATIONS = 1_000_000
_STALL_LIMIT = 500
_STRIDE = 8
# ARPACK's Krylov dimension for a block's start vector; a block of at most
# this many rows starts from ones (ARPACK needs ncv <= n).  On a 2-core
# machine eigs at n = 924 takes about 2 ms up to ncv = 8 and 8 ms from
# ncv = 10, where OpenBLAS starts threads in the dense Schur step.
_KRYLOV_DIM = 8


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


def _arpack_seed(block: sp.csr_matrix) -> np.ndarray | None:
    """Modulus of ARPACK's Perron vector of a shifted, scaled block, its
    largest entry one.

    None for a block of at most _KRYLOV_DIM rows, when ARPACK does not
    converge, or when the vector is not a Perron vector: an entry is not
    finite, or, divided by the largest entry, not of positive real part.
    """
    n = block.shape[0]
    if n <= _KRYLOV_DIM:
        return None
    try:
        _, vectors = eigs(block, k=1, which="LM", tol=0, v0=np.ones(n), ncv=_KRYLOV_DIM)
    except ArpackNoConvergence:
        return None
    vector = vectors[:, 0]
    seed = np.abs(vector)
    top = int(np.argmax(seed))
    if not (np.isfinite(seed).all() and seed[top] > 0.0
            and ((vector / vector[top]).real > 0.0).all()):
        return None
    return seed / seed[top]


def perron_roots(matrices: Iterable[sp.spmatrix | np.ndarray],
                 max_iterations: int = _DEFAULT_MAX_ITERATIONS) -> list[SCGFResult]:
    """Perron roots of equal-size shifted-nonnegative matrices, certified.

    Power iteration runs on every matrix + shift*I at once (shift clearing
    the diagonal sign), stacked as one block-diagonal CSR so that each step
    is one matvec for all blocks.  Each block larger than _KRYLOV_DIM starts
    from the modulus of ARPACK's Perron vector of its shifted, scaled block
    (a Krylov space of _KRYLOV_DIM vectors from ones), kept only when every
    entry is finite and, with one common phase divided out, strictly
    positive; any other block, and one whose ARPACK run does not converge,
    starts from ones.  ARPACK's eigenvalue is discarded, and iterations
    counts power matvecs only.  Every _STRIDE matvecs each block's
    classical two-sided quotient bounds min (Av)_i/v_i <= rho <= max
    (Av)_i/v_i are read, and a block's root is recorded when its enclosure
    first pinches below _TOLERANCE.  Since Av <= max-quotient * v
    componentwise, each block is divided by the power of two just below its
    upper bound (the row sums before the first check): the unnormalised
    steps between checks grow the iterate at most twofold each, and no
    quotient loses a digit.  A narrower enclosure counts as progress only
    while float64 can still resolve _TOLERANCE at the root's lower bound;
    after a check at which some block made none, the next check comes one
    matvec later.  A block without progress for _STALL_LIMIT matvecs, or
    still open after max_iterations, falls back alone to a dense eigensolve
    when small; a large one raises ConvergenceError with diagnostics.
    """
    data, indices, indptr, shifts = [], [], [], []
    n = nnz = 0
    for b, matrix in enumerate(matrices):
        block = sp.csr_matrix(matrix, dtype=float)
        if b == 0:
            n = block.shape[0]
            indptr.append(block.indptr[:1])
        if block.shape != (n, n):
            raise ValueError("matrices must be square and of one size")
        # the extra unit keeps the diagonal strictly positive: the shifted
        # matrix is then primitive, not merely irreducible, and the
        # quotient bounds pinch geometrically
        shifts.append(max(0.0, -float(block.diagonal().min())) + 1.0)
        block = block + sp.csr_matrix((np.full(n, shifts[-1]), np.arange(n), np.arange(n + 1)),
                                      shape=(n, n))
        # every negative entry left is off the diagonal
        if (block.data < 0.0).any():
            raise ValueError("matrix has negative off-diagonal entries")
        data.append(block.data)
        indices.append(block.indices + b * n)
        indptr.append(block.indptr[1:] + nnz)
        nnz += block.nnz
    if not shifts:
        raise ValueError("no matrices given")
    k = len(shifts)
    a = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), np.concatenate(indptr)),
                      shape=(k * n, k * n))
    del data, indices, indptr
    # the start vector is all ones, so its quotients are the row sums
    row_sums = (a @ np.ones(k * n)).reshape(k, n)
    if not np.isfinite(row_sums).all():
        raise ValueError("matrix row sums are not finite in float64")
    lows, highs = row_sums.min(axis=1).tolist(), row_sums.max(axis=1).tolist()
    best = [hi - lo for lo, hi in zip(lows, highs)]
    # block b owns the rows b*n:(b+1)*n, and so the entries ends[b]:ends[b+1]
    ends = a.indptr[::n]
    scales = [1.0] * k

    def rescale(b: int, bound: float) -> None:
        scale = _power_of_two_below(bound)
        if scale != scales[b]:
            a.data[ends[b]:ends[b + 1]] *= scales[b] / scale
            scales[b] = scale

    for b in range(k):
        rescale(b, highs[b])

    # the row-sum bounds above hold for any start vector; every scaled
    # block has row sums below 2, so no start with largest entry one can
    # grow more than twofold per step
    v = np.ones(k * n)
    starts = ["ones"] * k
    for b in range(k):
        rows = slice(b * n, (b + 1) * n)
        seed = _arpack_seed(a[rows, rows])
        if seed is not None:
            v[rows], starts[b] = seed, "arpack"

    results: list[SCGFResult | None] = [None] * k
    since_gain = [0] * k

    def report(b: int, iterations: int, method: str) -> None:
        log.debug("perron block %d of %d (dimension %d): %s start, %d power matvecs, "
                  "width %.3e, %s", b + 1, k, n, starts[b], iterations, highs[b] - lows[b],
                  method)

    def give_up(b: int, iterations: int) -> SCGFResult:
        if n < _DENSE_FALLBACK_DIM:
            report(b, iterations, "dense-fallback")
            rows = slice(b * n, (b + 1) * n)
            eigenvalues = np.linalg.eigvals(a[rows, rows].toarray() * scales[b])
            top = eigenvalues[int(np.argmax(eigenvalues.real))]
            return SCGFResult(float(top.real) - shifts[b], float(abs(top.imag)),
                              iterations, method="dense-fallback")
        report(b, iterations, "refused")
        detail = ""
        if not math.isfinite(highs[b] - lows[b]):
            detail = "; the iterate left float64's range"
        elif math.ulp(lows[b]) > _TOLERANCE:
            detail = (f"; float64 spacing at the lower bound {lows[b] - shifts[b]:.6g} "
                      "exceeds the tolerance")
        raise ConvergenceError(
            f"Perron enclosure stalled at width {best[b]:.3e} after "
            f"{iterations} iterations (tol {_TOLERANCE:.1e}, dimension {n}){detail}")

    open_blocks = list(range(k))
    done = 0
    while done < max_iterations and open_blocks:
        # an enclosure at float64's noise floor makes no progress, and then
        # gets a chance to pinch at every step, as under a per-step check
        stride = _STRIDE if all(since_gain[b] == 0 for b in open_blocks) else 1
        steps = min(stride, max_iterations - done)
        for _ in range(steps - 1):
            v = a @ v
        w = a @ v
        done += steps
        with np.errstate(divide="ignore", invalid="ignore"):
            quotients = (w / v).reshape(k, n)
            scaled_lows = quotients.min(axis=1).tolist()
            scaled_highs = quotients.max(axis=1).tolist()
            top = w.reshape(k, n).max(axis=1, keepdims=True)
            v = (w.reshape(k, n) / top).ravel()
        for b in list(open_blocks):
            lo, hi = scaled_lows[b] * scales[b], scaled_highs[b] * scales[b]
            lows[b], highs[b] = lo, hi
            width = hi - lo
            if width < _TOLERANCE:
                results[b] = SCGFResult(0.5 * (lo + hi) - shifts[b], width, done)
                report(b, done, results[b].method)
            elif width < 0.999 * best[b] and math.ulp(lo) <= _TOLERANCE:
                best[b], since_gain[b] = width, 0
            else:
                since_gain[b] += steps
                if since_gain[b] >= _STALL_LIMIT:
                    results[b] = give_up(b, done)
            if results[b] is not None:
                open_blocks.remove(b)
            elif math.isfinite(hi):
                rescale(b, hi)
    for b in open_blocks:
        results[b] = give_up(b, done)
    return results


def largest_eigenvalue(matrix: sp.spmatrix | np.ndarray,
                       max_iterations: int = _DEFAULT_MAX_ITERATIONS) -> SCGFResult:
    """Perron root of one shifted-nonnegative matrix: perron_roots on one block."""
    return perron_roots([matrix], max_iterations)[0]


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

    stencil = [(axis, h, sign) for axis in (0, 1)
               for h in (h_step, h_step / 2) for sign in (1.0, -1.0)]
    roots = perron_roots(build_deformed(length, tilt(axis, sign * h))
                         for axis, h, sign in stencil)
    lam = {key: root.lambda_value for key, root in zip(stencil, roots)}

    def central(axis: int, h: float) -> float:
        return (lam[axis, h, 1.0] - lam[axis, h, -1.0]) / (2.0 * h)

    def richardson(axis: int) -> float:
        return (4.0 * central(axis, h_step / 2) - central(axis, h_step)) / 3.0

    return richardson(0), richardson(1)
