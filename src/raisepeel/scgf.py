"""Tilted-generator route to the avalanche cumulant generating function.

Off-diagonal entries of the forward generator are reweighted by
exp(alpha * dGlobal + beta * dDiamond), the exponential tilt conjugate to
the two avalanche counters.  The largest eigenvalue of the tilted matrix
is the scaled cumulant generating function of the pair of currents, and
its gradient at the origin recovers the long-run drifts.  The matrix is
held by columns, as numpy arrays read off the transition table: every
state's L targets and their weights, multiplied into a vector by one
np.bincount.  The shifted rotation changes both counters by coboundaries
of the table's height shift, so a diagonal gauge makes the tilted matrix
commute with the ring's rotation and reflection at every tilt.
scgf_value and scgf_derivatives find each root on the gauged matrix
lumped onto the symmetry orbits (56 rows instead of 924 at L = 12),
whose Perron root and enclosures are the full matrix's; the integer
identities behind that are checked once per length.  An eigenvalue
close to the Perron root but in another symmetry sector then no longer
slows the enclosure: at beta = -3 and L = 10 to 14 the full matrix's
root was refused, and the orbit matrix's certifies.

Each Perron root comes from a power iteration on one matrix
with a certified quotient enclosure, read every _STRIDE steps (every step
once the enclosure stops narrowing); the Richardson stencil solves its
eight tilts one at a time.  The iteration starts from the modulus of a
Perron vector found by a thick-restarted Arnoldi iteration from ones
(Y. Saad, Numerical Methods for Large Eigenvalue Problems, 2nd ed., SIAM
2011, ch. 6), which removes the slow modes before the first matvec;
the Arnoldi eigenvalue is discarded, and the value and its certificate
come from the enclosure alone, which holds for any positive start vector.
Everything here is numerical and independent of the exact stationary
solver on purpose: agreement of the two routes is a genuine cross-check,
not a tautology.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .profiles import ConvergenceError, transition_table

log = logging.getLogger(__name__)

_TOLERANCE = 1e-13
_MAX_ITERATIONS = 1_000_000
_STALL_LIMIT = 500
_STRIDE = 8
# Arnoldi basis size for the power iteration's start vector; a matrix of
# at most this many rows gets an exact invariant subspace in one cycle.
# Every solve runs on an orbit matrix, of 56 rows at L = 12 to 1480 at
# L = 18, and numpy's products with a basis of this size stay on one
# OpenBLAS thread there: past its start-up the BLAS worker thread accrues
# no CPU time, as /proc/self/task shows.  On the orbit matrices of the
# Richardson stencil (2-core x86-64, numpy 2.4) 24 vectors, 8 kept, take
# 40 Arnoldi and 17 power matvecs a tilt at L = 12 and 56 and 52 at
# L = 18; keeping the one Ritz vector, an explicit restart from it, took
# 47 and 16, and 70 and 52.
_KRYLOV_DIM = 24
_KRYLOV_KEEP = 8
# relative Ritz residual at which the Arnoldi vector is taken, and the
# cycles allowed to reach it
_KRYLOV_TOL = 1e-14
_KRYLOV_CYCLES = 20
# base step of the Richardson stencil in scgf_derivatives
FD_STEP = 1e-3


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


@dataclass(frozen=True, eq=False)
class ColumnMatrix:
    """A square float64 matrix held by columns, as numpy arrays.

    Column j holds diagonal[j] on the diagonal and weights[j, k] in row
    rows[j, k] for every k, entries that share a position adding up.
    """
    diagonal: np.ndarray
    rows: np.ndarray
    weights: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.diagonal), len(self.diagonal))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """M v: each column's weights, times its entry of v, summed into their rows."""
        # flat operands: a (n, L) * (n, 1) broadcast loops L entries at a time
        products = self.weights.ravel() * np.repeat(v, self.rows.shape[1])
        return self.diagonal * v + np.bincount(self.rows.ravel(), products, minlength=len(v))


def build_deformed(length: int, alpha: float = 0.0, beta: float = 0.0) -> ColumnMatrix:
    """Tilted generator on the enumerated basis, by columns; (0, 0) is the
    undeformed stochastic point.

    Entry (target, source) collects exp(alpha*dGlobal + beta*dDiamond)
    over the sites realizing that move; the rows of column source are the
    transition table's targets of that state.  Reflections stay weight one
    and cancel against their own loss term, so the diagonal is minus the
    number of non-reflecting sites.  At (0, 0) this is the plain forward
    generator, entry for entry.  Non-finite move weights are refused.
    """
    table = transition_table(length)
    n = len(table.states)
    # the counters are int8: an integer tilt must not multiply them in int8
    d_global = table.d_global.astype(np.float64)
    d_diamond = table.d_diamond.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(alpha * d_global + beta * d_diamond)
    if not np.isfinite(weights).all():
        raise ValueError(f"tilt (alpha, beta) = ({alpha}, {beta}) "
                         "gives non-finite move weights")
    return ColumnMatrix(np.full(n, -float(length)), table.target, weights)


def _power_of_two_below(bound: float) -> float:
    """The power of two in (bound/2, bound], for bound >= 1."""
    return math.ldexp(1.0, math.frexp(bound)[1] - 1)


def _ritz_vector(matrix: ColumnMatrix) -> np.ndarray:
    """Ritz vector of the rightmost Ritz value of a thick-restarted Arnoldi
    iteration from ones, with bases of min(_KRYLOV_DIM, n) vectors.

    Each cycle fills the basis, orthogonalising by classical Gram-Schmidt
    (a second pass where the first cancels most of the new vector); a
    basis that spans an invariant subspace ends the iteration, its Ritz
    vectors exact.  The next cycle keeps the real span of the Ritz vectors
    of the _KRYLOV_KEEP rightmost Ritz values (a conjugate pair whole),
    whose projected matrix and coupling row carry the Arnoldi relation on
    (K. Wu and H. Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)).  The
    vector is returned once its residual is at most _KRYLOV_TOL times the
    Ritz value's modulus, or else after _KRYLOV_CYCLES cycles (at least
    one): near a defective root, whose two leading eigenvalues no basis
    separates, it still lies in their subspace, from which the enclosure
    stalls at once instead of narrowing like 1/iterations from ones.
    """
    n = matrix.shape[0]
    m = min(_KRYLOV_DIM, n)
    basis = np.empty((m + 1, n))
    hessenberg = np.zeros((m + 1, m))
    basis[0] = 1.0 / math.sqrt(n)
    kept = cycles = 0
    while True:
        k = m
        for j in range(kept, m):
            w = matrix @ basis[j]
            scale = norm = math.sqrt(w @ w)
            # a second pass only where the first cancelled most of w
            for _ in range(2):
                coefficients = basis[:j + 1] @ w
                w -= coefficients @ basis[:j + 1]
                hessenberg[:j + 1, j] += coefficients
                norm, previous = math.sqrt(w @ w), norm
                if norm > 0.5 * previous:
                    break
            hessenberg[j + 1, j] = norm
            if norm <= _KRYLOV_TOL * scale:
                k = j + 1
                break
            basis[j + 1] = w / norm
        values, vectors = np.linalg.eig(hessenberg[:k, :k])
        order = np.argsort(-values.real)
        top = order[0]
        cycles += 1
        if k < m or cycles >= _KRYLOV_CYCLES or (
                abs(hessenberg[m, m - 1] * vectors[m - 1, top]) <= _KRYLOV_TOL * abs(values[top])):
            return vectors[:, top] @ basis[:k]
        parts = []
        for i in order[:_KRYLOV_KEEP]:
            if values[i].imag == 0.0:
                parts.append(vectors[:, i].real)
            elif values[i].imag > 0.0:
                parts += [vectors[:, i].real, vectors[:, i].imag]
        kept_span = np.linalg.qr(np.column_stack(parts))[0][:, :m - 1]
        kept = kept_span.shape[1]
        projected = kept_span.T @ hessenberg[:m, :m] @ kept_span
        coupling = hessenberg[m, m - 1] * kept_span[m - 1]
        hessenberg[:] = 0.0
        hessenberg[:kept, :kept] = projected
        hessenberg[kept, :kept] = coupling
        basis[:kept], basis[kept] = kept_span.T @ basis[:m], basis[m]


def _krylov_seed(matrix: ColumnMatrix) -> np.ndarray | None:
    """Modulus of the Arnoldi Perron vector of a shifted, scaled matrix,
    its largest entry one; None when an entry is zero or not finite.

    Any positive vector is a valid start, since the enclosure alone
    certifies the root: an entry's sign or phase is not checked.
    """
    seed = np.abs(_ritz_vector(matrix))
    if not (np.isfinite(seed).all() and (seed > 0.0).all()):
        return None
    return seed / seed.max()


def largest_eigenvalue(matrix: ColumnMatrix) -> SCGFResult:
    """Perron root of a square shifted-nonnegative matrix, certified.

    Power iteration runs on matrix + shift*I, the shift clearing the
    diagonal sign.  The start is the modulus of the Arnoldi Perron vector
    of that shifted, scaled matrix (see _ritz_vector) when every entry is
    finite and nonzero, and ones otherwise.  The Arnoldi eigenvalue is
    discarded, and iterations counts power matvecs only.  Every _STRIDE
    matvecs the classical two-sided quotient bounds min (Av)_i/v_i <= rho
    <= max (Av)_i/v_i are read, and the root is returned when the
    enclosure first pinches below _TOLERANCE at a lower bound where
    float64 resolves _TOLERANCE (an exact start can round every quotient
    to one float, a width of zero that proves nothing).  Since Av <=
    max-quotient * v componentwise, the matrix is divided by the power of
    two just below the upper bound (the row sums before the first check):
    the unnormalised steps between checks grow the iterate at most twofold
    each, and no quotient loses a digit.  A narrower enclosure counts as
    progress only while float64 can still resolve _TOLERANCE at the root's
    lower bound; after a check without progress, the next check comes one
    matvec later.  The root is the midpoint of the first such enclosure
    narrower than _TOLERANCE, and residual its width.  Without progress
    for _STALL_LIMIT matvecs ("stalled"), or still open after
    _MAX_ITERATIONS, ConvergenceError is raised; it names the narrowest
    enclosure seen, the row sums' included, and a stall quotes that
    enclosure's width.
    """
    n = len(matrix.diagonal)
    on_diagonal = matrix.rows == np.arange(n)[:, None]
    if (matrix.weights[~on_diagonal] < 0.0).any():
        raise ValueError("matrix has negative off-diagonal entries")
    diagonal = matrix.diagonal + np.where(on_diagonal, matrix.weights, 0.0).sum(axis=1)
    # the extra unit keeps the diagonal strictly positive: the shifted
    # matrix is then primitive, not merely irreducible, and the quotient
    # bounds pinch geometrically
    shift = max(0.0, -float(diagonal.min())) + 1.0
    # a copy, scaled in place below, whose diagonal holds every diagonal
    # entry: a reflection summed into a negative diagonal at each product
    # cost the quotients digits, and 11 tilts of the L=12 scan their pinch
    a = ColumnMatrix(diagonal + shift, matrix.rows, np.where(on_diagonal, 0.0, matrix.weights))
    # the start vector is all ones, so its quotients are the row sums
    with np.errstate(over="ignore"):
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
            a.diagonal[:] *= scale / new_scale
            a.weights[:] *= scale / new_scale
            scale = new_scale

    rescale(hi)
    # the row-sum bounds above hold for any start vector; the scaled matrix
    # has row sums below 2, so no start with largest entry one can grow
    # more than twofold per step
    seed = _krylov_seed(a)
    v, start = (np.ones(n), "ones") if seed is None else (seed, "krylov")

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
        # where float64 cannot resolve _TOLERANCE, a width below it is
        # quotients rounded to the same float, not a proof
        resolvable = math.ulp(lo) <= _TOLERANCE
        if width < _TOLERANCE and resolvable:
            report(done, "power-iteration")
            return SCGFResult(0.5 * (lo + hi) - shift, width, done)
        # a finite width means both ends are finite
        if width < narrowest[1] - narrowest[0]:
            narrowest = (lo, hi)
        if width < 0.999 * best and resolvable:
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


@lru_cache(maxsize=None)
def _orbit_columns(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns the orbit matrix takes at this length, once the ring's
    symmetries are checked to lump the tilted generator at every tilt.

    Returns each orbit's smallest state, and that state's d_global,
    d_diamond and quarter shift change (shift[s] - shift[t]) / 4 per site,
    as float64.  The checks are integer identities of the transition
    table, and RuntimeError names each one that fails:

    - the shifted rotation and the reflection commute with the moves (the
      rotation takes site i to site i - 1, the reflection to 2 - i);
    - the reflection keeps both counters and the shift;
    - the rotation negates the shift, and changes d_global by
      (shift[s] - shift[t]) / 2 and d_diamond by L (shift[s] - shift[t]) / 2,
      both coboundaries, which the gauge of _orbit_matrix cancels;
    - the orbit labels are constant on both images, numbered in order of
      their first state, and each label holds one orbit: every state is
      the image of its orbit's first state under a rotation, or under the
      reflection and then a rotation.
    """
    table = transition_table(length)
    target, rotate, reflect, orbit = table.target, table.rotate, table.reflect, table.orbit
    # the int8 counters and shifts stay int8: no sum or product below
    # leaves [-2L, 2L], L <= 18
    shift, d_global, d_diamond = table.shift, table.d_global, table.d_diamond
    sites = np.arange(length)
    turned, mirrored = (sites - 1) % length, (2 - sites) % length
    rotated, reflected = rotate[:, None], reflect[:, None]
    jump = shift[:, None] - shift[target]
    first = np.flatnonzero(np.diff(np.maximum.accumulate(orbit), prepend=-1))
    reached = np.zeros(len(orbit), dtype=bool)
    images = np.stack([first, reflect[first]])
    for _ in range(length):
        reached[images] = True
        images = rotate[images]
    identities = {
        "rotation commutes with the moves": target[rotated, turned] == rotate[target],
        "reflection commutes with the moves": target[reflected, mirrored] == reflect[target],
        "reflection keeps d_global": d_global[reflected, mirrored] == d_global,
        "reflection keeps d_diamond": d_diamond[reflected, mirrored] == d_diamond,
        "reflection keeps the shift": shift[reflect] == shift,
        "rotation negates the shift": shift[rotate] == -shift,
        "rotation changes d_global by its coboundary":
            d_global[rotated, turned] - d_global == jump // 2,
        "rotation changes d_diamond by its coboundary":
            d_diamond[rotated, turned] - d_diamond == length // 2 * jump,
        "orbit labels are constant on the images":
            (orbit[rotate] == orbit) & (orbit[reflect] == orbit),
        "orbit labels are numbered by first state": orbit[first] == np.arange(len(first)),
        "each orbit label holds one orbit": reached,
    }
    failed = [name for name, holds in identities.items() if not holds.all()]
    if failed:
        raise RuntimeError(f"the ring's symmetries do not lump the tilted generator at "
                           f"L={length}: these identities fail: {'; '.join(failed)}")
    return (first, d_global[first].astype(np.float64), d_diamond[first].astype(np.float64),
            jump[first] / 4.0)


def _orbit_matrix(matrix: ColumnMatrix, alpha: float, beta: float) -> ColumnMatrix:
    """The tilted generator build_deformed(L, alpha, beta), gauged and
    lumped onto the ring's symmetry orbits; its Perron root is the full
    matrix's.

    The gauge is the diagonal similarity A[t, s] exp(-(alpha + beta L)
    (shift[t] - shift[s]) / 4), which cancels the counters' coboundaries
    under the shifted rotation, so the gauged matrix commutes with both
    symmetries.  Its weights are exp of the combined exponent, one
    rounding each, and a non-finite one is refused.  The orbit matrix is
    P^T A P D^-1 for the state-to-orbit indicator P and the orbit sizes D
    (J. G. Kemeny and J. L. Snell, Finite Markov Chains, 1960, sec. 6.3):
    column o is the gauged column of orbit o's first state, its rows
    relabelled by orbit.  It is similar to the gauged matrix on the
    vectors constant on each orbit, which hold its Perron vector, and
    (Bx)_o / x_o is the gauged matrix's quotient (Av)_i / v_i at
    v_i = x_o / |o| for every state i of orbit o; the gauge is a
    similarity, so an enclosure of B's root encloses the full root.  The
    full matrix gives the diagonal and rows, and its refusal of
    non-finite move weights stands as it was.
    """
    length = matrix.rows.shape[1]
    first, d_global, d_diamond, quarter_jump = _orbit_columns(length)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(alpha * d_global + beta * d_diamond
                         + (alpha + beta * length) * quarter_jump)
    if not np.isfinite(weights).all():
        raise ValueError(f"tilt (alpha, beta) = ({alpha}, {beta}) "
                         "gives non-finite gauged move weights")
    orbit = transition_table(length).orbit
    return ColumnMatrix(matrix.diagonal[first], orbit[matrix.rows[first]], weights)


def scgf_value(length: int, alpha: float = 0.0, beta: float = 0.0) -> SCGFResult:
    """Largest eigenvalue of the tilted generator at the given tilt, found
    on its orbit matrix."""
    return largest_eigenvalue(_orbit_matrix(build_deformed(length, alpha, beta), alpha, beta))


def scgf_derivatives(length: int) -> tuple[float, float]:
    """Gradient of the cumulant generating function at the origin.

    Central differences at steps FD_STEP and FD_STEP/2 combined by one
    Richardson step; the truncation error is then far below the eigenvalue
    enclosure noise.  Each root comes from scgf_value.  Returns
    (d/dalpha, d/dbeta), i.e. the global-avalanche and evacuated-tile
    currents.
    """
    def slope(tilts: list[tuple[float, float]]) -> float:
        """One Richardson step from the roots at one axis's tilts
        +FD_STEP, -FD_STEP, +FD_STEP/2 and -FD_STEP/2, in that order."""
        lam = [scgf_value(length, alpha, beta).lambda_value for alpha, beta in tilts]
        wide = (lam[0] - lam[1]) / (2.0 * FD_STEP)
        narrow = (lam[2] - lam[3]) / FD_STEP
        return (4.0 * narrow - wide) / 3.0

    steps = (FD_STEP, -FD_STEP, FD_STEP / 2, -FD_STEP / 2)
    return slope([(t, 0.0) for t in steps]), slope([(0.0, t) for t in steps])
