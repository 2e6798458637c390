"""Exact stationary states of the raise-and-peel ring.

Everything here reads the ring's transition table as it is (move targets,
each state's orbit under the ring's two symmetries, rotation with a
height shift and reflection, and the move counters) and builds no
generator matrix.  The moves are counted between the orbits, one
bincount, and the small lumped chain is one square integer system: its
balance matrix with the first orbit's weight fixed at one.
That system is solved exactly by p-adic (Dixon) lifting: one blocked LU
factorization modulo a prime below 2**22 in float64, one base-p digit of
the solution per step with exact integer residuals, and the rationals
rebuilt from the digits over a running common denominator until they
solve the system exactly in Python ints.  The orbit values are cleared
once to coprime integer weights, spread over the orbits' states, and
sealed by an exact certificate in Python integers: every weight
positive, the weights coprime, the inflow of every state (reflections
included) equal to L times its weight, and the transition graph strongly
connected.  So the weights over their sum are the stationary
distribution, not a numerical approximation.

Each stationary observable (the mean peak count, the probability of the
avalanche-armed set, the two long-run currents) is one dot product of the
weights with per-state integers over their sum, taken from the table as
Python ints when the observable is asked for, and has a closed rational
formula in the ring length to compare against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import mul

import numpy as np

# the two current laws live in profiles, so tq states them without importing
# this route; they stay importable from here beside the other closed forms
from .profiles import (HeightProfile, TransitionTable, diamond_current_formula,
                       global_current_formula, transition_table)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StationaryVector:
    """Exact stationary distribution plus its cleared-denominator form.

    integer_form holds the certified coprime positive weights (observed to
    have smallest entry 1); integer_sum is their total, the common
    denominator of the distribution, and each probability is its weight
    over that sum.
    """
    length: int
    states: tuple[HeightProfile, ...]
    probabilities: dict[HeightProfile, Fraction]
    integer_form: dict[HeightProfile, int]
    integer_sum: int
    method: str

    def vector(self) -> tuple[Fraction, ...]:
        return tuple(self.probabilities[s] for s in self.states)


def _chain(length: int) -> TransitionTable:
    """The ring's transition table, the one walk of the moves this layer reads."""
    return transition_table(length)


# ---------------------------------------------------------------------------
# kernel solver


# the largest prime below 2**22: an entry of _lu_mod takes at most _PANEL
# products of residues below 2**22 between reductions, which keeps it below
# 2**51 and so exact in float64
_PRIME = 4194301
_PANEL = 64


def _previous_prime(p: int) -> int:
    """The largest prime below p, by trial division."""
    for q in range(p - 1, 1, -1):
        if all(q % d for d in range(2, isqrt(q) + 1)):
            return q
    raise RuntimeError(f"no prime below {p} is left to factor by")


def _reduce(x: np.ndarray, p: int) -> None:
    """Replace the integer-valued floats x by their residues mod p, in
    place, as x - p * floor(x / p); exact for p below 2**22 while |x|
    stays below 2**52."""
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q


def _lu_mod(a: np.ndarray, p: int) -> np.ndarray | None:
    """LU factors of the square integer matrix a modulo the prime p, packed
    in one int64 array (the unit lower factor below the diagonal, the upper
    one on and above it), or None when a pivot vanishes mod p.

    Right-looking and blocked: each panel of _PANEL columns is eliminated
    column by column, together with its block row of the upper factor, and
    the trailing matrix takes one float64 matrix product per panel, then
    is reduced mod p.  Inside a panel an entry is reduced only when its
    row or column becomes the pivot's, so it takes at most _PANEL
    unreduced updates, each a product of two residues.  There are no row
    exchanges: every leading principal submatrix of the lumped system is a
    proper principal submatrix of an irreducible chain's balance matrix,
    so nonsingular, and a zero pivot means p divides one of its minors.
    """
    lu = a.astype(np.float64)
    n = len(lu)
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        for j in range(k0, k1):
            _reduce(lu[j, j:], p)
            pivot = int(lu[j, j])
            if pivot == 0:
                return None
            column = lu[j + 1:, j]
            _reduce(column, p)
            column *= pow(pivot, -1, p)
            _reduce(column, p)
            lu[j + 1:, j + 1:k1] -= np.outer(column, lu[j, j + 1:k1])
            lu[j + 1:k1, k1:] -= np.outer(column[:k1 - j - 1], lu[j, k1:])
        trailing = lu[k1:, k1:]
        trailing -= lu[k1:, k0:k1] @ lu[k0:k1, k1:]
        _reduce(trailing, p)
    return lu.astype(np.int64)


def _solve_mod(lu: np.ndarray, inverse: list[int], r: np.ndarray, p: int) -> np.ndarray:
    """The solution mod p of LU y = r, by forward and back substitution on
    the packed factors; inverse holds the inverses of U's diagonal mod p.
    Each dot product sums residues below 2**44 in int64."""
    y = r % p
    for i in range(1, len(y)):
        y[i] = (y[i] - lu[i, :i] @ y[:i]) % p
    for i in range(len(y) - 1, -1, -1):
        y[i] = (y[i] - lu[i, i + 1:] @ y[i + 1:]) % p * inverse[i] % p
    return y


def _denominator(u: int, modulus: int, bound: int) -> int | None:
    """The denominator d of the fraction n/d with n = d u mod modulus and
    |n|, d <= bound, by the half extended Euclidean algorithm, or None when
    there is none.  The fraction is unique when 2 bound**2 < modulus."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 0 < abs(t1) <= bound else None


def _rebuild(x: list[int], modulus: int) -> tuple[list[int], int] | None:
    """Numerators and one common denominator of the rationals whose
    residues mod modulus are x, or None when the residues do not yet
    determine them.  The denominator runs over the entries: each entry is
    first scaled by it, and only an entry that is then not a small
    integer is reconstructed as a fraction, whose denominator joins it."""
    half = modulus // 2
    bound = isqrt(half)
    den = 1
    for u in x:
        scaled = u * den % modulus
        if min(scaled, modulus - scaled) > bound:
            d = _denominator(scaled, modulus, bound)
            if d is None or den * d > bound:
                return None
            den *= d
    numerators = []
    for u in x:
        scaled = u * den % modulus
        if scaled > half:
            scaled -= modulus
        if abs(scaled) > bound:
            return None
        numerators.append(scaled)
    return numerators, den


def _solve_padic(a: np.ndarray, b: np.ndarray, prime: int = _PRIME
                 ) -> tuple[list[int], int, int, int]:
    """Exact solution of the nonsingular integer system a x = b by p-adic
    (Dixon) lifting, as numerators, their common denominator, the prime
    used and the number of lifting steps.

    a is factored once mod a prime below 2**22, the first one, counting
    down from prime, at which no pivot vanishes.  Each step solves for
    one base-p digit of x and divides the exact integer residual by p;
    after each step the rationals are rebuilt from the digits so far and
    accepted once a x = b den holds exactly in Python ints.  Cramer's
    rule and Hadamard's inequality bound every numerator and the
    denominator by H, the product of the row norms of [a | b]; past
    p**k > 2 H**2 the rebuild cannot fail, so a solve still open there
    raises RuntimeError instead of lifting on.
    """
    while (lu := _lu_mod(a, prime)) is None:
        prime = _previous_prime(prime)
    inverse = [pow(u, -1, prime) for u in lu.diagonal().tolist()]
    rows, cols = np.nonzero(a)
    entries = list(zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()))
    rhs = b.tolist()
    limit = 2 * prod(((a * a).sum(axis=1) + b * b).tolist())
    residual = b.astype(np.int64)
    x = [0] * len(rhs)
    modulus, steps = 1, 0
    while modulus <= limit:
        digit = _solve_mod(lu, inverse, residual, prime)
        residual = residual - a @ digit
        if (residual % prime).any():
            raise RuntimeError(f"lifting residual not divisible by the prime {prime}")
        residual //= prime
        x = [u + d * modulus for u, d in zip(x, digit.tolist())]
        modulus *= prime
        steps += 1
        if (found := _rebuild(x, modulus)) is not None:
            numerators, den = found
            product = [0] * len(rhs)
            for i, j, v in entries:
                product[i] += v * numerators[j]
            if all(s == r * den for s, r in zip(product, rhs)):
                return numerators, den, prime, steps
    raise RuntimeError(f"p-adic lifting passed the Hadamard bound after {steps} steps "
                       f"mod {prime} without an exact solution")


def _solve_lumped(target: np.ndarray, orbit: np.ndarray) -> list[int]:
    """Stationary candidate weights from the chain lumped onto the given
    orbits, as coprime Python ints in state order.

    counts[a, b] is the number of moves from a state of orbit a into a
    state of orbit b.  When the symmetries make the chain strongly
    lumpable, a vector constant on each orbit is stationary exactly when
    its per-state values w solve M w = 0 for M = counts^T - L diag(sizes),
    every state leaving at total rate L.  The columns of M sum to zero, so
    dropping orbit 0's row and column and fixing its weight at one leaves
    a nonsingular integer system for the p-adic solve.  The m values are
    cleared to coprime integers once and spread over the orbits' states.
    Nothing here proves the lumping; the full-chain certificate does.
    Identity labels solve the full chain.
    """
    m = int(orbit.max()) + 1
    pairs = orbit[:, None] * m + orbit[target]
    counts = np.bincount(pairs.ravel(), minlength=m * m).reshape(m, m)
    matrix = counts.T - target.shape[1] * np.diag(np.bincount(orbit, minlength=m))
    numerators, den, prime, steps = _solve_padic(matrix[1:, 1:], -matrix[1:, 0])
    log.debug("lumped solve: %d orbits, prime %d, %d lifting steps", m, prime, steps)
    values = [den, *numerators]
    shrink = gcd(*values)
    per_orbit = [v // shrink for v in values]
    return [per_orbit[o] for o in orbit.tolist()]


def _certify(target: np.ndarray, weights: list[int]) -> None:
    """Exact proof, in Python integers, that the weights over their sum are
    the unique stationary distribution of the chain with the given move
    targets, and that the sum is its common denominator.
    """
    n, length = target.shape
    if any(w <= 0 for w in weights):
        raise RuntimeError("stationary candidate has a nonpositive entry")
    if gcd(*weights) != 1:
        raise RuntimeError("stationary weights are not coprime")
    # every state leaves at total rate L, so stationarity is inflow = L * weight
    inflow = [0] * n
    for w, row in zip(weights, target.tolist()):
        for t in row:
            inflow[t] += w
    for t, (into, w) in enumerate(zip(inflow, weights)):
        if into != length * w:
            raise RuntimeError(f"kernel residual nonzero in row {t}")
    # reachability from state 0 along the moves (successors) and against
    # them (predecessors, the states with a move into the set)
    for grow in (lambda seen: seen | (np.bincount(target[seen].ravel(), minlength=n) > 0),
                 lambda seen: seen | seen[target].any(axis=1)):
        seen = np.arange(n) == 0
        while (grown := grow(seen)).sum() > seen.sum():
            seen = grown
        if not seen.all():
            raise RuntimeError("transition graph is not strongly connected")


@lru_cache(maxsize=None)
def stationary_distribution(length: int) -> StationaryVector:
    """Exact stationary distribution, certificate-checked.

    >>> v = stationary_distribution(2)
    >>> v.vector()
    (Fraction(1, 2), Fraction(1, 2))
    """
    table = _chain(length)
    weights = _solve_lumped(table.target, table.orbit)
    _certify(table.target, weights)
    total = sum(weights)
    return StationaryVector(
        length=length,
        states=table.states,
        probabilities={s: Fraction(w, total) for s, w in zip(table.states, weights)},
        integer_form=dict(zip(table.states, weights)),
        integer_sum=total,
        method="lumped-padic-exact",
    )


# ---------------------------------------------------------------------------
# stationary observables and their closed forms


def _mean(length: int, per_state: np.ndarray) -> Fraction:
    """Stationary mean of a per-state integer: one dot product with the
    certified weights in Python ints, divided once by their sum."""
    vec = stationary_distribution(length)
    return Fraction(sum(map(mul, vec.integer_form.values(), per_state.tolist())),
                    vec.integer_sum)


def expected_peaks(length: int) -> Fraction:
    """Exact stationary mean of the peak count.

    >>> expected_peaks(4)
    Fraction(8, 5)
    """
    return _mean(length, _chain(length).peak_count)


def prob_omega_global(length: int) -> Fraction:
    """Exact stationary probability of the avalanche-armed states.

    >>> prob_omega_global(4)
    Fraction(1, 5)
    """
    return _mean(length, _chain(length).omega)


def exact_drifts(length: int) -> tuple[Fraction, Fraction]:
    """Long-run currents (evacuated tiles, global avalanches) per unit time.

    The pair is exact.  The tile balance (evacuation current plus mean
    peak count equals the ring length) is not asserted here: the
    ``tile_balance`` check of the stationary report and of verify-all
    decides it.

    >>> exact_drifts(4)
    (Fraction(12, 5), Fraction(1, 5))
    """
    table = _chain(length)
    current_diamond = _mean(length, table.d_diamond.sum(axis=1))
    current_global = _mean(length, table.d_global.sum(axis=1))
    return current_diamond, current_global


def peak_mean_formula(length: int) -> Fraction:
    """Closed form of the stationary mean peak count, 3L^3/(8(L^2-1))."""
    return Fraction(3 * length ** 3, 8 * (length * length - 1))


def omega_probability_formula(length: int) -> Fraction:
    """Closed form of the armed-set probability; coincides with the
    global-avalanche current because exactly one site triggers it."""
    return global_current_formula(length)
