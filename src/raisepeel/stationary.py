"""Exact stationary states of the raise-and-peel ring.

The forward generator of the tile process is assembled over the enumerated
state space and its kernel vector is computed exactly.  Small systems go
through a subtraction-free censoring elimination in rational arithmetic;
larger ones solve the normalized kernel system modulo several word-sized
primes and reassemble the rational answer by Chinese remaindering and
rational reconstruction.  Either way the result is sealed by an exact
certificate (kernel residual zero over the rationals, positivity, total
mass one, strong connectivity of the transition graph), so the reported
vector is the stationary distribution, not a numerical approximation.

Stationary observables follow by exact summation: the mean peak count,
the probability of the avalanche-armed set, and the two long-run currents
(evacuated tiles per unit time, global avalanches per unit time), each of
which has a closed rational formula in the ring length to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterator, NamedTuple

import numpy as np
import scipy.sparse as sp

from .profiles import HeightProfile, transition_table
from .qfield import ExactRational

# exact rational elimination below this dimension, modular arithmetic above
_GTH_MAX_DIMENSION = 128
_MIN_PRIMES = 4
_MAX_PRIMES = 24


@dataclass(frozen=True)
class StationaryVector:
    """Exact stationary distribution plus its cleared-denominator form.

    integer_form rescales the probabilities to coprime positive integers
    (observed to have smallest entry 1); integer_sum is their total, the
    common denominator of the distribution.
    """
    length: int
    states: tuple[HeightProfile, ...]
    probabilities: dict[HeightProfile, Fraction]
    integer_form: dict[HeightProfile, int]
    integer_sum: int
    method: str

    def vector(self) -> tuple[Fraction, ...]:
        return tuple(self.probabilities[s] for s in self.states)

    @property
    def smallest_integer(self) -> int:
        return min(self.integer_form.values())


class _Chain(NamedTuple):
    """The stationary layer's view of the shared transition table."""
    states: tuple[HeightProfile, ...]
    generator: sp.csr_matrix
    diamond_rate: tuple[int, ...]
    global_rate: tuple[int, ...]
    peak_count: tuple[int, ...]
    omega_flag: tuple[bool, ...]


@lru_cache(maxsize=None)
def _chain(length: int) -> _Chain:
    """Generator and per-state rates of the ring, as exact Python integers."""
    table = transition_table(length)
    return _Chain(
        table.states, build_generator(length),
        tuple(table.d_diamond.sum(axis=1).tolist()),
        tuple(table.d_global.sum(axis=1).tolist()),
        tuple(table.peak_count.tolist()), tuple(table.omega.tolist()))


def build_generator(length: int) -> sp.csr_matrix:
    """Forward generator on the enumerated basis, an int64 CSR matrix.

    Entry (row, col) for row != col counts the sites whose move sends
    state col to state row; the diagonal carries minus the number of
    non-reflecting sites of col, so the columns sum to zero.
    """
    table = transition_table(length)
    return table.rate_matrix(np.ones(table.target.shape, dtype=np.int64))


# ---------------------------------------------------------------------------
# kernel solvers


def _solve_censoring(st: _Chain) -> list[Fraction]:
    """Subtraction-free elimination (GTH ordering) in exact rationals.

    States are censored one by one from the top index down; the stored
    ratios then rebuild the stationary weights from state 0 upward.  All
    intermediate quantities are nonnegative, so no cancellation occurs.
    """
    n = len(st.states)
    # rate[s][t] counts the moves from s to t; self-loops play no part
    counts = st.generator.T.toarray()
    np.fill_diagonal(counts, 0)
    rate = [[Fraction(c) for c in row] for row in counts.tolist()]
    for k in range(n - 1, 0, -1):
        row_k = rate[k]
        total = sum(row_k[:k])
        for i in range(k):
            rate[i][k] /= total
        for i in range(k):
            f = rate[i][k]
            if not f:
                continue
            row_i = rate[i]
            for j in range(k):
                if j != i and row_k[j]:
                    row_i[j] += f * row_k[j]
    weight = [Fraction(0)] * n
    weight[0] = Fraction(1)
    for k in range(1, n):
        weight[k] = sum(weight[i] * rate[i][k] for i in range(k) if rate[i][k])
    total = sum(weight)
    return [w / total for w in weight]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def _prime_stream() -> Iterator[int]:
    # descending odd candidates below 2^21 keep every product of two
    # residues, and dot products of length < 2000, inside int64
    candidate = (1 << 21) - 1
    while candidate > 2:
        if _is_prime(candidate):
            yield candidate
        candidate -= 2


def _solve_mod_p(base: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """Solve base*x = rhs over GF(p); None when the matrix is singular mod p."""
    a = (base % p).astype(np.int64)
    b = (rhs % p).astype(np.int64)
    n = a.shape[0]
    for k in range(n):
        nz = np.nonzero(a[k:, k])[0]
        if nz.size == 0:
            return None
        piv = k + int(nz[0])
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        inv = pow(int(a[k, k]), p - 2, p)
        a[k, k:] = a[k, k:] * inv % p
        b[k] = b[k] * inv % p
        f = a[k + 1:, k].copy()
        if f.size:
            a[k + 1:, k:] = (a[k + 1:, k:] - f[:, None] * a[k, k:]) % p
            b[k + 1:] = (b[k + 1:] - f * b[k]) % p
    x = np.zeros(n, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        acc = int(b[k])
        if k + 1 < n:
            acc -= int(a[k, k + 1:] @ x[k + 1:])
        x[k] = acc % p
    return x


def _rational_reconstruct(value: int, modulus: int) -> Fraction | None:
    """Smallest fraction congruent to value mod modulus (Wang's bound)."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, value % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num = r1 if s1 > 0 else -r1
    den = abs(s1)
    if gcd(num, den) != 1 or (num - value * den) % modulus != 0:
        return None
    return Fraction(num, den)


def _solve_modular(st: _Chain) -> list[Fraction]:
    """CRT kernel solve: replace the last balance equation by total mass 1."""
    n = len(st.states)
    base = st.generator.toarray()
    base[n - 1, :] = 1
    rhs = np.zeros(n, dtype=np.int64)
    rhs[n - 1] = 1

    residue = np.zeros(n, dtype=object)
    modulus = 1
    used = 0
    for p in _prime_stream():
        x = _solve_mod_p(base, rhs, p)
        if x is None:
            continue
        if used == 0:
            residue = x.astype(object)
            modulus = p
        else:
            inv = pow(modulus, -1, p)
            for i in range(n):
                t = ((int(x[i]) - int(residue[i])) * inv) % p
                residue[i] = int(residue[i]) + modulus * t
            modulus *= p
        used += 1
        if used < _MIN_PRIMES:
            continue
        pi = [_rational_reconstruct(int(c), modulus) for c in residue]
        if all(v is not None for v in pi):
            return pi  # type: ignore[return-value]
        if used >= _MAX_PRIMES:
            break
    raise RuntimeError(
        "rational reconstruction of the stationary vector did not stabilize")


def _certify(st: _Chain, pi: list[Fraction]) -> None:
    """Exact post-hoc proof that pi is the unique stationary distribution."""
    n = len(st.states)
    if any(x <= 0 for x in pi):
        raise RuntimeError("stationary candidate has a nonpositive entry")
    if sum(pi) != 1:
        raise RuntimeError("stationary candidate mass differs from one")
    gen = st.generator
    indptr, indices, rates = gen.indptr.tolist(), gen.indices.tolist(), gen.data.tolist()
    for r in range(n):
        span = range(indptr[r], indptr[r + 1])
        if sum(rates[k] * pi[indices[k]] for k in span) != 0:
            raise RuntimeError(f"kernel residual nonzero in row {r}")
    # breadth-first search from state 0 along the rows (predecessors) and
    # along the columns (successors) of the generator
    for edges in (gen, gen.T.tocsr()):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = np.array([0])
        while frontier.size:
            reached = np.unique(edges[frontier].indices)
            frontier = reached[~seen[reached]]
            seen[frontier] = True
        if not seen.all():
            raise RuntimeError("transition graph is not strongly connected")


@lru_cache(maxsize=None)
def stationary_distribution(length: int) -> StationaryVector:
    """Exact stationary distribution, certificate-checked.

    >>> v = stationary_distribution(2)
    >>> v.vector()
    (Fraction(1, 2), Fraction(1, 2))
    """
    st = _chain(length)
    n = len(st.states)
    if n <= _GTH_MAX_DIMENSION:
        pi, method = _solve_censoring(st), "censoring-exact"
    else:
        pi, method = _solve_modular(st), "modular-crt"
    _certify(st, pi)
    common = lcm(*(x.denominator for x in pi)) if n > 1 else pi[0].denominator
    ints = [int(x * common) for x in pi]
    shrink = gcd(*ints)
    ints = [v // shrink for v in ints]
    return StationaryVector(
        length=length,
        states=st.states,
        probabilities=dict(zip(st.states, pi)),
        integer_form=dict(zip(st.states, ints)),
        integer_sum=sum(ints),
        method=method,
    )


# ---------------------------------------------------------------------------
# stationary observables and their closed forms


def expected_peaks(length: int) -> ExactRational:
    """Exact stationary mean of the peak count.

    >>> expected_peaks(4)
    Fraction(8, 5)
    """
    st = _chain(length)
    pi = stationary_distribution(length).vector()
    return sum(p * c for p, c in zip(pi, st.peak_count))


def prob_omega_global(length: int) -> ExactRational:
    """Exact stationary probability of the avalanche-armed states.

    >>> prob_omega_global(4)
    Fraction(1, 5)
    """
    st = _chain(length)
    pi = stationary_distribution(length).vector()
    return sum(p for p, flag in zip(pi, st.omega_flag) if flag)


def exact_drifts(length: int) -> tuple[ExactRational, ExactRational]:
    """Long-run currents (evacuated tiles, global avalanches) per unit time.

    The pair is exact; the tile balance (evacuation current plus mean peak
    count equals the ring length) is asserted before returning.

    >>> exact_drifts(4)
    (Fraction(12, 5), Fraction(1, 5))
    """
    st = _chain(length)
    pi = stationary_distribution(length).vector()
    current_diamond = sum(p * d for p, d in zip(pi, st.diamond_rate))
    current_global = sum(p * g for p, g in zip(pi, st.global_rate))
    if current_diamond + expected_peaks(length) != length:
        raise RuntimeError("stationary tile balance violated")
    return current_diamond, current_global


def diamond_current_formula(length: int) -> ExactRational:
    """Closed form of the evacuated-tile current, L(5L^2-8)/(8(L^2-1))."""
    return Fraction(length * (5 * length * length - 8),
                    8 * (length * length - 1))


def global_current_formula(length: int) -> ExactRational:
    """Closed form of the global-avalanche current, 3L/(4(L^2-1))."""
    return Fraction(3 * length, 4 * (length * length - 1))


def peak_mean_formula(length: int) -> ExactRational:
    """Closed form of the stationary mean peak count, 3L^3/(8(L^2-1))."""
    return Fraction(3 * length ** 3, 8 * (length * length - 1))


def omega_probability_formula(length: int) -> ExactRational:
    """Closed form of the armed-set probability; coincides with the
    global-avalanche current because exactly one site triggers it."""
    return global_current_formula(length)
