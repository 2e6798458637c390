"""Exact stationary states of the raise-and-peel ring.

The forward generator of the tile process is assembled over the enumerated
state space and its kernel vector is computed exactly.  The chain commutes
with rotation of the ring (with a height shift) and with reflection, so the
generator is lumped onto the orbits of these two maps and the small lumped
chain is solved by a subtraction-free censoring elimination in rational
arithmetic; each orbit's mass is spread evenly over its states.  The result
is then sealed by an exact certificate on the full chain (kernel residual
zero over the rationals, positivity, total mass one, strong connectivity of
the transition graph), so the reported vector is the stationary
distribution, not a numerical approximation.

Stationary observables follow by exact summation: the mean peak count,
the probability of the avalanche-armed set, and the two long-run currents
(evacuated tiles per unit time, global avalanches per unit time), each of
which has a closed rational formula in the ring length to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .profiles import HeightProfile, transition_table
from .qfield import ExactRational


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
# kernel solver


def _orbits(states: tuple[HeightProfile, ...]) -> np.ndarray:
    """Orbit label of each state under the two symmetries of the ring.

    The maps are rotation by one site followed by a height shift of +1 or
    -1 that restores the parity rule and the bottom level, and reflection
    through site 1.  Both commute with the generator.  Orbits are numbered
    in order of their first state.
    """
    length = len(states[0])
    index = {s: k for k, s in enumerate(states)}

    def images(h: HeightProfile) -> tuple[HeightProfile, HeightProfile]:
        rotated = h[1:] + h[:1]
        shift = 1 if min(rotated) == 0 else -1
        return (tuple(x + shift for x in rotated),
                tuple(h[(2 - i) % length] for i in range(length)))

    label = np.full(len(states), -1, dtype=np.int64)
    count = 0
    for k in range(len(states)):
        if label[k] >= 0:
            continue
        label[k] = count
        frontier = [k]
        while frontier:
            for image in images(states[frontier.pop()]):
                j = index[image]
                if label[j] < 0:
                    label[j] = count
                    frontier.append(j)
        count += 1
    return label


def _solve_censoring(generator: sp.spmatrix) -> list[Fraction]:
    """Kernel vector of a generator, by subtraction-free elimination (GTH
    ordering) in exact rationals, normalized to total one.

    States are censored one by one from the top index down; the stored
    ratios then rebuild the stationary weights from state 0 upward.  All
    intermediate quantities are nonnegative, so no cancellation occurs.
    """
    n = generator.shape[0]
    # rate[s][t] is the rate from s to t; self-loops play no part
    counts = generator.T.toarray()
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


def _solve_lumped(generator: sp.csr_matrix, orbit: np.ndarray) -> list[Fraction]:
    """Stationary candidate from the chain lumped onto the given orbits.

    With P the state-to-orbit indicator and D the orbit sizes, the lumped
    generator is P^T G P D^-1 when the symmetries make the chain strongly
    lumpable.  Its kernel vector is the orbit mass, so the kernel of the
    integer matrix P^T G P is the mass per state of each orbit, which is
    spread over the orbit's states and normalized.  Nothing here proves
    the lumping; the full-chain certificate does.
    """
    n = generator.shape[0]
    member = sp.csr_matrix((np.ones(n, dtype=np.int64), (np.arange(n), orbit)))
    per_state = _solve_censoring(member.T @ generator @ member)
    pi = [per_state[o] for o in orbit.tolist()]
    total = sum(pi)
    return [x / total for x in pi]


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
    pi = _solve_lumped(st.generator, _orbits(st.states))
    _certify(st, pi)
    common = lcm(*(x.denominator for x in pi))
    ints = [int(x * common) for x in pi]
    shrink = gcd(*ints)
    ints = [v // shrink for v in ints]
    return StationaryVector(
        length=length,
        states=st.states,
        probabilities=dict(zip(st.states, pi)),
        integer_form=dict(zip(st.states, ints)),
        integer_sum=sum(ints),
        method="lumped-censoring-exact",
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
