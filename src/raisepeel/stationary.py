"""Exact stationary states of the raise-and-peel ring.

Everything here reads the ring's transition table as it is (move targets,
the images of each state under the ring's two symmetries, rotation with a
height shift and reflection, and the move counters) and builds no
generator matrix.  The moves are counted between the orbits of the two
maps, one bincount, and the small lumped chain is solved by a
subtraction-free censoring elimination in rational arithmetic.  Its orbit
values are cleared once to coprime integer weights, spread over the
orbits' states, and sealed by an exact certificate in Python integers:
every weight positive, the weights coprime, the inflow of every state
(reflections included) equal to L times its weight, and the transition
graph strongly connected.  So the weights over their sum are the
stationary distribution, not a numerical approximation.

Each stationary observable (the mean peak count, the probability of the
avalanche-armed set, the two long-run currents) is one dot product of the
weights with per-state integers over their sum, taken from the table as
Python ints when the observable is asked for, and has a closed rational
formula in the ring length to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

import numpy as np

from .profiles import HeightProfile, TransitionTable, transition_table


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

    @property
    def smallest_integer(self) -> int:
        return min(self.integer_form.values())


def _chain(length: int) -> TransitionTable:
    """The ring's transition table, the one walk of the moves this layer reads."""
    return transition_table(length)


# ---------------------------------------------------------------------------
# kernel solver


def _orbits(rotate: np.ndarray, reflect: np.ndarray) -> np.ndarray:
    """Orbit label of each state under the two symmetry maps of the ring,
    given as the index of each state's image.  Labels fall to the smallest
    index of the orbit; orbits are numbered in order of their first state.
    """
    label = np.arange(len(rotate))
    while True:
        lowered = np.minimum(label, np.minimum(label[rotate], label[reflect]))
        if (lowered == label).all():
            return np.unique(label, return_inverse=True)[1]
        label = lowered


def _solve_censoring(counts: np.ndarray) -> list[Fraction]:
    """Stationary weights of the chain whose rate from s to t is
    counts[s, t], by subtraction-free elimination (GTH ordering) in exact
    rationals, scaled so that state 0 has weight one.

    States are censored one by one from the top index down; the stored
    ratios then rebuild the stationary weights from state 0 upward.  All
    intermediate quantities are nonnegative, so no cancellation occurs.
    Self-loops, the diagonal of counts, play no part.
    """
    n = counts.shape[0]
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
    return weight


def _solve_lumped(target: np.ndarray, orbit: np.ndarray) -> list[int]:
    """Stationary candidate weights from the chain lumped onto the given
    orbits, as coprime Python ints in state order.

    counts[a, b] is the number of moves from a state of orbit a into a
    state of orbit b.  When the symmetries make the chain strongly
    lumpable, a vector constant on each orbit is stationary exactly when
    its per-state values are stationary for these counts, so the solve
    gives the weight per state of each orbit.  These m values are cleared
    to coprime integers once and spread over the orbits' states.  Nothing
    here proves the lumping; the full-chain certificate does.  Identity
    labels solve the full chain.
    """
    m = int(orbit.max()) + 1
    pairs = orbit[:, None] * m + orbit[target]
    counts = np.bincount(pairs.ravel(), minlength=m * m).reshape(m, m)
    values = _solve_censoring(counts)
    common = lcm(*(x.denominator for x in values))
    cleared = [x.numerator * (common // x.denominator) for x in values]
    shrink = gcd(*cleared)
    per_orbit = [c // shrink for c in cleared]
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
    weights = _solve_lumped(table.target, _orbits(table.rotate, table.reflect))
    _certify(table.target, weights)
    total = sum(weights)
    return StationaryVector(
        length=length,
        states=table.states,
        probabilities={s: Fraction(w, total) for s, w in zip(table.states, weights)},
        integer_form=dict(zip(table.states, weights)),
        integer_sum=total,
        method="lumped-censoring-exact",
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

    The pair is exact; the tile balance (evacuation current plus mean peak
    count equals the ring length) is asserted before returning.

    >>> exact_drifts(4)
    (Fraction(12, 5), Fraction(1, 5))
    """
    table = _chain(length)
    current_diamond = _mean(length, table.d_diamond.sum(axis=1))
    current_global = _mean(length, table.d_global.sum(axis=1))
    if current_diamond + expected_peaks(length) != length:
        raise RuntimeError("stationary tile balance violated")
    return current_diamond, current_global


def diamond_current_formula(length: int) -> Fraction:
    """Closed form of the evacuated-tile current, L(5L^2-8)/(8(L^2-1))."""
    return Fraction(length * (5 * length * length - 8),
                    8 * (length * length - 1))


def global_current_formula(length: int) -> Fraction:
    """Closed form of the global-avalanche current, 3L/(4(L^2-1))."""
    return Fraction(3 * length, 4 * (length * length - 1))


def peak_mean_formula(length: int) -> Fraction:
    """Closed form of the stationary mean peak count, 3L^3/(8(L^2-1))."""
    return Fraction(3 * length ** 3, 8 * (length * length - 1))


def omega_probability_formula(length: int) -> Fraction:
    """Closed form of the armed-set probability; coincides with the
    global-avalanche current because exactly one site triggers it."""
    return global_current_formula(length)
