"""Exact stationary states of the raise-and-peel ring.

Everything here reads the ring's transition table, the target state of
every move of every state, and builds no generator matrix.  The chain
commutes with rotation of the ring (with a height shift) and with
reflection, so the moves are counted between the orbits of these two maps,
one bincount over the table, and the small lumped chain is solved by a
subtraction-free censoring elimination in rational arithmetic; each
orbit's mass is spread evenly over its states.  The result is then sealed
by an exact certificate on the cleared integer weights of the full chain,
in Python integers: every weight positive, total probability one, the
inflow of every state (reflections included) equal to L times its weight,
and the transition graph strongly connected.  So the reported vector is
the stationary distribution, not a numerical approximation.

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

from .profiles import HeightProfile, transition_table


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
    target: np.ndarray
    diamond_rate: tuple[int, ...]
    global_rate: tuple[int, ...]
    peak_count: tuple[int, ...]
    omega_flag: tuple[bool, ...]


@lru_cache(maxsize=None)
def _chain(length: int) -> _Chain:
    """Move targets and per-state rates of the ring, as exact Python integers."""
    table = transition_table(length)
    return _Chain(
        table.states, table.target,
        tuple(table.d_diamond.sum(axis=1).tolist()),
        tuple(table.d_global.sum(axis=1).tolist()),
        tuple(table.peak_count.tolist()), tuple(table.omega.tolist()))


# ---------------------------------------------------------------------------
# kernel solver


def _orbits(states: tuple[HeightProfile, ...]) -> np.ndarray:
    """Orbit label of each state under the two symmetries of the ring.

    The maps are rotation by one site followed by a height shift of +1 or
    -1 that restores the parity rule and the bottom level, and reflection
    through site 1.  Both commute with the dynamics.  Orbits are numbered
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


def _solve_censoring(counts: np.ndarray) -> list[Fraction]:
    """Stationary weights of the chain whose rate from s to t is
    counts[s, t], by subtraction-free elimination (GTH ordering) in exact
    rationals, normalized to total one.

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
    total = sum(weight)
    return [w / total for w in weight]


def _solve_lumped(target: np.ndarray, orbit: np.ndarray) -> list[Fraction]:
    """Stationary candidate from the chain lumped onto the given orbits.

    counts[a, b] is the number of moves from a state of orbit a into a
    state of orbit b.  When the symmetries make the chain strongly
    lumpable, a vector constant on each orbit is stationary exactly when
    its per-state values are stationary for these counts, so the solve
    gives the mass per state of each orbit, which is spread over the
    orbit's states and normalized.  Nothing here proves the lumping; the
    full-chain certificate does.  Identity labels solve the full chain.
    """
    m = int(orbit.max()) + 1
    pairs = orbit[:, None] * m + orbit[target]
    counts = np.bincount(pairs.ravel(), minlength=m * m).reshape(m, m)
    per_state = _solve_censoring(counts)
    pi = [per_state[o] for o in orbit.tolist()]
    total = sum(pi)
    return [x / total for x in pi]


def _certify(target: np.ndarray, pi: list[Fraction]) -> list[int]:
    """Exact proof that pi is the unique stationary distribution of the
    chain with the given move targets; returns its weights cleared to
    coprime integers, on which the balance is checked in Python integers.
    """
    n, length = target.shape
    common = lcm(*(x.denominator for x in pi))
    weights = [x.numerator * (common // x.denominator) for x in pi]
    shrink = gcd(*weights)
    weights = [w // shrink for w in weights]
    if any(w <= 0 for w in weights):
        raise RuntimeError("stationary candidate has a nonpositive entry")
    if sum(pi) != 1:
        raise RuntimeError("stationary candidate mass differs from one")
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
    return weights


@lru_cache(maxsize=None)
def stationary_distribution(length: int) -> StationaryVector:
    """Exact stationary distribution, certificate-checked.

    >>> v = stationary_distribution(2)
    >>> v.vector()
    (Fraction(1, 2), Fraction(1, 2))
    """
    st = _chain(length)
    pi = _solve_lumped(st.target, _orbits(st.states))
    ints = _certify(st.target, pi)
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


def expected_peaks(length: int) -> Fraction:
    """Exact stationary mean of the peak count.

    >>> expected_peaks(4)
    Fraction(8, 5)
    """
    st = _chain(length)
    pi = stationary_distribution(length).vector()
    return sum(p * c for p, c in zip(pi, st.peak_count))


def prob_omega_global(length: int) -> Fraction:
    """Exact stationary probability of the avalanche-armed states.

    >>> prob_omega_global(4)
    Fraction(1, 5)
    """
    st = _chain(length)
    pi = stationary_distribution(length).vector()
    return sum(p for p, flag in zip(pi, st.omega_flag) if flag)


def exact_drifts(length: int) -> tuple[Fraction, Fraction]:
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
