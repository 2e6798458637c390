"""Exact stationary distributions, currents, and their closed forms."""

import os
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from pathlib import Path

import numpy as np
import pytest

import raisepeel.stationary
from raisepeel.profiles import apply_move, enumerate_states, transition_table
from raisepeel.scgf import build_deformed
from raisepeel.stationary import (
    _certify,
    _chain,
    _lu_mod,
    _solve_lumped,
    _solve_padic,
    diamond_current_formula,
    exact_drifts,
    expected_peaks,
    global_current_formula,
    omega_probability_formula,
    peak_mean_formula,
    prob_omega_global,
    stationary_distribution,
)

F = Fraction

# denominators of the stationary distributions, i.e. the totals of the
# coprime integer forms; 16 and 18 are observed from the p-adic solve,
# certified, and equal to A_HT(L) (see below)
INTEGER_SUMS = {2: 2, 4: 10, 6: 140, 8: 5544, 10: 622908, 12: 198846076,
                14: 180473355920, 16: 465904151957920, 18: 3422048076740462480}

L4_WEIGHTS = {
    (0, 1, 0, 1): F(3, 10),
    (0, 1, 2, 1): F(1, 10),
    (2, 1, 0, 1): F(1, 10),
    (2, 1, 2, 1): F(3, 10),
    (2, 1, 2, 3): F(1, 10),
    (2, 3, 2, 1): F(1, 10),
}


# the forward generator of the chain is the tilted generator at zero tilt
def test_generator_l2():
    gen = build_deformed(2)
    assert gen.shape == (2, 2)
    assert gen.toarray().dtype == np.float64
    assert gen.toarray().tolist() == [[-1, 1], [1, -1]]


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_generator_columns_sum_to_zero(length):
    gen = build_deformed(length).toarray()
    assert gen.dtype == np.float64
    assert not gen.sum(axis=0).any()


def test_generator_row_sums_l4():
    # nonzero row sums: the chain is not doubly stochastic, so the
    # uniform vector is not stationary
    sums = build_deformed(4).toarray().sum(axis=1).tolist()
    assert sums == [4, -2, -2, 4, -2, -2]
    assert any(s != 0 for s in sums)


def test_stationary_l2():
    vec = stationary_distribution(2)
    assert vec.vector() == (F(1, 2), F(1, 2))
    assert vec.integer_sum == 2


def test_stationary_l4_frozen():
    vec = stationary_distribution(4)
    assert vec.probabilities == L4_WEIGHTS


@pytest.mark.parametrize("length", [4, 6, 8])
def test_reflection_symmetry(length):
    # reversing the ring through a fixed even site leaves the law alone
    vec = stationary_distribution(length)
    for state, weight in vec.probabilities.items():
        mirrored = tuple(state[(2 - i) % length] for i in range(length))
        assert vec.probabilities[mirrored] == weight


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
def test_shifted_rotation_symmetry(length):
    # turning the ring by one site and shifting the heights by one, so
    # that parity and the bottom level hold, leaves the law alone
    vec = stationary_distribution(length)
    for state, weight in vec.probabilities.items():
        rotated = state[1:] + state[:1]
        shift = 1 if min(rotated) == 0 else -1
        assert vec.probabilities[tuple(h + shift for h in rotated)] == weight


ORBIT_COUNTS = {2: 1, 4: 2, 6: 4, 8: 9, 10: 21, 12: 56, 14: 155, 16: 469, 18: 1480}


@pytest.mark.parametrize("length,count", sorted(ORBIT_COUNTS.items()))
def test_orbit_counts(length, count):
    assert sorted(set(_chain(length).orbit.tolist())) == list(range(count))


@pytest.mark.parametrize("length", range(2, 17, 2))
def test_symmetry_maps_commute_with_the_moves(length):
    # the lumping premise: turning or mirroring a state and then dropping a
    # tile at the image site is the same move as dropping first and then
    # turning or mirroring (the counters are not invariant under the
    # shifted rotation, so only the targets are compared).  The table
    # builds every column past site 0 through the rotation, so its
    # rotation half holds by construction; the next test checks it on
    # apply_move itself
    table = transition_table(length)
    n = len(table.states)
    sites = np.arange(length)
    for image in (table.rotate, table.reflect):
        assert sorted(image.tolist()) == list(range(n))
    assert (table.reflect[table.reflect] == np.arange(n)).all()
    assert (table.target[table.rotate][:, (sites - 1) % length]
            == table.rotate[table.target]).all()
    assert (table.target[table.reflect][:, (2 - sites) % length]
            == table.reflect[table.target]).all()


@pytest.mark.parametrize("length", range(2, 11, 2))
def test_shifted_rotation_commutes_with_apply_move(length):
    # table-free: dropping a tile at site i and then rotating is rotating
    # and then dropping at site i - 1, for every state and site
    def rotated(h):
        turned = h[1:] + h[:1]
        shift = 1 if min(turned) == 0 else -1
        return tuple(x + shift for x in turned)

    for state in enumerate_states(length):
        for site in range(length):
            assert (rotated(apply_move(state, site).target)
                    == apply_move(rotated(state), (site - 1) % length).target)


def bfs_orbits(states):
    """Reference orbit labels: a breadth-first walk over the profiles
    under the shifted rotation and the reflection through site 1, orbits
    numbered in order of their first state."""
    length = len(states[0])
    index = {s: k for k, s in enumerate(states)}

    def images(h):
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


@pytest.mark.parametrize("length", range(2, 17, 2))
def test_orbit_labels_match_the_profile_walk(length):
    st = _chain(length)
    assert st.orbit.tolist() == bfs_orbits(st.states).tolist()


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_lumped_solve_matches_full_elimination(length):
    vec = stationary_distribution(length)
    assert vec.method == "lumped-padic-exact"
    target = _chain(length).target
    weights = [vec.integer_form[s] for s in vec.states]
    assert weights == _solve_lumped(target, np.arange(len(target)))


def orbit_counts(target, orbit):
    """Moves from the states of each orbit into the states of each orbit."""
    m = int(orbit.max()) + 1
    return np.bincount((orbit[:, None] * m + orbit[target]).ravel(),
                       minlength=m * m).reshape(m, m)


def gth_weights(counts):
    """Reference stationary weights of the chain whose rate from s to t is
    counts[s, t], by subtraction-free elimination (GTH ordering) in exact
    rationals, scaled so that state 0 has weight one.

    States are censored one by one from the top index down; the stored
    ratios then rebuild the stationary weights from state 0 upward.  All
    intermediate quantities are nonnegative, so no cancellation occurs.
    Self-loops, the diagonal of counts, play no part.
    """
    n = counts.shape[0]
    rate = [[F(c) for c in row] for row in counts.tolist()]
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
    weight = [F(0)] * n
    weight[0] = F(1)
    for k in range(1, n):
        weight[k] = sum(weight[i] * rate[i][k] for i in range(k) if rate[i][k])
    return weight


def gth_lumped(target, orbit):
    """The candidate weights of _solve_lumped by the Fraction elimination:
    cleared to coprime integers and spread over the orbits' states."""
    values = gth_weights(orbit_counts(target, orbit))
    common = lcm(*(x.denominator for x in values))
    cleared = [x.numerator * (common // x.denominator) for x in values]
    per_orbit = [c // gcd(*cleared) for c in cleared]
    return [per_orbit[o] for o in orbit.tolist()]


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
def test_padic_solve_matches_the_fraction_elimination(length):
    st = _chain(length)
    for orbit in (st.orbit, np.arange(len(st.states))):
        assert _solve_lumped(st.target, orbit) == gth_lumped(st.target, orbit)


def lumped_system(length):
    """The integer system of the lumped solve at this length: the balance
    matrix counts^T - L diag(sizes) without orbit 0's row and column, and
    minus orbit 0's column as the right-hand side."""
    st = _chain(length)
    orbit = st.orbit
    matrix = orbit_counts(st.target, orbit).T - length * np.diag(np.bincount(orbit))
    return matrix[1:, 1:], -matrix[1:, 0]


def leading_minors(a):
    """Exact leading principal minors, from elimination without exchanges."""
    rows = [[F(v) for v in row] for row in a.tolist()]
    minors, det = [], F(1)
    for k, pivot_row in enumerate(rows):
        det *= pivot_row[k]
        minors.append(int(det))
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / pivot_row[k]
            rows[i] = [x - f * y for x, y in zip(rows[i], pivot_row)]
    return minors


def test_a_prime_dividing_a_pivot_moves_to_the_next_prime():
    # 29 divides the third leading minor of the L=8 system and none
    # before it, so the third pivot vanishes mod 29; 23 divides none
    a, b = lumped_system(8)
    minors = leading_minors(a)
    assert [d % 29 == 0 for d in minors[:3]] == [False, False, True]
    assert all(d % 23 for d in minors)
    assert _lu_mod(a, 29) is None
    numerators, den, prime, steps = _solve_padic(a, b, prime=29)
    assert prime == 23
    st = _chain(8)
    expected = gth_weights(orbit_counts(st.target, st.orbit))
    assert [F(n, den) for n in numerators] == expected[1:]


def test_lifting_refuses_past_the_hadamard_bound(monkeypatch):
    # a rebuild that never succeeds must end the lifting, not loop on it
    monkeypatch.setattr(raisepeel.stationary, "_rebuild", lambda x, modulus: None)
    a, b = lumped_system(6)
    with pytest.raises(RuntimeError, match="Hadamard bound"):
        _solve_padic(a, b)


def test_a_wrong_digit_fails_the_lifting(monkeypatch):
    # a digit that does not solve the system mod p leaves a residual the
    # prime does not divide
    solve_mod = raisepeel.stationary._solve_mod
    monkeypatch.setattr(raisepeel.stationary, "_solve_mod",
                        lambda *args: solve_mod(*args) + 1)
    a, b = lumped_system(6)
    with pytest.raises(RuntimeError, match="not divisible"):
        _solve_padic(a, b)


def test_corrupted_orbits_fail_the_certificate(monkeypatch):
    # merging two orbits breaks the lumping; the full-chain certificate,
    # not the solver, has to catch it
    table = _chain(6)
    orbit = table.orbit.copy()
    orbit[orbit == 1] = 0
    orbit[orbit > 1] -= 1
    merged = table._replace(orbit=orbit)
    monkeypatch.setattr(raisepeel.stationary, "_chain", lambda length: merged)
    stationary_distribution.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="kernel residual"):
            stationary_distribution(6)
    finally:
        stationary_distribution.cache_clear()


def certified_weights(length):
    vec = stationary_distribution(length)
    return [vec.integer_form[s] for s in vec.states]


def test_nonpositive_weight_fails_the_certificate():
    # moving one state's weight onto another keeps the total
    weights = certified_weights(6)
    weights[0], weights[1] = 0, weights[0] + weights[1]
    with pytest.raises(RuntimeError, match="nonpositive"):
        _certify(_chain(6).target, weights)


def test_non_coprime_weights_fail_the_certificate():
    # twice the certified weights balance every state; only their common
    # factor is off, so their sum is not the common denominator
    weights = [2 * w for w in certified_weights(6)]
    with pytest.raises(RuntimeError, match="not coprime"):
        _certify(_chain(6).target, weights)


def test_disconnected_chain_fails_the_certificate():
    # two copies of the L=2 ring side by side: the unit weights are
    # positive, coprime and balanced, but not the unique stationary law
    ring = transition_table(2).target
    target = np.concatenate([ring, ring + 2])
    with pytest.raises(RuntimeError, match="not strongly connected"):
        _certify(target, [1] * 4)


def test_exact_core_loads_no_scipy():
    # nor does any other route: the command-line driver imports them all
    code = ("import sys\n"
            "import raisepeel.profiles, raisepeel.stationary, raisepeel.simulate, "
            "raisepeel.qfield, raisepeel.tq, raisepeel.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("length,total", sorted(INTEGER_SUMS.items()))
def test_integer_form(length, total):
    vec = stationary_distribution(length)
    ints = list(vec.integer_form.values())
    assert all(v > 0 for v in ints)
    assert gcd(*ints) == 1
    assert sum(ints) == total == vec.integer_sum
    assert vec.smallest_integer == 1
    # the integer form is exactly the probabilities over a common denominator
    for state, weight in vec.probabilities.items():
        assert weight == F(vec.integer_form[state], total)


def half_turn_asm_count(length):
    """A_HT(L), the number of half-turn symmetric alternating sign matrices
    of even order L (Kuperberg, math/0008184)."""
    n = length // 2
    return prod(factorial(3 * i) * factorial(3 * i + 2) for i in range(n)) // prod(
        factorial(n + i) ** 2 for i in range(n))


# observed, not claims of the paper: the cleared weights sum to A_HT(L),
# in the spirit of the Razumov-Stroganov correspondence (cond-mat/0108103),
# and the largest weight takes these values
LARGEST_WEIGHTS = {2: 1, 4: 3, 6: 25, 8: 588, 10: 39204, 12: 7422987,
                   14: 3994998436, 16: 6114639226800, 18: 26624630345349136}


@pytest.mark.parametrize("length,largest", sorted(LARGEST_WEIGHTS.items()))
def test_observed_half_turn_asm_counts(length, largest):
    vec = stationary_distribution(length)
    assert vec.integer_sum == half_turn_asm_count(length)
    assert max(vec.integer_form.values()) == largest


def test_observable_spot_values():
    assert expected_peaks(2) == 1
    assert expected_peaks(4) == F(8, 5)
    assert expected_peaks(6) == F(81, 35)
    assert expected_peaks(8) == F(64, 21)
    assert prob_omega_global(6) == F(9, 70)
    assert exact_drifts(2) == (F(1), F(1, 2))
    assert exact_drifts(4) == (F(12, 5), F(1, 5))
    assert exact_drifts(8) == (F(104, 21), F(2, 21))


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10, 12, 14, 16, 18])
def test_formulas_match_enumeration(length):
    drift_diamond, drift_global = exact_drifts(length)
    assert drift_diamond == diamond_current_formula(length)
    assert drift_global == global_current_formula(length)
    assert expected_peaks(length) == peak_mean_formula(length)
    assert prob_omega_global(length) == omega_probability_formula(length)


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10, 12, 14])
def test_tile_balance_and_trigger_identity(length):
    drift_diamond, drift_global = exact_drifts(length)
    assert drift_diamond + expected_peaks(length) == length
    # one trigger site per eligible state makes the current a probability
    assert drift_global == prob_omega_global(length)


def test_closed_forms():
    for length in range(2, 13, 2):
        denominator = 8 * (length * length - 1)
        assert diamond_current_formula(length) == F(
            length * (5 * length * length - 8), denominator)
        assert global_current_formula(length) == F(
            6 * length, denominator)
        assert peak_mean_formula(length) == F(3 * length ** 3, denominator)


def test_odd_length_rejected():
    with pytest.raises(ValueError):
        stationary_distribution(5)
    with pytest.raises(ValueError):
        transition_table(3)
