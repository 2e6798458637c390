"""Exact stationary distributions, currents, and their closed forms."""

import doctest
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import raisepeel.stationary
from raisepeel.stationary import (
    _chain,
    _orbits,
    _solve_censoring,
    build_generator,
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
# coprime integer forms
INTEGER_SUMS = {2: 2, 4: 10, 6: 140, 8: 5544, 10: 622908, 12: 198846076,
                14: 180473355920}

L4_WEIGHTS = {
    (0, 1, 0, 1): F(3, 10),
    (0, 1, 2, 1): F(1, 10),
    (2, 1, 0, 1): F(1, 10),
    (2, 1, 2, 1): F(3, 10),
    (2, 1, 2, 3): F(1, 10),
    (2, 3, 2, 1): F(1, 10),
}


def test_generator_l2():
    gen = build_generator(2)
    assert gen.shape == (2, 2)
    assert gen.dtype == np.int64
    assert gen.toarray().tolist() == [[-1, 1], [1, -1]]


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_generator_columns_sum_to_zero(length):
    gen = build_generator(length)
    assert gen.dtype == np.int64
    assert not gen.sum(axis=0).any()


def test_generator_row_sums_l4():
    # nonzero row sums: the chain is not doubly stochastic, so the
    # uniform vector is not stationary
    sums = np.asarray(build_generator(4).sum(axis=1)).ravel().tolist()
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


ORBIT_COUNTS = {2: 1, 4: 2, 6: 4, 8: 9, 10: 21, 12: 56}


@pytest.mark.parametrize("length,count", sorted(ORBIT_COUNTS.items()))
def test_orbit_counts(length, count):
    orbit = _orbits(_chain(length).states)
    assert sorted(set(orbit.tolist())) == list(range(count))


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_lumped_solve_matches_full_elimination(length):
    vec = stationary_distribution(length)
    assert vec.method == "lumped-censoring-exact"
    assert list(vec.vector()) == _solve_censoring(build_generator(length))


def test_corrupted_orbits_fail_the_certificate(monkeypatch):
    # merging two orbits breaks the lumping; the full-chain certificate,
    # not the solver, has to catch it
    def merged(states):
        orbit = _orbits(states).copy()
        orbit[orbit == 1] = 0
        orbit[orbit > 1] -= 1
        return orbit

    monkeypatch.setattr(raisepeel.stationary, "_orbits", merged)
    stationary_distribution.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="kernel residual"):
            stationary_distribution(6)
    finally:
        stationary_distribution.cache_clear()


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


def test_observable_spot_values():
    assert expected_peaks(2) == 1
    assert expected_peaks(4) == F(8, 5)
    assert expected_peaks(6) == F(81, 35)
    assert expected_peaks(8) == F(64, 21)
    assert prob_omega_global(6) == F(9, 70)
    assert exact_drifts(2) == (F(1), F(1, 2))
    assert exact_drifts(4) == (F(12, 5), F(1, 5))
    assert exact_drifts(8) == (F(104, 21), F(2, 21))


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10, 12, 14])
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
        build_generator(3)


def test_docstring_examples():
    failures, _ = doctest.testmod(raisepeel.stationary, verbose=False)
    assert failures == 0
