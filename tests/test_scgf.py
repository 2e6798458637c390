"""Tilted generators, Perron eigenvalues, and derivative cross-checks."""

from math import exp

import numpy as np
import pytest
import scipy.sparse as sp

from raisepeel.profiles import apply_move, enumerate_states
from raisepeel.scgf import (
    ConvergenceError,
    DeformedParams,
    build_deformed,
    largest_eigenvalue,
    perron_gap,
    scgf_derivatives,
    scgf_value,
)
from raisepeel.stationary import diamond_current_formula, global_current_formula


def test_deformed_matrix_l2():
    alpha, beta = 0.3, 0.2
    m = build_deformed(2, DeformedParams(alpha, beta))
    states = enumerate_states(2)
    lo = states.index((0, 1))
    hi = states.index((2, 1))
    # adsorption carries no weight factor; the full two-layer removal
    # carries e^(alpha + L*beta)
    assert m[hi, lo] == pytest.approx(1.0)
    assert m[lo, hi] == pytest.approx(exp(alpha + 2 * beta))
    assert m[lo, lo] == m[hi, hi] == -1.0


def _reference_generator(length):
    """Forward generator from the reference move: entry (target, source)
    counts the sites whose move sends source to target, minus L on the
    diagonal."""
    states = enumerate_states(length)
    index = {s: k for k, s in enumerate(states)}
    gen = -length * np.eye(len(states), dtype=np.int64)
    for k, h in enumerate(states):
        for site in range(length):
            gen[index[apply_move(h, site).target], k] += 1
    return gen


def test_deformed_matches_generator_at_zero_tilt():
    for length in (2, 4, 6, 8):
        m = build_deformed(length, DeformedParams())
        gen = _reference_generator(length)
        assert m.dtype == np.float64
        assert np.max(np.abs(m.toarray() - gen)) < 1e-14


def test_negative_off_diagonal_rejected():
    m = np.array([[-1.0, 0.5], [-0.2, -1.0]])
    with pytest.raises(ValueError):
        largest_eigenvalue(m)
    with pytest.raises(ValueError):
        largest_eigenvalue(sp.csr_matrix(m))


def test_l2_closed_form():
    # the 2x2 tilted matrix has top eigenvalue -1 + exp((alpha+2*beta)/2)
    for alpha, beta in [(0.0, 0.0), (0.4, -0.1), (-0.3, 0.25), (0.35, 0.0)]:
        expected = -1.0 + exp((alpha + 2 * beta) / 2)
        got = scgf_value(2, DeformedParams(alpha, beta)).lambda_value
        assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
def test_vanishes_at_zero_tilt(length):
    result = scgf_value(length)
    assert abs(result.lambda_value) <= 1e-12
    assert result.residual <= 1e-12
    assert result.iterations >= 1


@pytest.mark.parametrize("length,expected", [
    (2, (0.5, 1.0)),
    (4, (0.2, 2.4)),
    (8, (2 / 21, 104 / 21)),
])
def test_derivatives_spot_values(length, expected):
    d_alpha, d_beta = scgf_derivatives(length)
    assert d_alpha == pytest.approx(expected[0], rel=1e-6)
    assert d_beta == pytest.approx(expected[1], rel=1e-6)


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10])
def test_derivatives_match_exact_currents(length):
    d_alpha, d_beta = scgf_derivatives(length)
    assert d_alpha == pytest.approx(float(global_current_formula(length)), rel=1e-6)
    assert d_beta == pytest.approx(float(diamond_current_formula(length)), rel=1e-6)


@pytest.mark.parametrize("alpha,beta", [
    (float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0),
    (0.0, float("-inf")), (0.0, 1000.0),             # the last overflows exp
])
def test_nonfinite_move_weights_refused(alpha, beta):
    with pytest.raises(ValueError, match=r"tilt \(alpha, beta\) = .* non-finite"):
        build_deformed(4, DeformedParams(alpha, beta))


def test_step_validation():
    with pytest.raises(ValueError):
        scgf_derivatives(4, h_step=0.0)
    with pytest.raises(ValueError):
        scgf_derivatives(4, h_step=2e-3)


@pytest.mark.parametrize("length", [4, 6])
@pytest.mark.parametrize("axis", [0, 1])
def test_midpoint_convexity(length, axis):
    points = np.linspace(-0.5, 0.5, 9)

    def lam(t):
        tilt = DeformedParams(t, 0.0) if axis == 0 else DeformedParams(0.0, t)
        return scgf_value(length, tilt).lambda_value

    values = [lam(t) for t in points]
    for i in range(len(points) - 2):
        mid = values[i + 1]
        assert mid <= (values[i] + values[i + 2]) / 2 + 1e-10


def test_perron_gap_positive():
    gaps = {length: perron_gap(build_deformed(length, DeformedParams()))
            for length in (2, 4, 6, 8)}
    assert all(g > 0.3 for g in gaps.values())
    assert gaps[2] == pytest.approx(2.0, rel=1e-9)
    assert gaps[4] == pytest.approx(1.0, rel=1e-9)


def test_dense_fallback_when_iteration_stalls():
    m = build_deformed(4, DeformedParams(0.2, 0.1))
    res = largest_eigenvalue(m, max_iterations=1)
    assert res.method == "dense-fallback"
    reference = largest_eigenvalue(m)
    assert res.lambda_value == pytest.approx(reference.lambda_value, abs=1e-10)
    assert reference.method == "power-iteration"


@pytest.mark.parametrize("route, forbidden", [
    ("stationary", {"scgf", "spinchain", "tq"}),
    ("scgf", {"stationary", "spinchain", "tq"}),
    ("tq", {"stationary", "scgf", "spinchain"}),
    # the spin chain reuses the eigenvalue route's ConvergenceError only
    ("spinchain", {"stationary", "tq"}),
], ids=["stationary", "scgf", "tq", "spinchain"])
def test_route_is_independent_of_the_other_routes(route, forbidden):
    # the solvers share no code: the only cross-checks live in the tests
    # and the verification driver
    import ast
    import importlib
    module = importlib.import_module(f"raisepeel.{route}")
    tree = ast.parse(open(module.__file__).read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert not imported & forbidden


def test_convergence_error_is_a_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)
