"""Tilted generators, Perron eigenvalues, and derivative cross-checks."""

from math import exp
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import raisepeel.scgf as scgf_mod
from raisepeel.profiles import apply_move, enumerate_states
from raisepeel.scgf import (
    _STALL_LIMIT,
    _TOLERANCE,
    ConvergenceError,
    DeformedParams,
    build_deformed,
    largest_eigenvalue,
    perron_roots,
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


def perron_gap(matrix):
    """Modulus gap between the two leading eigenvalues of the shifted
    matrix, dense: a diagnostic that the Perron root is simple."""
    a = sp.csr_matrix(matrix, dtype=float).toarray()
    shift = max(0.0, -float(a.diagonal().min())) + 1.0
    moduli = np.sort(np.abs(np.linalg.eigvals(a + shift * np.eye(len(a)))))
    return float(moduli[-1] - moduli[-2])


def test_perron_gap_positive():
    gaps = {length: perron_gap(build_deformed(length, DeformedParams()))
            for length in (2, 4, 6, 8)}
    assert all(g > 0.3 for g in gaps.values())
    assert gaps[2] == pytest.approx(2.0, rel=1e-9)
    assert gaps[4] == pytest.approx(1.0, rel=1e-9)


def _reference_root(matrix, max_iterations=100_000):
    """One matrix at a time: power iteration on matrix + shift*I, the
    quotient bounds read after every matvec, the iterate 2-normalised."""
    a = sp.csr_matrix(matrix, dtype=float)
    shift = max(0.0, -float(a.diagonal().min())) + 1.0
    shifted = a + shift * sp.identity(a.shape[0], format="csr")
    v = np.ones(a.shape[0])
    for _ in range(max_iterations):
        w = shifted @ v
        quotients = w / v
        lo, hi = quotients.min(), quotients.max()
        if hi - lo < _TOLERANCE:
            return 0.5 * (lo + hi) - shift
        v = w / np.linalg.norm(w)
    raise AssertionError("reference power iteration did not pinch")


_STENCIL = ([DeformedParams(t, 0.0) for t in (1e-3, -1e-3, 5e-4, -5e-4)]
            + [DeformedParams(0.0, t) for t in (1e-3, -1e-3, 5e-4, -5e-4)])


_BRIDGE_GRID = [DeformedParams(a, b) for a in (-0.1, 0.0, 0.1) for b in (-0.1, 0.0, 0.1)]


@pytest.mark.parametrize("length, tilts", [
    *[(length, _STENCIL) for length in (2, 4, 6, 8, 10, 12)],
    *[(length, _BRIDGE_GRID) for length in (4, 6, 8)],
], ids=[*(f"stencil-L{n}" for n in (2, 4, 6, 8, 10, 12)),
        *(f"bridge-L{n}" for n in (4, 6, 8))])
def test_block_solve_matches_one_matrix_reference(length, tilts):
    matrices = [build_deformed(length, tilt) for tilt in tilts]
    roots = perron_roots(matrices)
    for matrix, root in zip(matrices, roots):
        assert root.method == "power-iteration"
        assert root.residual <= 1e-13
        assert abs(root.lambda_value - _reference_root(matrix)) <= 1e-12


def test_block_results_do_not_depend_on_the_neighbours():
    # rows of one block never meet another block's entries, and each block
    # keeps its own scale and bounds: while no block stalls, each solves
    # exactly as it would alone
    matrices = [build_deformed(8, tilt) for tilt in _STENCIL]
    together = perron_roots(matrices)
    alone = [largest_eigenvalue(matrix) for matrix in matrices]
    assert together == alone


def test_one_stalling_block_falls_back_alone():
    # at a Perron root near 6000 the spacing of float64 exceeds _TOLERANCE,
    # so the scaled block's enclosure cannot pinch and no gain counts
    base = build_deformed(6, DeformedParams(0.2, 0.1))
    matrices = [build_deformed(6, DeformedParams(0.1, -0.05)), 1000.0 * base,
                build_deformed(6, DeformedParams())]
    first, scaled, origin = perron_roots(matrices)
    assert first.method == origin.method == "power-iteration"
    assert scaled.method == "dense-fallback"
    assert scaled.iterations <= _STALL_LIMIT
    assert scaled.lambda_value == pytest.approx(1000.0 * largest_eigenvalue(base).lambda_value,
                                                rel=1e-12)
    # the stalling block's checks come every matvec, so the others pinch
    # at other steps than alone: equal to within the enclosure
    for together, matrix in ((first, matrices[0]), (origin, matrices[2])):
        alone = largest_eigenvalue(matrix)
        assert together.lambda_value == pytest.approx(alone.lambda_value, abs=1e-12)
        assert together.residual <= _TOLERANCE


def test_stall_at_float_resolution_is_reported_promptly():
    # the tilted root at beta=10 is about 1.7e5, where float64 cannot
    # resolve an absolute width of 1e-13, and the matrix is too large for
    # the dense fallback
    with pytest.raises(ConvergenceError, match=r"stalled at width \d") as info:
        largest_eigenvalue(build_deformed(12, DeformedParams(0.0, 10.0)))
    iterations = int(str(info.value).split(" after ")[1].split()[0])
    assert iterations <= 4 * _STALL_LIMIT


@pytest.mark.parametrize("position", [0, 1, 2])
def test_negative_entry_in_any_block_refused(position):
    matrices = [build_deformed(4, DeformedParams(0.1 * k, 0.0)) for k in range(3)]
    bad = matrices[position].toarray()
    bad[0, 1] = -0.5
    matrices[position] = bad
    with pytest.raises(ValueError, match="negative off-diagonal"):
        perron_roots(matrices)


def test_block_shapes_and_row_sums_validated():
    with pytest.raises(ValueError):
        perron_roots([])
    with pytest.raises(ValueError, match="one size"):
        perron_roots([build_deformed(4), build_deformed(6)])
    with pytest.raises(ValueError, match="row sums"):
        largest_eigenvalue(np.array([[1e308, 1e308], [1.0, 1.0]]))


def _dense_root(matrix):
    return float(np.linalg.eigvals(matrix.toarray()).real.max())


@pytest.mark.parametrize("length, tilt", [
    (4, DeformedParams(0.0, 100.0)), (8, DeformedParams(150.0, -3.0)),
    (10, DeformedParams(0.0, 30.0)),
])
def test_huge_finite_weights_stall_promptly(length, tilt):
    # weights up to e^400: each block is scaled by a power of two at its
    # quotient bound, so no unnormalised step overflows, the enclosure stays
    # finite, and the root, far past what float64 resolves to 1e-13, is
    # handed to the dense solve within _STALL_LIMIT matvecs
    matrix = build_deformed(length, tilt)
    result = largest_eigenvalue(matrix)
    assert result.method == "dense-fallback"
    assert result.iterations <= _STALL_LIMIT
    assert result.lambda_value == pytest.approx(_dense_root(matrix), rel=1e-12)


def test_stencil_is_one_block_solve(monkeypatch):
    builds, solves = [], []
    build, solve = scgf_mod.build_deformed, scgf_mod.perron_roots

    def counted_build(length, params=DeformedParams()):
        builds.append(params)
        return build(length, params)

    def counted_solve(matrices, *args):
        roots = solve(matrices, *args)
        solves.append(len(roots))
        return roots

    monkeypatch.setattr(scgf_mod, "build_deformed", counted_build)
    monkeypatch.setattr(scgf_mod, "perron_roots", counted_solve)
    d_alpha, d_beta = scgf_derivatives(6)
    assert solves == [8]
    assert len(builds) == len(set(builds)) == 8
    assert d_alpha == pytest.approx(float(global_current_formula(6)), rel=1e-6)
    assert d_beta == pytest.approx(float(diamond_current_formula(6)), rel=1e-6)


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
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
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


@pytest.mark.parametrize("length,alpha,beta", [(4, 1, 2), (14, 0, 10)])
def test_integer_tilts_weigh_as_float_tilts(length, alpha, beta):
    # the table's counters are int8; an integer tilt must not be applied to
    # them in int8 (10 * 14 evacuated tiles overflows, exp would round to
    # float16)
    exact = build_deformed(length, DeformedParams(float(alpha), float(beta)))
    assert (build_deformed(length, DeformedParams(alpha, beta)) != exact).nnz == 0
