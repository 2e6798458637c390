"""Tilted generators, Perron eigenvalues, and derivative cross-checks."""

import logging
import os
import re
import subprocess
import sys
from math import exp, ulp
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigs

import raisepeel.scgf as scgf_mod
from raisepeel.profiles import enumerate_states, transition_table
from raisepeel.scgf import (
    _KRYLOV_DIM,
    FD_STEP,
    _STALL_LIMIT,
    _STRIDE,
    _TOLERANCE,
    ColumnMatrix,
    _orbit_columns,
    _orbit_matrix,
    ConvergenceError,
    build_deformed,
    largest_eigenvalue,
    scgf_derivatives,
    scgf_value,
)
from raisepeel.stationary import diamond_current_formula, global_current_formula
from reference import apply_move, from_dense, toarray


def test_deformed_matrix_l2():
    alpha, beta = 0.3, 0.2
    m = toarray(build_deformed(2, alpha, beta))
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
        m = build_deformed(length)
        gen = _reference_generator(length)
        assert m.weights.dtype == m.diagonal.dtype == np.float64
        assert np.max(np.abs(toarray(m) - gen)) < 1e-14


def _reference_csr(length, alpha=0.0, beta=0.0):
    """The tilted generator as a scipy CSR matrix, entry (target, source)
    summed over the transition table's moves."""
    table = transition_table(length)
    n = len(table.states)
    weights = np.exp(alpha * table.d_global.astype(float)
                     + beta * table.d_diamond.astype(float))
    diagonal = np.arange(n)
    rows = np.concatenate([table.target.ravel(), diagonal])
    cols = np.concatenate([np.repeat(diagonal, length), diagonal])
    values = np.concatenate([weights.ravel(), np.full(n, -float(length))])
    return sp.csr_matrix((values, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("length", [2, 4, 8, 12])
def test_scatter_product_matches_scipy(length):
    rng = np.random.default_rng(length)
    for tilt in ((0.0, 0.0), (0.3, -0.2)):
        m = build_deformed(length, *tilt)
        reference = _reference_csr(length, *tilt)
        assert np.array_equal(toarray(m), reference.toarray())
        for _ in range(3):
            v = rng.standard_normal(m.shape[0])
            assert np.max(np.abs(m @ v - reference @ v)) < 1e-12


def test_negative_off_diagonal_rejected():
    m = np.array([[-1.0, 0.5], [-0.2, -1.0]])
    with pytest.raises(ValueError):
        largest_eigenvalue(from_dense(m))


def test_l2_closed_form():
    # the 2x2 tilted matrix has top eigenvalue -1 + exp((alpha+2*beta)/2)
    for alpha, beta in [(0.0, 0.0), (0.4, -0.1), (-0.3, 0.25), (0.35, 0.0)]:
        expected = -1.0 + exp((alpha + 2 * beta) / 2)
        got = scgf_value(2, alpha, beta).lambda_value
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
        build_deformed(4, alpha, beta)


@pytest.mark.parametrize("length", [4, 6])
@pytest.mark.parametrize("axis", [0, 1])
def test_midpoint_convexity(length, axis):
    points = np.linspace(-0.5, 0.5, 9)

    def lam(t):
        tilt = (t, 0.0) if axis == 0 else (0.0, t)
        return scgf_value(length, *tilt).lambda_value

    values = [lam(t) for t in points]
    for i in range(len(points) - 2):
        mid = values[i + 1]
        assert mid <= (values[i] + values[i + 2]) / 2 + 1e-10


def _dense(matrix):
    return toarray(matrix) if isinstance(matrix, ColumnMatrix) else np.asarray(matrix, float)


def perron_gap(matrix):
    """Modulus gap between the two leading eigenvalues of the shifted
    matrix, dense: a diagnostic that the Perron root is simple."""
    a = _dense(matrix)
    shift = max(0.0, -float(a.diagonal().min())) + 1.0
    moduli = np.sort(np.abs(np.linalg.eigvals(a + shift * np.eye(len(a)))))
    return float(moduli[-1] - moduli[-2])


def test_perron_gap_positive():
    gaps = {length: perron_gap(build_deformed(length))
            for length in (2, 4, 6, 8)}
    assert all(g > 0.3 for g in gaps.values())
    assert gaps[2] == pytest.approx(2.0, rel=1e-9)
    assert gaps[4] == pytest.approx(1.0, rel=1e-9)


def _reference_root(matrix, max_iterations=100_000):
    """One matrix at a time: power iteration on matrix + shift*I, the
    quotient bounds read after every matvec, the iterate 2-normalised."""
    a = sp.csr_matrix(_dense(matrix))
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


_STENCIL = ([(t, 0.0) for t in (1e-3, -1e-3, 5e-4, -5e-4)]
            + [(0.0, t) for t in (1e-3, -1e-3, 5e-4, -5e-4)])


_BRIDGE_GRID = [(a, b) for a in (-0.1, 0.0, 0.1) for b in (-0.1, 0.0, 0.1)]


@pytest.mark.parametrize("length, tilts", [
    *[(length, _STENCIL) for length in (2, 4, 6, 8, 10, 12)],
    *[(length, _BRIDGE_GRID) for length in (4, 6, 8)],
], ids=[*(f"stencil-L{n}" for n in (2, 4, 6, 8, 10, 12)),
        *(f"bridge-L{n}" for n in (4, 6, 8))])
def test_block_solve_matches_one_matrix_reference(length, tilts):
    for tilt in tilts:
        matrix = build_deformed(length, *tilt)
        root = largest_eigenvalue(matrix)
        assert root.method == "power-iteration"
        assert root.residual <= 1e-13
        assert abs(root.lambda_value - _reference_root(matrix)) <= 1e-12


def test_arpack_start_certifies_within_three_strides():
    # from ones, one slow mode at L=12 decays by only 0.974 per matvec:
    # these matrices took 736-944 matvecs before a Krylov start
    for tilt in (*_STENCIL, (0.1, -0.05)):
        root = largest_eigenvalue(build_deformed(12, *tilt))
        assert root.method == "power-iteration"
        assert root.residual <= _TOLERANCE
        assert root.iterations <= 3 * _STRIDE


def test_repeated_solves_are_identical():
    # the Arnoldi iteration starts from ones, not from a random vector
    for tilt in _STENCIL:
        matrix = build_deformed(12, *tilt)
        assert largest_eigenvalue(matrix) == largest_eigenvalue(matrix)


@pytest.mark.parametrize("length", [6, 8, 10, 12])
@pytest.mark.parametrize("tilt", [(0.0, 0.0), (1e-3, 0.0), (0.0, -5e-4)],
                         ids=["origin", "alpha", "beta"])
def test_krylov_vector_matches_arpack(monkeypatch, length, tilt):
    # ARPACK's Perron vector, from scipy, is the reference for the start
    # the solve takes
    m = build_deformed(length, *tilt)
    seeds = []
    krylov_seed = scgf_mod._krylov_seed

    def recorded(matrix):
        seeds.append(krylov_seed(matrix))
        return seeds[-1]

    monkeypatch.setattr(scgf_mod, "_krylov_seed", recorded)
    largest_eigenvalue(m)
    seed, = seeds
    _, vectors = eigs(_reference_csr(length, *tilt), k=1, which="LR", tol=0,
                      v0=np.ones(m.shape[0]))
    reference = np.abs(vectors[:, 0])
    assert np.max(np.abs(seed - reference / reference.max())) <= 1e-10


def _ritz_returning(entry):
    def fake_ritz_vector(matrix):
        vector = np.ones(matrix.shape[0], dtype=complex)
        vector[3] = entry
        return vector
    return fake_ritz_vector


@pytest.mark.parametrize("entry", [0.0, float("nan")], ids=["zero", "nan"])
def test_rejected_arpack_vector_starts_from_ones(monkeypatch, caplog, entry):
    # a Ritz vector with a zero or non-finite entry has no positive modulus
    # and leaves the iteration to start from ones
    matrix = build_deformed(8, 0.1, -0.05)
    with monkeypatch.context() as patch:
        patch.setattr(scgf_mod, "_krylov_seed", lambda matrix: None)
        from_ones = largest_eigenvalue(matrix)
    monkeypatch.setattr(scgf_mod, "_ritz_vector", _ritz_returning(entry))
    caplog.set_level(logging.DEBUG, logger="raisepeel.scgf")
    root = largest_eigenvalue(matrix)
    assert "ones start" in caplog.text
    assert root == from_ones
    assert root.residual <= _TOLERANCE
    assert abs(root.lambda_value - _reference_root(matrix)) <= 1e-12


def test_negative_ritz_entry_starts_from_its_modulus(monkeypatch, caplog):
    # the enclosure bounds the root from any positive start, so a sign the
    # Arnoldi vector gets wrong costs matvecs, not correctness
    matrix = build_deformed(8, 0.1, -0.05)
    monkeypatch.setattr(scgf_mod, "_ritz_vector", _ritz_returning(-0.5))
    caplog.set_level(logging.DEBUG, logger="raisepeel.scgf")
    root = largest_eigenvalue(matrix)
    assert "krylov start" in caplog.text and "ones start" not in caplog.text
    assert root.residual <= _TOLERANCE
    assert abs(root.lambda_value - _reference_root(matrix)) <= 1e-12


def test_every_stencil_solve_at_l12_takes_the_krylov_start(caplog):
    # the benchmark's L=12 fd-check solves its stencil from Arnoldi vectors
    caplog.set_level(logging.DEBUG, logger="raisepeel.scgf")
    scgf_derivatives(12)
    lines = [r.getMessage() for r in caplog.records if r.name == "raisepeel.scgf"]
    assert sum("krylov start" in line for line in lines) == 8
    assert not any("ones start" in line for line in lines)


def test_one_log_line_per_block(caplog):
    caplog.set_level(logging.DEBUG, logger="raisepeel.scgf")
    for length, tilt in ((6, (0.0, 0.0)), (6, (0.1, 0.0)), (4, (0.0, 0.0))):
        largest_eigenvalue(build_deformed(length, *tilt))
    lines = [r.getMessage() for r in caplog.records if r.name == "raisepeel.scgf"]
    assert len(lines) == 3
    assert all("(dimension 20): krylov start" in line for line in lines[:2])
    # a matrix of at most _KRYLOV_DIM rows starts from its exact Arnoldi vector
    assert 6 <= _KRYLOV_DIM and "(dimension 6): krylov start" in lines[2]
    assert all("power matvecs, width " in line and line.endswith(", power-iteration")
               for line in lines)


def test_small_matrices_certify_at_the_first_check():
    # one Arnoldi cycle spans the whole space of a matrix of at most
    # _KRYLOV_DIM rows: the L=4 stencil took 80-88 matvecs from ones
    for tilt in _STENCIL:
        root = largest_eigenvalue(build_deformed(4, *tilt))
        assert root.iterations == _STRIDE


def _refusal(matrix, match):
    """The ConvergenceError message of a refused solve."""
    with pytest.raises(ConvergenceError, match=match) as info:
        largest_eigenvalue(matrix)
    return str(info.value)


def _matvecs(message):
    return int(message.split(" after ")[1].split()[0])


def _enclosure(message):
    lo, hi = re.search(r"narrowest enclosure \[(\S+), (\S+)\]", message).groups()
    return float(lo), float(hi)


def test_near_defective_root_is_refused_promptly():
    # at beta=-3 the two leading eigenvalues of the L=12 matrix lie 1.9e-5
    # apart; from ones the enclosure narrowed only like 1/iterations and
    # was refused after 578 k matvecs
    message = _refusal(build_deformed(12, 0.0, -3.0), r"stalled at width \d")
    assert _matvecs(message) <= 4 * _STALL_LIMIT


def test_unresolvable_root_is_refused_promptly():
    # the shifted matrix's Perron root is near 6400, where the spacing of
    # float64 exceeds _TOLERANCE, so its enclosure cannot pinch and no gain
    # counts
    base = build_deformed(6, 0.2, 0.1)
    message = _refusal(from_dense(1000.0 * toarray(base)),
                       r"stalled at width \d.*float64 spacing \S+ at the shifted lower bound")
    assert _matvecs(message) <= _STALL_LIMIT
    # the narrowest enclosure and the certified root of the base matrix,
    # scaled, bound the same root
    lo, hi = _enclosure(message)
    root = largest_eigenvalue(base)
    assert lo <= 1000.0 * (root.lambda_value + root.residual)
    assert hi >= 1000.0 * (root.lambda_value - root.residual)
    # the stall quotes the width of that enclosure, and the spacing quoted
    # is the one that defeats the tolerance
    width = float(re.search(r"stalled at width (\S+) ", message).group(1))
    assert width == pytest.approx(hi - lo, abs=1e-13)
    assert float(re.search(r"float64 spacing (\S+) ", message).group(1)) > _TOLERANCE


def test_stall_at_float_resolution_is_reported_promptly():
    # the tilted root at beta=10 is about 1.7e5, where float64 cannot
    # resolve an absolute width of 1e-13
    message = _refusal(build_deformed(12, 0.0, 10.0), r"stalled at width \d")
    assert _matvecs(message) <= 4 * _STALL_LIMIT


@pytest.mark.parametrize("position", [0, 1, 2])
def test_negative_entry_in_any_block_refused(position):
    bad = toarray(build_deformed(4, 0.1 * position, 0.0))
    bad[0, 1] = -0.5
    with pytest.raises(ValueError, match="negative off-diagonal"):
        largest_eigenvalue(from_dense(bad))


def test_block_shapes_and_row_sums_validated():
    # a ColumnMatrix is square by construction, so the non-square refusal
    # is the test helper's, from_dense in tests/reference.py
    with pytest.raises(ValueError, match="square"):
        largest_eigenvalue(from_dense(toarray(build_deformed(6))[:, :19]))
    with pytest.raises(ValueError, match="row sums"):
        largest_eigenvalue(from_dense(np.array([[1e308, 1e308], [1.0, 1.0]])))


@pytest.mark.parametrize("length, tilt", [
    (4, (0.0, 100.0)), (8, (150.0, -3.0)), (10, (0.0, 30.0)),
])
def test_huge_finite_weights_stall_promptly(length, tilt):
    # weights up to e^400: the matrix is scaled by a power of two at its
    # quotient bound, so no unnormalised step overflows and the row-sum
    # enclosure is finite; the root, far past what float64 resolves to
    # 1e-13, is refused within _STALL_LIMIT matvecs
    message = _refusal(build_deformed(length, *tilt), r"stalled at width \d")
    assert _matvecs(message) <= _STALL_LIMIT
    # the enclosure named is the narrowest one with both ends finite
    assert "nan" not in message and "inf" not in message


def test_stencil_solves_each_tilt_through_largest_eigenvalue(monkeypatch):
    # each tilt passes through the module's largest_eigenvalue, where a
    # wrapper such as perfbench's tracer counts its matvecs
    builds, solves = [], []
    build, solve = scgf_mod.build_deformed, scgf_mod.largest_eigenvalue

    def counted_build(length, alpha=0.0, beta=0.0):
        builds.append((alpha, beta))
        return build(length, alpha, beta)

    def counted_solve(matrix, *args):
        root = solve(matrix, *args)
        solves.append(root)
        return root

    monkeypatch.setattr(scgf_mod, "build_deformed", counted_build)
    monkeypatch.setattr(scgf_mod, "largest_eigenvalue", counted_solve)
    d_alpha, d_beta = scgf_derivatives(6)
    assert len(solves) == 8
    steps = {FD_STEP, -FD_STEP, FD_STEP / 2, -FD_STEP / 2}
    assert len(builds) == 8
    assert set(builds) == {(t, 0.0) for t in steps} | {(0.0, t) for t in steps}
    assert d_alpha == pytest.approx(float(global_current_formula(6)), rel=1e-6)
    assert d_beta == pytest.approx(float(diamond_current_formula(6)), rel=1e-6)


def test_iteration_budget_refuses_with_the_enclosure(monkeypatch):
    m = build_deformed(4, 0.2, 0.1)
    reference = largest_eigenvalue(m)
    assert reference.method == "power-iteration"
    # from ones: the Arnoldi start of a 6-row matrix is exact and pinches at once
    monkeypatch.setattr(scgf_mod, "_krylov_seed", lambda matrix: None)
    monkeypatch.setattr(scgf_mod, "_MAX_ITERATIONS", 1)
    message = _refusal(m, r"still open after 1 matvecs")
    assert _matvecs(message) == 1
    # the quotients of any positive iterate bound the root
    lo, hi = _enclosure(message)
    assert lo <= reference.lambda_value <= hi


_ROUTES = ("stationary", "scgf", "tq", "spinchain", "simulate")


@pytest.mark.parametrize("route", _ROUTES)
def test_route_is_independent_of_the_other_routes(route):
    # the solvers share no code, only the model (profiles): the only
    # cross-checks live in the tests and the verification driver
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
    assert not imported & (set(_ROUTES) - {route})


@pytest.mark.parametrize("route", _ROUTES)
def test_importing_a_route_loads_no_other_route(route):
    # a fresh process, so that no other test has loaded a module already
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (f"import sys, raisepeel.{route}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('raisepeel.'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=path))
    loaded = {name.removeprefix("raisepeel.") for name in proc.stdout.split()}
    assert route in loaded and not loaded & (set(_ROUTES) - {route})


def test_convergence_error_is_a_runtime_error():
    # one class, defined with the model, for every route's refusal
    import raisepeel.profiles
    import raisepeel.spinchain
    assert issubclass(ConvergenceError, RuntimeError)
    assert ConvergenceError is raisepeel.profiles.ConvergenceError
    assert raisepeel.spinchain.ConvergenceError is ConvergenceError


@pytest.mark.parametrize("length,alpha,beta", [(4, 1, 2), (14, 0, 10)])
def test_integer_tilts_weigh_as_float_tilts(length, alpha, beta):
    # the table's counters are int8; an integer tilt must not be applied to
    # them in int8 (10 * 14 evacuated tiles overflows, exp would round to
    # float16)
    exact = build_deformed(length, float(alpha), float(beta))
    weighed = build_deformed(length, alpha, beta)
    assert np.array_equal(weighed.weights, exact.weights)
    assert np.array_equal(weighed.diagonal, exact.diagonal)


# ---------------------------------------------------------------------------
# the orbit matrix


@pytest.mark.parametrize("length", range(2, 19, 2))
def test_symmetries_lump_every_tilt(length):
    # the integer identities behind the gauge and the lumping hold, and each
    # orbit's column is taken from its smallest state
    first, d_global, d_diamond, quarter_jump = _orbit_columns(length)
    orbit = transition_table(length).orbit
    smallest = np.full(orbit.max() + 1, len(orbit))
    np.minimum.at(smallest, orbit, np.arange(len(orbit)))
    assert first.tolist() == smallest.tolist()
    assert d_global.shape == d_diamond.shape == quarter_jump.shape == (len(first), length)
    assert set(quarter_jump.ravel().tolist()) <= {-0.5, 0.0, 0.5}


def test_corrupted_counter_breaks_the_lumping(monkeypatch):
    # one avalanche that reports one global avalanche too many is no longer
    # the rotation's image of its neighbours' moves
    table = transition_table(8)
    d_global = table.d_global.copy()
    d_global[35, 1] += 1
    corrupted = table._replace(d_global=d_global)
    monkeypatch.setattr(scgf_mod, "transition_table", lambda length: corrupted)
    _orbit_columns.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"lump the tilted generator at L=8: "
                                               r".*rotation changes d_global by its coboundary"):
            scgf_value(8, 0.1, 0.0)
    finally:
        _orbit_columns.cache_clear()


@pytest.mark.parametrize("length", [2, 4, 6, 8])
def test_orbit_matrix_is_the_gauged_matrix_lumped(length):
    # B = P^T G A G^-1 P D^-1, G the diagonal gauge, P the orbit indicator
    # and D the orbit sizes, entry for entry
    table = transition_table(length)
    orbit = table.orbit
    indicator = (orbit[:, None] == np.arange(orbit.max() + 1)).astype(float)
    sizes = indicator.sum(axis=0)
    for alpha, beta in ((0.3, -0.2), (-2.0, 1.0)):
        full = build_deformed(length, alpha, beta)
        gauge = np.exp(-(alpha + beta * length) * table.shift / 4.0)
        gauged = gauge[:, None] * toarray(full) / gauge
        expected = indicator.T @ gauged @ indicator / sizes
        lumped = toarray(_orbit_matrix(full, alpha, beta))
        assert np.allclose(lumped, expected, rtol=1e-14, atol=0.0)


_EDGE_TILTS = [(a, b) for a in (-2.0, 2.0) for b in (-1.0, 1.0)]


@pytest.mark.parametrize("length", range(2, 13, 2))
def test_orbit_roots_match_the_full_matrix(length):
    # the root on the orbit matrix and the root on the full matrix, each
    # certified, agree within both enclosures and four ulps
    for tilt in (*_STENCIL, *_BRIDGE_GRID, (0.1, -0.05), *_EDGE_TILTS):
        full = largest_eigenvalue(build_deformed(length, *tilt))
        lumped = scgf_value(length, *tilt)
        bound = full.residual + lumped.residual + 4 * ulp(abs(full.lambda_value))
        assert abs(lumped.lambda_value - full.lambda_value) <= bound, tilt


def test_nonfinite_gauged_weights_refused():
    with pytest.raises(ValueError, match="non-finite gauged move weights"):
        _orbit_matrix(build_deformed(4), 2000.0, 0.0)
