"""Loop-algebra generators, twisted spin chains, and the energy bridge."""

import cmath
from math import exp

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

import raisepeel.spinchain as spinchain
from raisepeel.profiles import ConvergenceError
from raisepeel.scgf import build_deformed, scgf_value
from raisepeel.spinchain import (
    XXZParams,
    _tl_block,
    bridge_parameters,
    build_xxz,
    combinatorial_twist,
    ground_energy,
    hermiticity_defect,
    lambda_bridge,
    sector_basis,
    sector_operator,
    tl_generator_matrix,
    tl_relations_check,
)
from reference import toarray


def test_sector_basis_l4():
    assert sector_basis(4) == (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100)
    assert len(sector_basis(6)) == 20
    assert sector_basis(4, 1) == (0b0001, 0b0010, 0b0100, 0b1000)
    assert sum(len(sector_basis(6, n_up)) for n_up in range(7)) == 2 ** 6
    with pytest.raises(ValueError):
        sector_basis(4, 5)


def test_sector_basis_matches_bit_counting():
    for length in range(2, 13, 2):
        for n_up in range(length + 1):
            assert sector_basis(length, n_up) == tuple(
                b for b in range(1 << length) if bin(b).count("1") == n_up)


def test_sector_basis_length_cap():
    cap = spinchain.MAX_CHAIN_LENGTH
    assert cap == 20
    assert len(sector_basis(cap, 1)) == cap
    with pytest.raises(ValueError, match=f"cap of {cap}"):
        sector_basis(cap + 2, 1)
    with pytest.raises(ValueError, match=f"cap of {cap}"):
        ground_energy(XXZParams(40))


def test_combinatorial_twist():
    assert combinatorial_twist(6) == pytest.approx(cmath.exp(1j * cmath.pi / 9))
    for length in (4, 6, 8):
        assert abs(abs(combinatorial_twist(length)) - 1) < 1e-15


def test_two_site_block_trace_and_rank():
    # each generator acts as [[q, u], [1/u, 1/q]] on one antiparallel
    # pair: trace q + 1/q, determinant zero; summed over the S_z sectors
    # these are the trace and rank on the full 2^L space
    q = cmath.exp(0.9j)
    u = cmath.exp(0.31j)
    sectors = [tl_generator_matrix(4, q, u, 1, n_up) for n_up in range(5)]
    assert sum(np.trace(e) for e in sectors) == pytest.approx(4 * (q + 1 / q))   # 4 pairs
    assert sum(np.linalg.matrix_rank(e) for e in sectors) == 4
    for e in sectors:
        assert np.max(np.abs(e @ e - (q + 1 / q) * e)) < 1e-13


@pytest.mark.parametrize("length", [4, 6, 8])
def test_algebra_relations_at_the_combinatorial_point(length):
    report = tl_relations_check(length)
    assert report.passed
    assert report.idempotent_error < 1e-12
    assert report.neighbor_error < 1e-12
    assert report.commutation_error < 1e-12
    assert report.quotient_error < 1e-12
    n = length // 2
    u = combinatorial_twist(length)
    kappa = (u ** n + u ** (-n)) ** 2
    assert report.kappa == pytest.approx(kappa)


def test_algebra_relations_generic_parameters():
    report = tl_relations_check(6, q=cmath.exp(0.9j), u=cmath.exp(0.31j))
    assert report.passed


def test_xxz_hermitian_at_stochastic_point():
    for length in (4, 6, 8):
        h = build_xxz(XXZParams(length))
        assert hermiticity_defect(h) < 1e-12


def test_ground_energies():
    for length in range(4, 15, 2):
        energy = ground_energy(XXZParams(length))
        assert abs(energy - (-0.75 * length)) <= 1e-10


def test_l4_sector_spectrum_frozen():
    h = build_xxz(XXZParams(4)).toarray()
    spectrum = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(spectrum, [-3, -2, 0, 0, 1, 2], atol=1e-10)


def test_gauge_equivalence_bond_vs_boundary():
    # spreading the twist per bond or lumping it on one boundary bond is
    # a gauge choice; the spectra agree
    twist = combinatorial_twist(4)
    per_bond = build_xxz(XXZParams(4, -0.5, twist)).toarray()
    # bond 3 couples sites 3 and 0, the wrap of the ring; q + 1/q = 1 at Delta = -1/2
    q = cmath.exp(1j * cmath.pi / 3)
    boundary = -sector_operator(4, 2, {bond: _tl_block(q, twist ** 4 if bond == 3 else 1.0)
                                       for bond in range(4)}).toarray() + np.eye(6)
    assert not np.allclose(per_bond, boundary)
    a = np.sort(np.linalg.eigvalsh(per_bond))
    b = np.sort(np.linalg.eigvalsh(boundary))
    assert np.max(np.abs(a - b)) < 1e-12


def xxz_reference(length, delta, twist):
    """The twisted XXZ Hamiltonian bond by bond: -delta/2 on parallel and
    +delta/2 on antiparallel pairs; an up spin hops from site k+1 to k with
    amplitude -twist and from k to k+1 with -1/twist."""
    block = np.diag([-delta / 2, delta / 2, delta / 2, -delta / 2]).astype(complex)
    block[1, 2], block[2, 1] = -1 / twist, -twist
    return sector_operator(length, length // 2, dict.fromkeys(range(length), block))


@pytest.mark.parametrize("length", [4, 6, 8, 10])
def test_hamiltonian_is_minus_the_generator_sum(length):
    # H = -sum_b e_b - L Delta/2 with q + 1/q = -2 Delta is the XXZ chain:
    # the generators' extra diagonal (q - 1/q)/2 (n_b - n_(b+1)) cancels
    # around the ring, for any real Delta and unimodular twist
    rng = np.random.default_rng(length)
    for delta in (*rng.uniform(-1, 1, size=3), -2.5, 1.7):
        twist = cmath.exp(1j * rng.uniform(0, 2 * np.pi))
        q = cmath.exp(1j * cmath.acos(-delta))
        assert q + 1 / q == pytest.approx(-2 * delta, abs=1e-14)
        h = build_xxz(XXZParams(length, delta, twist)).toarray()
        generators = sum(tl_generator_matrix(length, q, twist, bond, length // 2)
                         for bond in range(1, length + 1))
        assert np.max(np.abs(h - (-generators - length * delta / 2 * np.eye(len(h))))) < 1e-14
        assert np.max(np.abs(h - xxz_reference(length, delta, twist).toarray())) < 1e-13


def test_bridge_parameters_stochastic_point():
    bridge = bridge_parameters(6, 0.0, 0.0)
    assert bridge.delta_aniso == pytest.approx(-0.5)
    assert bridge.gamma == pytest.approx(np.pi / 3)
    assert bridge.theta == pytest.approx(np.pi / 9)
    assert bridge.twist == pytest.approx(combinatorial_twist(6))


def test_bridge_parameter_domain():
    with pytest.raises(ValueError):
        bridge_parameters(6, 2 * np.log(2) + 0.1, 0.0)    # alpha beyond ln 4
    with pytest.raises(ValueError):
        bridge_parameters(6, 0.0, -np.log(2) - 0.1)       # beta below -ln 2


@pytest.mark.parametrize("alpha,beta,name", [
    (0.0, float("inf"), "beta"), (0.0, float("-inf"), "beta"), (0.0, float("nan"), "beta"),
    (float("nan"), 0.0, "alpha"), (float("-inf"), 0.0, "alpha"),
])
def test_bridge_parameters_refuse_nonfinite_tilts(alpha, beta, name):
    with pytest.raises(ValueError, match=f"{name} = .* is not a finite tilt"):
        bridge_parameters(4, alpha, beta)


def test_bridge_vanishes_at_zero_tilt():
    for length in (4, 6, 8):
        assert abs(lambda_bridge(length)) <= 1e-10


@pytest.mark.parametrize("alpha,beta", [(0.1, -0.05), (-0.1, 0.1)])
def test_bridge_against_tilted_generator(alpha, beta):
    lam_spin = lambda_bridge(6, alpha, beta)
    lam_pdp = scgf_value(6, alpha, beta).lambda_value
    assert lam_spin == pytest.approx(lam_pdp, abs=1e-8)


def deformed_tl_operator(length, alpha, beta):
    """Sector matrix e^beta * sum_i e_i - L, the tilted generator's spin image."""
    p = bridge_parameters(length, alpha, beta)
    total = sector_operator(length, length // 2,
                            dict.fromkeys(range(length), _tl_block(p.q, p.twist)))
    return exp(beta) * total.toarray() - length * np.eye(total.shape[0])


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.1, 0.05)])
def test_sector_operator_is_isospectral_to_the_tilted_generator(alpha, beta):
    spin_side = np.sort(np.linalg.eigvals(deformed_tl_operator(4, alpha, beta)).real)
    pdp_side = np.sort(np.linalg.eigvals(
        toarray(build_deformed(4, alpha, beta))).real)
    assert np.max(np.abs(spin_side - pdp_side)) < 1e-10


def test_nonunimodular_twist_rejected():
    with pytest.raises(ValueError):
        ground_energy(XXZParams(4, twist=1.2))


def test_odd_length_rejected():
    with pytest.raises(ValueError):
        build_xxz(XXZParams(5))


def test_sector_operator_rejects_blocks_that_change_sz():
    block = np.zeros((4, 4))
    block[3, 0] = 1.0          # down-down to up-up
    with pytest.raises(ValueError):
        sector_operator(4, 2, {0: block})


def test_arpack_no_convergence_is_refused(monkeypatch):
    # a Lanczos step budget too small to converge in; L = 10 has sector
    # dimension 252, above the dense-only threshold
    monkeypatch.setattr(spinchain, "_LANCZOS_STEPS", 4)
    with pytest.raises(ConvergenceError, match="sector dimension 252"):
        ground_energy(XXZParams(10))


def test_wrong_eigenpair_is_refused_by_its_residual(monkeypatch):
    def wrong(h):
        # the exact ground energy, paired with a basis vector
        vector = np.zeros(h.shape[0], dtype=complex)
        vector[0] = 1.0
        return -7.5, vector

    monkeypatch.setattr(spinchain, "_lanczos", wrong)
    with pytest.raises(ConvergenceError, match=r"residual \S+ exceeds .* sector dimension 252"):
        ground_energy(XXZParams(10))


def test_other_eigensolver_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(spinchain, "_lanczos", broken)
    with pytest.raises(RuntimeError, match="unexpected"):
        ground_energy(XXZParams(10))


def _scipy_csr(h):
    """The sector operator as a scipy CSR matrix, from its dense form."""
    return sp.csr_matrix(h.toarray())


@pytest.mark.parametrize("length", [4, 6, 8, 10])
def test_gather_product_matches_scipy(length):
    rng = np.random.default_rng(length)
    bridge = bridge_parameters(length, 0.1, -0.05)
    h = build_xxz(XXZParams(length, bridge.delta_aniso, bridge.twist))
    reference = _scipy_csr(h)
    for _ in range(3):
        v = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
        assert np.max(np.abs(h @ v - reference @ v)) < 1e-13


def test_hermiticity_defect_matches_scipy():
    h = build_xxz(XXZParams(8))
    reference = _scipy_csr(h)
    assert hermiticity_defect(h) == pytest.approx(abs(reference - reference.getH()).max(),
                                                  abs=1e-15)
    # perturb one exchange entry, away from its mirror
    bond, state = 3, int(np.nonzero(h.partners[3] != np.arange(h.shape[0]))[0][0])
    h.amplitudes[bond, state] += 0.25 - 0.125j
    reference = _scipy_csr(h)
    defect = abs(reference - reference.getH()).max()
    assert defect == pytest.approx(abs(0.25 - 0.125j))
    assert hermiticity_defect(h) == pytest.approx(defect, rel=1e-15)


_BRIDGE_TILTS = [(0.0, 0.0), (0.1, -0.05), (-0.1, 0.1), (0.3, 0.4)]


@pytest.mark.parametrize("length", [4, 6, 8, 10, 12, 14])
@pytest.mark.parametrize("alpha, beta", _BRIDGE_TILTS)
def test_ground_energy_matches_scipy(length, alpha, beta):
    # dense eigvalsh where the sector is dense-solved, ARPACK above
    bridge = bridge_parameters(length, alpha, beta)
    params = XXZParams(length, bridge.delta_aniso, bridge.twist)
    h = build_xxz(params)
    if h.shape[0] <= spinchain._DENSE_SECTOR_DIM:
        reference = np.linalg.eigvalsh(h.toarray())[0]
    else:
        rows = np.broadcast_to(np.arange(h.shape[0]), h.partners.shape)
        csr = sp.csr_matrix((h.amplitudes.ravel(), (rows.ravel(), h.partners.ravel())),
                            shape=h.shape) + sp.diags(h.diagonal)
        reference = eigsh(csr, k=1, which="SA", tol=0.0,
                          v0=np.ones(h.shape[0], dtype=complex))[0][0]
    assert abs(ground_energy(params) - reference) <= 1e-10


def test_ground_energy_is_reproducible():
    # the Lanczos iteration starts from a fixed-seed vector, so a rerun
    # gives the same bits
    bridge = bridge_parameters(12, 0.1, -0.05)
    params = XXZParams(12, bridge.delta_aniso, bridge.twist)
    energies = []
    for _ in range(2):
        sector_basis.cache_clear()
        energies.append(ground_energy(params))
    assert energies[0] == energies[1]
