"""Spin-half chain realization of the tile dynamics.

Each local generator acts on a pair of adjacent spins through a rank-one
block on their antiparallel subspace, with a hopping twist u and a
diagonal built from a unimodular parameter q (the generator satisfies the
Temperley-Lieb relations with loop weight q + 1/q).  The twisted
anisotropic Heisenberg Hamiltonian is built as minus the sum of the local
generators, shifted by a constant; the tilt parameters of the Markov
route map onto (Delta, u), so the largest tilted eigenvalue can be
cross-checked against the ground-state energy of a Hermitian matrix.  At the stochastic point the
ground energy is -3L/4 on the zero-magnetization sector.

Basis conventions: site k of an L-site ring is bit k of an integer basis
label, bit value 1 meaning spin up; an S_z sector is the set of labels
with a given number of set bits in increasing label order, and the
zero-magnetization sector has L/2 of them.  Every operator conserves S_z
and is built directly on one sector from 4x4 blocks on the bonds, as numpy
arrays: a diagonal, and for each bond every state's partner (its two bond
spins exchanged) with the amplitude of that exchange, so that a product
is one gather.  Generator indices are 1-based (bond i couples sites i-1
and i mod L in bit positions) so that the even/odd alternating products
read naturally.

Ground energies come from a dense Hermitian eigensolve on small sectors
and from a Lanczos iteration with full reorthogonalisation (Y. Saad,
Numerical Methods for Large Eigenvalue Problems, 2nd ed., SIAM 2011,
ch. 6) on larger ones, answered only when the eigenpair's residual,
computed afresh, is small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import acos, exp, isfinite
from cmath import acos as cacos, exp as cexp, pi

import numpy as np
# numpy loads its random submodule lazily: at import, not inside a solve
from numpy.random import default_rng

from .profiles import ConvergenceError, check_length

# dense up to here: on a 2-core x86-64 (numpy 2.4), XXZ sectors of 120
# and 210 states take 2.4 and 9.2 ms dense and 4.5 and 4.9 ms by Lanczos,
# so the two cross near 150 states (L <= 8 dense at zero magnetization)
_DENSE_SECTOR_DIM = 150
_HERMITIAN_TOL = 1e-12
_RESIDUAL_TOL = 1e-10        # largest accepted eigenpair residual of the Lanczos iteration
# Lanczos steps allowed (L = 10 to 20 take 40 to 88, one basis vector
# each: 3 MB at L = 20), residual estimate at which the lowest Ritz pair is
# taken, and steps between two readings of the tridiagonal matrix.  Up to
# n = 924 the products with the basis stay on one OpenBLAS thread; the
# tridiagonal's eigh wakes the others, at no measured cost (ground_energy
# at L=12: 6.0 ms, and 6.4 ms with OPENBLAS_NUM_THREADS=1; 2-core x86-64)
_LANCZOS_STEPS = 200
_LANCZOS_TOL = 1e-12
_LANCZOS_CHECK = 8
TL_TOLERANCE = 1e-12         # worst entry of a Temperley-Lieb relation residual
# longest chain: at L=20 the zero-magnetization sector has 184756 states and
# its ground energy takes about 5 s and 0.4 GB; each +2 sites multiplies the
# sector by about 3.8
MAX_CHAIN_LENGTH = 20


def combinatorial_twist(length: int) -> complex:
    """The unimodular hopping twist of the stochastic point, e^{2 pi i/(3L)}."""
    return cexp(2j * pi / (3 * length))


@dataclass(frozen=True)
class XXZParams:
    """Chain length, anisotropy and hopping twist.

    The stochastic point is delta_aniso = -1/2 with the combinatorial
    twist; twist None selects that twist for the given length.
    """
    length: int
    delta_aniso: float = -0.5
    twist: complex | None = None

    def resolved_twist(self) -> complex:
        return combinatorial_twist(self.length) if self.twist is None else self.twist


@lru_cache(maxsize=None)
def sector_basis(length: int, n_up: int | None = None) -> tuple[int, ...]:
    """Basis labels with n_up set bits (default L/2, zero magnetization), ascending."""
    check_length(length)
    if length > MAX_CHAIN_LENGTH:
        raise ValueError(f"chain length {length} exceeds the cap of "
                         f"{MAX_CHAIN_LENGTH} sites")
    if n_up is None:
        n_up = length // 2
    if not 0 <= n_up <= length:
        raise ValueError(f"up-spin count must lie in 0..{length}, got {n_up}")
    bits = [1 << k for k in range(length)]
    return tuple(sorted(map(sum, combinations(bits, n_up))))


def _tl_block(q: complex, u: complex) -> np.ndarray:
    """Local generator [[q, u], [1/u, 1/q]] on the antiparallel pair states."""
    block = np.zeros((4, 4), dtype=complex)
    block[2, 2], block[1, 2] = q, 1 / u
    block[1, 1], block[2, 1] = 1 / q, u
    return block


@dataclass(frozen=True, eq=False)
class SectorOperator:
    """A sum of two-site operators on one S_z sector, as numpy arrays.

    Entry (i, i) is diagonal[i]; row k of partners and amplitudes belongs
    to one bond, and adds amplitudes[k, i] at entry (i, partners[k, i]),
    state i with that bond's two spins exchanged (i itself, with amplitude
    zero, where they are parallel).  Bonds joining the same two sites (the
    two bonds at L = 2) add up.
    """
    diagonal: np.ndarray
    partners: np.ndarray
    amplitudes: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.diagonal), len(self.diagonal))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """H v: each state's diagonal entry plus its partners' entries of v,
        weighted, gathered one bond at a time (a temporary of one vector)."""
        out = self.diagonal * v
        for amplitudes, partners in zip(self.amplitudes, self.partners):
            out += amplitudes * v[partners]
        return out

    def toarray(self) -> np.ndarray:
        dense = np.diag(self.diagonal)
        rows = np.broadcast_to(np.arange(len(self.diagonal)), self.partners.shape)
        np.add.at(dense, (rows, self.partners), self.amplitudes)
        return dense


def sector_operator(length: int, n_up: int,
                    blocks: dict[int, np.ndarray]) -> SectorOperator:
    """Sum of two-site operators on the sector with n_up up spins.

    blocks maps a bond k in 0..L-1, coupling bits k and k+1 mod L, to a
    4x4 matrix block[out, in] on the local states 2*bit_k + bit_(k+1).
    Blocks must conserve the number of up spins.
    """
    basis = np.array(sector_basis(length, n_up), dtype=np.int64)
    n = len(basis)
    diagonal = np.zeros(n, dtype=complex)
    partners = np.empty((len(blocks), n), dtype=np.intp)
    amplitudes = np.empty((len(blocks), n), dtype=complex)
    for k, (bond, block) in enumerate(blocks.items()):
        for new, old in zip(*np.nonzero(block)):
            if bin(new).count("1") != bin(old).count("1"):
                raise ValueError(f"block on bond {bond} changes the up-spin count")
        i, j = bond, (bond + 1) % length
        local = 2 * ((basis >> i) & 1) + ((basis >> j) & 1)
        diagonal += np.diagonal(block)[local]
        # local states 1 and 2 (antiparallel) exchange into each other
        antiparallel = (local == 1) | (local == 2)
        partners[k] = np.searchsorted(basis, basis ^ (antiparallel * ((1 << i) | (1 << j))))
        amplitudes[k] = np.array([0.0, block[1, 2], block[2, 1], 0.0], dtype=complex)[local]
    return SectorOperator(diagonal, partners, amplitudes)


def tl_generator_matrix(length: int, q: complex, u: complex, bond: int,
                        n_up: int) -> np.ndarray:
    """Local generator of bond 1..L (cyclic) on the sector with n_up up
    spins, a dense array.

    On the antiparallel pair states (up,down)/(down,up) of the bond the
    operator is [[q, u], [1/u, 1/q]]; parallel pairs are annihilated.
    """
    if not 1 <= bond <= length:
        raise ValueError(f"bond index must lie in 1..{length}, got {bond}")
    return sector_operator(length, n_up, {bond - 1: _tl_block(q, u)}).toarray()


def build_xxz(params: XXZParams) -> SectorOperator:
    """Hamiltonian on the zero-magnetization sector, twist spread over every bond:
    -sum_b e_b(q, u) - (L Delta / 2) 1 with q + 1/q = -2 Delta.

    Each bond's -e_b - Delta/2 is the two-site XXZ term (-Delta/2 on parallel
    and +Delta/2 on antiparallel pairs, an up spin hopping with amplitudes -u
    and -1/u) minus (q - 1/q)/2 (n_b - n_(b+1)), n counting up spins, and
    those extra terms cancel around the ring.
    """
    length, delta = params.length, params.delta_aniso
    q = cexp(1j * cacos(-delta))
    h = sector_operator(length, length // 2,
                        dict.fromkeys(range(length), _tl_block(q, params.resolved_twist())))
    # in place: at L=20 the amplitudes alone take 59 MB
    np.negative(h.amplitudes, out=h.amplitudes)
    h.diagonal[:] = -h.diagonal - length * delta / 2
    return h


def hermiticity_defect(matrix: SectorOperator) -> float:
    """Largest absolute entry of M - M^dagger.

    A bond's entry (i, j) meets its mirror (j, i) in the same bond's row,
    since exchanging a pair twice is the identity.  Where two bonds join
    the same two sites (L = 2) their entries are compared bond by bond.
    """
    return max([2.0 * float(np.abs(matrix.diagonal.imag).max(initial=0.0))]
               + [float(np.abs(amplitudes - amplitudes[partners].conj()).max(initial=0.0))
                  for amplitudes, partners in zip(matrix.amplitudes, matrix.partners)])


def _lanczos(h: SectorOperator) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian operator, a Lanczos iteration from a
    fixed-seed vector, so reruns return the same digits.

    Step j multiplies the newest basis vector and orthogonalises the
    product against every basis vector by classical Gram-Schmidt (a second
    pass where the first cancels most of it); the projections on the
    newest vector and the remaining norm extend the tridiagonal matrix.
    Every _LANCZOS_CHECK steps its lowest Ritz pair is read, and returned
    once the residual estimate (the last norm times the Ritz vector's last
    entry) is at most _LANCZOS_TOL, or at once when the basis spans an
    invariant subspace.  ConvergenceError after _LANCZOS_STEPS steps.
    """
    n = h.shape[0]
    steps = min(_LANCZOS_STEPS, n)
    # rows that are never reached are never written, and take no memory
    basis = np.empty((steps + 1, n), dtype=complex)
    start = default_rng(0).standard_normal(n).astype(complex)
    basis[0] = start / np.linalg.norm(start)
    diagonal, off_diagonal = np.zeros(steps), np.zeros(steps)
    for j in range(steps):
        w = h @ basis[j]
        scale = norm = float(np.linalg.norm(w))
        for _ in range(2):
            coefficients = (basis[:j + 1] @ w.conj()).conj()
            w -= coefficients @ basis[:j + 1]
            diagonal[j] += coefficients[j].real
            norm, previous = np.linalg.norm(w), norm
            if norm > 0.5 * previous:
                break
        off_diagonal[j] = norm
        invariant = norm <= np.finfo(float).eps * scale
        if invariant or (j + 1) % _LANCZOS_CHECK == 0 or j + 1 == steps:
            tridiagonal = (np.diag(diagonal[:j + 1]) + np.diag(off_diagonal[:j], 1)
                           + np.diag(off_diagonal[:j], -1))
            values, vectors = np.linalg.eigh(tridiagonal)
            if invariant or norm * abs(vectors[j, 0]) <= _LANCZOS_TOL:
                return float(values[0]), vectors[:, 0] @ basis[:j + 1]
        basis[j + 1] = w / norm
    raise ConvergenceError(f"extremal eigensolve failed on sector dimension {n}: "
                           f"no convergence within {steps} Lanczos steps")


def ground_energy(params: XXZParams) -> float:
    """Minimal sector eigenvalue.

    A sector of at most _DENSE_SECTOR_DIM states is solved by a dense
    Hermitian eigensolve; a larger one by _lanczos, whose answer is
    returned only when the residual of its eigenpair, computed afresh, is
    at most _RESIDUAL_TOL, and refused with ConvergenceError otherwise.
    """
    twist = params.resolved_twist()
    if abs(abs(twist) - 1) > _HERMITIAN_TOL:
        raise ValueError("ground_energy requires a unimodular twist")
    h = build_xxz(params)
    if hermiticity_defect(h) > _HERMITIAN_TOL:
        raise ValueError("Hamiltonian is not Hermitian for these parameters")
    n = h.shape[0]
    if n <= _DENSE_SECTOR_DIM:
        return float(np.linalg.eigvalsh(h.toarray())[0])
    value, vector = _lanczos(h)
    residual = float(np.linalg.norm(h @ vector - value * vector))
    if residual > _RESIDUAL_TOL:
        raise ConvergenceError(
            f"extremal eigensolve residual {residual:.2e} exceeds "
            f"{_RESIDUAL_TOL:.1e} on sector dimension {n}")
    return value


# ---------------------------------------------------------------------------
# bridge between tilt parameters and chain parameters


@dataclass(frozen=True)
class BridgeParameters:
    delta_aniso: float
    twist: complex
    q: complex
    gamma: float
    theta: float


def bridge_parameters(length: int, alpha: float, beta: float) -> BridgeParameters:
    """Map tilt strengths (alpha, beta) to chain parameters (Delta, u).

    The loop weight fixes q: q + 1/q = e^{-beta}, so gamma = arccos of
    e^{-beta}/2 and Delta = -cos gamma.  The global-avalanche weight fixes
    the twist through e^alpha = (u^N + u^{-N})^2 with N = L/2, solved on
    the branch containing the stochastic point.  Requires beta >= -ln 2
    and alpha <= ln 4 to keep both angles real, and both tilts finite.
    """
    for name, tilt in (("alpha", alpha), ("beta", beta)):
        if not isfinite(tilt):
            raise ValueError(f"{name} = {tilt} is not a finite tilt")
    half_weight = exp(-beta) / 2
    if half_weight > 1:
        raise ValueError(f"beta = {beta} leaves the real-anisotropy regime")
    root_weight = exp(alpha / 2) / 2
    if root_weight > 1:
        raise ValueError(f"alpha = {alpha} leaves the unimodular-twist regime")
    gamma = acos(half_weight)
    theta = acos(root_weight) / (length // 2)
    return BridgeParameters(
        delta_aniso=-half_weight,
        twist=cexp(1j * theta),
        q=cexp(1j * gamma),
        gamma=gamma,
        theta=theta,
    )


def lambda_from_energy(length: int, beta: float, energy: float) -> float:
    """Cumulant generating function from the bridged chain's ground energy,
    -e^beta * E_min - 3L/4."""
    return -exp(beta) * energy - 0.75 * length


def lambda_bridge(length: int, alpha: float = 0.0, beta: float = 0.0) -> float:
    """Cumulant generating function via the chain at tilt (alpha, beta)."""
    p = bridge_parameters(length, alpha, beta)
    energy = ground_energy(XXZParams(length, p.delta_aniso, p.twist))
    return lambda_from_energy(length, beta, energy)


# ---------------------------------------------------------------------------
# relation checks


@dataclass(frozen=True)
class TLReport:
    """Worst absolute errors of the defining and quotient matrix relations."""
    length: int
    two_q: complex
    kappa: complex
    idempotent_error: float
    neighbor_error: float
    commutation_error: float
    quotient_error: float

    @property
    def worst_error(self) -> float:
        return max(self.idempotent_error, self.neighbor_error,
                   self.commutation_error, self.quotient_error)

    @property
    def passed(self) -> bool:
        return self.worst_error < TL_TOLERANCE


def tl_relations_check(length: int, q: complex | None = None,
                       u: complex | None = None) -> TLReport:
    """Verify the algebra relations as dense matrix identities.

    Defaults to the stochastic-point parameters; any unimodular (q, u)
    may be passed instead.  The quotient relations use the alternating
    products J = e1 e3 ... and I = e2 e4 ... with weight
    kappa = (u^N + u^{-N})^2.  Every generator conserves the number of up
    spins, so the relations are checked on each S_z sector in turn, which
    is the same as checking them on the full space.
    """
    if length > 12:
        raise ValueError("dense relation check is limited to length <= 12")
    if q is None:
        q = cexp(1j * pi / 3)
    if u is None:
        u = combinatorial_twist(length)
    two_q = q + 1 / q
    n_half = length // 2
    kappa = (u ** n_half + u ** -n_half) ** 2

    def worst(m: np.ndarray) -> float:
        return float(np.abs(m).max())

    def sector_errors(n_up: int) -> tuple[float, float, float, float]:
        gens = [tl_generator_matrix(length, q, u, b, n_up) for b in range(1, length + 1)]
        idem = max(worst(e @ e - two_q * e) for e in gens)
        neigh = max(
            worst(gens[i] @ gens[(i + d) % length] @ gens[i] - gens[i])
            for i in range(length) for d in (1, -1))
        comm = 0.0
        for i in range(length):
            for j in range(i + 2, length):
                if i == 0 and j == length - 1:
                    continue
                comm = max(comm, worst(gens[i] @ gens[j] - gens[j] @ gens[i]))
        odd = gens[0]
        for k in range(2, length, 2):
            odd = odd @ gens[k]
        even = gens[1]
        for k in range(3, length, 2):
            even = even @ gens[k]
        quot = max(worst(odd @ even @ odd - kappa * odd),
                   worst(even @ odd @ even - kappa * even))
        return idem, neigh, comm, quot

    idem, neigh, comm, quot = (
        max(errors) for errors in zip(*map(sector_errors, range(length + 1))))
    return TLReport(length, two_q, kappa, idem, neigh, comm, quot)
