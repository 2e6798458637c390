"""Spin-half chain realization of the tile dynamics.

Each local generator acts on a pair of adjacent spins through a rank-one
block on their antiparallel subspace, with a hopping twist u and a
diagonal built from a unimodular parameter q (the generator satisfies the
Temperley-Lieb relations with loop weight q + 1/q).  Summing the local
generators gives, up to constants, minus a twisted anisotropic Heisenberg
Hamiltonian; the tilt parameters of the Markov route map onto (Delta, u),
so the largest tilted eigenvalue can be cross-checked against the
ground-state energy of a Hermitian matrix.  At the stochastic point the
ground energy is -3L/4 on the zero-magnetization sector.

Basis conventions: site k of an L-site ring is bit k of an integer basis
label, bit value 1 meaning spin up; an S_z sector is the set of labels
with a given number of set bits in increasing label order, and the
zero-magnetization sector has L/2 of them.  Every operator conserves S_z
and is built directly on one sector from 4x4 blocks on the bonds.
Generator indices are 1-based (bond i couples sites i-1 and i mod L in
bit positions) so that the even/odd alternating products read naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import acos, exp, isfinite
from cmath import exp as cexp, pi

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, eigsh

from .scgf import ConvergenceError

_DENSE_SECTOR_DIM = 64       # below this, skip ARPACK entirely
_DENSE_FALLBACK_DIM = 4096   # dense rescue cap when ARPACK disappoints
_HERMITIAN_TOL = 1e-12
_RESIDUAL_TOL = 1e-10        # largest accepted eigenpair residual of ARPACK
TL_TOLERANCE = 1e-12         # worst entry of a Temperley-Lieb relation residual
# longest chain: at L=20 the zero-magnetization sector has 184756 states and
# its ground energy takes about 4 s and 0.6 GB; each +2 sites multiplies the
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
    if length < 2 or length % 2:
        raise ValueError(f"chain length must be even and >= 2, got {length}")
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


def _xxz_block(delta_aniso: float, hop: complex) -> np.ndarray:
    """Two-site XXZ term: -delta/2 on parallel and +delta/2 on antiparallel
    pairs; an up spin hops from site k+1 to k with amplitude -hop and from
    k to k+1 with -1/hop."""
    block = np.diag([-delta_aniso / 2, delta_aniso / 2, delta_aniso / 2,
                     -delta_aniso / 2]).astype(complex)
    block[1, 2], block[2, 1] = -1 / hop, -hop
    return block


def sector_operator(length: int, n_up: int,
                    blocks: dict[int, np.ndarray]) -> sp.csr_matrix:
    """Sum of two-site operators on the sector with n_up up spins.

    blocks maps a bond k in 0..L-1, coupling bits k and k+1 mod L, to a
    4x4 matrix block[out, in] on the local states 2*bit_k + bit_(k+1).
    Blocks must conserve the number of up spins.
    """
    basis = np.array(sector_basis(length, n_up), dtype=np.int64)
    rows, cols, vals = [], [], []
    for bond, block in blocks.items():
        i, j = bond, (bond + 1) % length
        local = 2 * ((basis >> i) & 1) + ((basis >> j) & 1)
        for new, old in zip(*np.nonzero(block)):
            if bin(new).count("1") != bin(old).count("1"):
                raise ValueError(f"block on bond {bond} changes the up-spin count")
            source = np.nonzero(local == old)[0]
            diff = new ^ old
            flip = (diff >> 1) << i | (diff & 1) << j
            rows.append(np.searchsorted(basis, basis[source] ^ flip))
            cols.append(source)
            vals.append(np.full(source.size, block[new, old]))
    n = len(basis)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n), dtype=complex)


def tl_generator_matrix(length: int, q: complex, u: complex, bond: int,
                        n_up: int) -> sp.csr_matrix:
    """Local generator of bond 1..L (cyclic) on the sector with n_up up spins.

    On the antiparallel pair states (up,down)/(down,up) of the bond the
    operator is [[q, u], [1/u, 1/q]]; parallel pairs are annihilated.
    """
    if not 1 <= bond <= length:
        raise ValueError(f"bond index must lie in 1..{length}, got {bond}")
    return sector_operator(length, n_up, {bond - 1: _tl_block(q, u)})


def build_xxz(params: XXZParams) -> sp.csr_matrix:
    """Hamiltonian on the zero-magnetization sector, twist spread over every bond."""
    block = _xxz_block(params.delta_aniso, params.resolved_twist())
    length = params.length
    return sector_operator(length, length // 2, dict.fromkeys(range(length), block))


def hermiticity_defect(matrix: sp.spmatrix) -> float:
    """Largest absolute entry of M - M^dagger."""
    defect = (matrix - matrix.getH()).tocoo()
    return float(np.abs(defect.data).max()) if defect.nnz else 0.0


def ground_energy(params: XXZParams) -> float:
    """Minimal sector eigenvalue via a restarted Lanczos-type solve.

    The iteration starts from a fixed-seed vector, so reruns return the
    same digits.  The returned value is guarded by an explicit residual
    check; small sectors (or an unconverged iterative solve on a modest
    one) go through a dense Hermitian eigensolve instead.
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
    try:
        start = np.random.default_rng(0).standard_normal(n).astype(h.dtype)
        values, vectors = eigsh(h, k=1, which="SA", tol=0.0, maxiter=50 * n, v0=start)
        vec = vectors[:, 0]
        residual = float(np.linalg.norm(h @ vec - values[0] * vec))
        if residual <= _RESIDUAL_TOL:
            return float(values[0])
    except ArpackError:
        residual = float("inf")
    if n <= _DENSE_FALLBACK_DIM:
        return float(np.linalg.eigvalsh(h.toarray())[0])
    raise ConvergenceError(
        f"extremal eigensolve residual {residual:.2e} exceeds "
        f"{_RESIDUAL_TOL:.1e} on sector dimension {n}")


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
        gens = [tl_generator_matrix(length, q, u, b, n_up).toarray()
                for b in range(1, length + 1)]
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
