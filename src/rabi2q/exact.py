"""Numerically exact ground state, solved in the odd parity sector.

H commutes with the parity ``model.parity_operator``, and the ground state
lies in its odd sector (parity -1).  Each sector Hamiltonian is
pentadiagonal and about half the size of the full space
(``model.sector_hamiltonian``).  At one truncation the two lowest
odd-sector eigenvalues and the lowest even-sector eigenvalue come from a
banded eigenvalue solver (eigenvalues only, no reduction matrix), and the
ground vector from inverse iteration with banded LU solves; nothing dense
is assembled.  The full spectrum is the union of the two sectors, so the
excited gap is min(E1_odd, E0_even) - E0_odd.

The Fock truncation is grown by doubling until the ground energy is
converged; energies decrease monotonically along the ladder because the
truncated spaces are nested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import ATOM_DIM, FockTruncation, ModelParams, sector_hamiltonian

INVERSE_ITERATIONS = 2


@dataclass(frozen=True, eq=False)
class JointState:
    """Real state vector on the product basis, in the `model` ordering.

    Unit norm; the sign is fixed so the largest-magnitude coefficient is
    positive (a global sign carries no physics).
    """

    coefficients: np.ndarray
    n_max: int


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    energy: float
    state: JointState
    n_max_used: int
    convergence_gap: float  # |E(n_max) - E(n_max/2)|
    excited_gap: float      # E_1 - E_0 at the final truncation
    residual: float         # ||H v - E v||_2 at the final truncation
    parity_splitting: float  # E0_even - E0_odd at the final truncation (tunnelling)


class Rung(tuple):
    """One truncation's ``(energy, state, excited_gap, residual)``.

    Unpacks and indexes as that 4-tuple; ``parity_splitting`` rides along
    as an attribute.
    """

    parity_splitting: float

    def __new__(cls, energy, state, excited_gap, residual, parity_splitting):
        rung = super().__new__(cls, (energy, state, excited_gap, residual))
        rung.parity_splitting = parity_splitting
        return rung


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def make_state(coefficients: np.ndarray, n_max: int) -> JointState:
    """Normalize, apply the sign convention and wrap as a JointState."""
    vec = np.asarray(coefficients, dtype=float)
    if vec.shape != (ATOM_DIM * (n_max + 1),):
        raise ValueError(
            f"expected length {ATOM_DIM * (n_max + 1)} for n_max={n_max}, "
            f"got shape {vec.shape}"
        )
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise ValueError("zero vector cannot be a state")
    return JointState(_canonical_sign(vec / nrm), n_max)


def pad_state(state: JointState, n_max: int) -> JointState:
    """Extend a state with zero amplitude on the added Fock levels."""
    if n_max < state.n_max:
        raise ValueError(f"cannot pad from n_max={state.n_max} down to {n_max}")
    if n_max == state.n_max:
        return state
    vec = np.zeros(ATOM_DIM * (n_max + 1))
    vec[: state.coefficients.size] = state.coefficients
    return JointState(vec, n_max)


def fidelity(a: JointState, b: JointState) -> float:
    """|<a, b>|; global sign is unphysical.  Both states must share n_max."""
    if a.n_max != b.n_max:
        raise ValueError(
            f"states live on different truncations ({a.n_max} vs {b.n_max}); "
            "pad the shorter one with pad_state first"
        )
    return float(abs(a.coefficients @ b.coefficients))


def _lowest_eigenvalues(band: np.ndarray, count: int) -> np.ndarray:
    return scipy.linalg.eig_banded(
        band, lower=True, eigvals_only=True, select="i",
        select_range=(0, count - 1), check_finite=False,
    )


def _band_matvec(band: np.ndarray, vec: np.ndarray) -> np.ndarray:
    out = band[0] * vec
    for k in (1, 2):
        out[k:] += band[k, :-k] * vec[:-k]
        out[:-k] += band[k, :-k] * vec[k:]
    return out


def _inverse_iteration(band: np.ndarray, eigenvalue: float, start: np.ndarray) -> np.ndarray:
    """Eigenvector of a computed eigenvalue, by banded solves of (H - shift) x = v.

    The shift sits below the eigenvalue by 1e-10 of the largest entry, far
    more than its rounding error, so H - shift is never exactly singular
    (at g = 0 the eigenvalue -omega_a is exact); each solve still damps the
    other eigenvectors by that offset over their distance.
    """
    shift = eigenvalue - 1e-10 * float(np.abs(band).max())
    # LAPACK general band storage of H - shift, two extra rows for LU fill-in
    ab = np.zeros((7, band.shape[1]))
    ab[4] = band[0] - shift
    ab[5, :-1] = ab[3, 1:] = band[1, :-1]
    ab[6, :-2] = ab[2, 2:] = band[2, :-2]
    lu, pivots, info = scipy.linalg.lapack.dgbtrf(ab, 2, 2)
    if info != 0:
        raise np.linalg.LinAlgError(f"banded LU of H - shift failed (info={info})")
    vec = start
    for _ in range(INVERSE_ITERATIONS):
        vec = scipy.linalg.lapack.dgbtrs(lu, 2, 2, vec, pivots)[0]
        vec /= np.linalg.norm(vec)
    return vec


def ground_state_at(params: ModelParams, n_max: int) -> Rung:
    """Lowest eigenpair at a fixed truncation, solved in the odd parity sector.

    Returns (energy, state, excited_gap, residual), plus ``parity_splitting``
    (see ``Rung``).  On a truncation too small for the coupling, the even
    sector can lie lower (then the splitting is negative and the excited
    gap 0); ``ground_state`` checks the sign once the energy has converged.
    """
    trunc = FockTruncation(n_max)
    band, embedding = sector_hamiltonian(params, trunc, odd=True)
    energy, odd_1 = (float(e) for e in _lowest_eigenvalues(band, 2))
    even_0 = float(_lowest_eigenvalues(sector_hamiltonian(params, trunc, odd=False)[0], 1)[0])
    # The sector couplings form a tree (a chain of S/D vectors with a |0>
    # leaf on each S), and every coupling is >= 0.  Flipping signs by depth
    # in the tree makes them <= 0, so the ground vector's components carry
    # exactly these signs (Perron-Frobenius) and the start cannot be
    # orthogonal to it, even at g = 0.
    depth_sign = (-1.0) ** np.arange(n_max + 1)
    start = np.empty(band.shape[1])
    start[embedding.start] = depth_sign
    start[embedding.start[embedding.paired] + 1] = -depth_sign[embedding.paired]
    vec = _inverse_iteration(band, energy, start)
    residual = float(np.linalg.norm(_band_matvec(band, vec) - energy * vec))
    return Rung(
        energy,
        make_state(embedding.embed(vec), n_max),
        max(0.0, min(odd_1, even_0) - energy),
        residual,
        even_0 - energy,
    )


def ground_state(
    params: ModelParams,
    tol: float = 1e-10,
    n_max_start: int = 16,
    n_max_cap: int = 4096,
) -> GroundStateResult:
    """Ground state with the truncation doubled until |dE| < tol.

    ``tol`` is an absolute energy tolerance in the units of ``params``.
    Raises RuntimeError if the cap is reached without convergence, which
    signals pathological parameters rather than a tight tolerance, and if
    the converged even-sector ground energy lies below the odd-sector one,
    which would break the premise that the ground state is odd.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if n_max_start < 8:
        raise ValueError(f"n_max_start must be >= 8, got {n_max_start}")

    n_max = n_max_start
    energy_prev = ground_state_at(params, n_max)[0]
    while True:
        n_max *= 2
        if n_max > n_max_cap:
            raise RuntimeError(
                f"ground state not converged to {tol:g} by n_max={n_max_cap} "
                f"(omega_a={params.omega_a}, omega_c={params.omega_c}, g={params.g})"
            )
        rung = ground_state_at(params, n_max)
        energy, state, excited_gap, residual = rung
        gap = abs(energy - energy_prev)
        if gap < tol:
            if rung.parity_splitting < -1e-12 * (abs(energy) + 1.0):
                raise RuntimeError(
                    f"even-sector ground energy lies {-rung.parity_splitting:.3e} below "
                    f"the odd-sector one at n_max={n_max} (omega_a={params.omega_a}, "
                    f"omega_c={params.omega_c}, g={params.g})"
                )
            return GroundStateResult(
                energy=energy,
                state=state,
                n_max_used=n_max,
                convergence_gap=gap,
                excited_gap=excited_gap,
                residual=residual,
                parity_splitting=rung.parity_splitting,
            )
        energy_prev = energy
