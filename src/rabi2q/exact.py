"""Numerically exact ground state, solved in the odd parity sector.

H commutes with the parity ``model.parity_operator``, and the ground state
lies in its odd sector (parity -1).  Each sector Hamiltonian is
pentadiagonal and about half the size of the full space
(``model.sector_hamiltonian``).  At one truncation the two lowest
odd-sector eigenvalues and the lowest even-sector eigenvalue come from
LAPACK's banded eigenvalue solver dsbevx (eigenvalues only, no reduction
matrix), and the ground vector from inverse iteration with banded LU
solves; nothing dense is assembled.  The full spectrum is the union of the
two sectors, so the excited gap is min(E1_odd, E0_even) - E0_odd.

The Fock truncation is sized from alpha = g / omega_c, an upper bound on
the field displacement, and one solve there is accepted on its own
truncation-error estimate: the residual of the zero-padded ground vector
in the untruncated H, in Kato-Temple form (``ground_state_at``).  Only
when the estimate exceeds the tolerance is the truncation grown, by a
quarter, and solved again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import ATOM_DIM, FockTruncation, ModelParams, sector_hamiltonian

INVERSE_ITERATIONS = 2

# The LAPACK routine and tolerance scipy.linalg.eig_banded uses for
# selected eigenvalues, bound once: its Python-side checks add about 25 us
# a call, some 40% of a solve on the small bands of the paper's window.
_SBEVX = scipy.linalg.get_lapack_funcs("sbevx", dtype=np.float64)
_ABSTOL = 2.0 * scipy.linalg.lapack.dlamch("s")


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
    convergence_gap: float  # truncation-error estimate r^2 / (E1_odd - E0), see ground_state_at
    excited_gap: float      # E_1 - E_0 at n_max_used
    residual: float         # ||H v - E v||_2 at n_max_used
    parity_splitting: float  # E0_even - E0_odd at n_max_used (tunnelling)


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
    """The ``count`` lowest eigenvalues of a band in lower storage; ``band`` is not overwritten."""
    w, _, m, _, info = _SBEVX(
        band, 0.0, 1.0, 1, count, compute_v=0, range=2, lower=1, abstol=_ABSTOL, overwrite_ab=0
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsbevx failed (info={info})")
    return w[:m]


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


def ground_state_at(params: ModelParams, n_max: int) -> GroundStateResult:
    """Lowest eigenpair at one truncation, solved in the odd parity sector.

    ``convergence_gap`` is the truncation-error estimate r^2 / (E1_odd - E0).
    The only coupling out of the truncated space is g * sqrt(N + 1) * Jz on
    the top level N, and Jz swaps S_N and D_N and annihilates |0>_N, so
    r = g * sqrt(N + 1) * |v_N| is the residual of the zero-padded ground
    vector in the untruncated H.  This is the Kato-Temple form (T. Kato
    1949; G. Temple 1928), but an estimate, not a bound: the truncated E1
    lies above the exact one, and the estimate can fall below the true
    error when the truncation is far too small.  On such a truncation the
    even sector can also lie lower (then the splitting is negative and the
    excited gap 0); ``ground_state`` checks the sign on the accepted solve.
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
    leak = params.g * math.sqrt(n_max + 1) * abs(float(vec[embedding.start[-1]]))
    return GroundStateResult(
        energy=energy,
        state=make_state(embedding.embed(vec), n_max),
        n_max_used=n_max,
        convergence_gap=leak * leak / (odd_1 - energy),
        excited_gap=max(0.0, min(odd_1, even_0) - energy),
        residual=float(np.linalg.norm(_band_matvec(band, vec) - energy * vec)),
        parity_splitting=even_0 - energy,
    )


def ground_state(
    params: ModelParams,
    tol: float = 1e-10,
    n_max_start: int = 16,
    n_max_cap: int = 4096,
) -> GroundStateResult:
    """Ground state on a truncation sized from g/omega_c, accepted on its own error estimate.

    alpha = g / omega_c bounds the field displacement, so the first solve
    is at n_max = alpha^2 + 8 alpha + 16, at least ``n_max_start`` and at
    most ``n_max_cap``.  The truncation grows by a quarter until the
    estimate of ``ground_state_at`` is below ``tol``, an absolute energy
    tolerance in the units of ``params``.  Raises RuntimeError if the cap
    is reached without that, which signals pathological parameters rather
    than a tight tolerance, and if the accepted even-sector ground energy
    lies below the odd-sector one, which would break the premise that the
    ground state is odd.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if n_max_start < 8:
        raise ValueError(f"n_max_start must be >= 8, got {n_max_start}")

    alpha = params.g / params.omega_c
    n_max = min(max(n_max_start, math.ceil(alpha * alpha + 8.0 * alpha + 16.0)), n_max_cap)
    while True:
        result = ground_state_at(params, n_max)
        if result.convergence_gap < tol:
            break
        if n_max >= n_max_cap:
            raise RuntimeError(
                f"ground state not converged to {tol:g} by n_max={n_max_cap} "
                f"(omega_a={params.omega_a}, omega_c={params.omega_c}, g={params.g})"
            )
        n_max = min(math.ceil(1.25 * n_max), n_max_cap)
    if result.parity_splitting < -1e-12 * (abs(result.energy) + 1.0):
        raise RuntimeError(
            f"even-sector ground energy lies {-result.parity_splitting:.3e} below "
            f"the odd-sector one at n_max={n_max} (omega_a={params.omega_a}, "
            f"omega_c={params.omega_c}, g={params.g})"
        )
    return result
