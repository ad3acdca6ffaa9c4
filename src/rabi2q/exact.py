"""Numerically exact ground state, solved in the odd parity sector.

H commutes with the parity ``model.parity_operator``, and the ground state
lies in its odd sector (parity -1).  Each sector Hamiltonian is
pentadiagonal and about half the size of the full space, and is read only
in the LAPACK lower band storage ``model.sector_hamiltonian`` builds.  At
one truncation the two lowest odd-sector eigenvalues and the lowest
even-sector eigenvalue come from LAPACK's banded eigenvalue solver dsbevx
(eigenvalues only), and the ground vector from inverse iteration with
banded Cholesky solves; nothing dense is assembled.  The full spectrum is
the union of the sectors, so the excited gap is min(E1_odd, E0_even) - E0_odd.

The Fock truncation is sized from alpha = g / omega_c, an upper bound on
the field displacement, and one solve there is accepted on its own
truncation-error estimate: the residual of the zero-padded ground vector
in the untruncated H, in Kato-Temple form (``ground_state_at``).  Only
when the estimate exceeds the tolerance is the truncation grown, by a
quarter, up to ``N_MAX_CAP``, and solved again.

This is the one module of the package that imports scipy (scipy.linalg),
and nothing imports it eagerly: the package loads it on first access, and
the command line with the first row that needs the exact stage, so the
approximate routes run without scipy.  The state type it returns,
``JointState``, and ``DEFAULT_TOL`` live in ``model``, which needs no scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import (
    DEFAULT_TOL, FockTruncation, JointState, ModelParams, sector_hamiltonian, sector_slices
)

INVERSE_ITERATIONS = 2  # the fewest; a small gap takes more, see _inverse_iteration
LEFTOVER = 1e-8  # the largest share of the next eigenvector inverse iteration leaves
N_MAX_CAP = 4096  # largest Fock truncation ground_state tries
# The smallest shift offset of inverse iteration, relative to the largest band
# entry: 16 rounding units, well above the eigenvalue's rounding error.
SHIFT_FLOOR = 16.0 * sys.float_info.epsilon
# The smallest odd-sector gap ground_state_at accepts, relative to the largest
# band entry.  Rounding at eps * max|band| mixes up to about eps * max|band| /
# gap of the next odd level into the ground vector: at g > 0 a gap of 1e-6
# keeps that near 2e-10, the printed digits.  At g = 0 no photon number
# couples to another, so the vector is solved within its own block and the
# gap need only stand out from the rounding of the eigenvalues, by 100 floors.
COUPLED_GAP = 1e-6
DECOUPLED_GAP = 100.0 * SHIFT_FLOOR

# The LAPACK routine and tolerance scipy.linalg.eig_banded uses for
# selected eigenvalues, bound once: its Python-side checks add about 25 us
# a call, some 40% of a solve on the small bands of the paper's window.
_SBEVX = scipy.linalg.get_lapack_funcs("sbevx", dtype=np.float64)
_ABSTOL = 2.0 * scipy.linalg.lapack.dlamch("s")


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    energy: float
    state: JointState
    convergence_gap: float  # truncation-error estimate r^2 / (E1_odd - E0), see ground_state_at
    excited_gap: float      # E_1 - E_0 at n_max_used
    residual: float         # ||H v - E v||_2 at n_max_used
    parity_splitting: float  # E0_even - E0_odd at n_max_used (tunnelling)

    @property
    def n_max_used(self) -> int:
        return self.state.n_max


def _lowest_eigenvalues(band: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of a band in lower storage; ``band`` is not overwritten."""
    w, _, m, _, info = _SBEVX(
        band, 0.0, 1.0, 1, count, compute_v=0, range=2, lower=1, abstol=_ABSTOL, overwrite_ab=0
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsbevx failed (info={info})")
    return w[:m]


def _inverse_iteration(
    band: np.ndarray, eigenvalue: float, start: np.ndarray, gap: float
) -> np.ndarray:
    """Eigenvector of the lowest eigenvalue, by banded Cholesky solves of (H - shift) x = v.

    The shift sits 1e-10 of the largest band entry below the eigenvalue, or
    1e-5 of the ``gap`` to the next eigenvalue where that is less, but at
    least SHIFT_FLOOR of that entry, more than the eigenvalue's rounding
    error.  So H - shift is positive definite and never exactly singular
    (at g = 0 the eigenvalue -omega_a is exact).  Each solve damps
    the next eigenvector, ``gap`` above, by offset / (gap + offset) against
    the lowest; there are INVERSE_ITERATIONS solves, or more until that
    leaves at most LEFTOVER of it.  If the Cholesky factorisation fails, the
    shift is not below the spectrum, so ``eigenvalue`` is not the lowest:
    LinAlgError.
    """
    scale = float(np.abs(band).max())
    offset = max(min(1e-10 * scale, 1e-5 * gap), SHIFT_FLOOR * scale)
    shift = eigenvalue - offset
    shifted = np.vstack((band[0] - shift, band[1:]))
    factor, info = scipy.linalg.lapack.dpbtrf(shifted, lower=1)
    if info != 0:
        msg = f"H - shift is not positive definite: {eigenvalue} is not the lowest eigenvalue"
        raise np.linalg.LinAlgError(f"{msg} (dpbtrf info={info})")
    damping = math.log(offset / (gap + offset))
    vec = start
    for _ in range(max(INVERSE_ITERATIONS, math.ceil(math.log(LEFTOVER) / damping))):
        vec = scipy.linalg.lapack.dpbtrs(factor, vec, lower=1)[0]
        vec /= np.linalg.norm(vec)
    return vec


def ground_state_at(params: ModelParams, n_max: int) -> GroundStateResult:
    """Lowest eigenpair at one truncation, solved in the odd parity sector.

    ``convergence_gap`` is the truncation-error estimate r^2 / (E1_odd - E0).
    The only coupling out of the truncated space is g * sqrt(N + 1) * Jz on
    the top level N, and Jz swaps S_N and D_N and annihilates |0>_N, so with
    v_N the S_N (even N) or D_N (odd N) amplitude, r = g * sqrt(N + 1) * |v_N|
    is the residual of the zero-padded ground vector in the untruncated H.
    This is the Kato-Temple form (T. Kato 1949; G. Temple 1928), but an
    estimate, not a bound: the truncated E1 lies above the exact one, and
    the estimate can fall below the true error when the truncation is far
    too small.  On such a truncation the even sector can also lie lower
    (then the splitting is negative and the excited gap 0); ``ground_state``
    checks the sign on the accepted solve.
    Raises RuntimeError if, at g > 0, E1_odd - E0 is at most COUPLED_GAP of
    the largest band entry (omega_c below about 5e-7 at omega_a = 1), where rounding
    could mix more than about 2e-10 of the next level into the ground vector;
    at g = 0, only if it is at most DECOUPLED_GAP, 1600 rounding units of
    that entry (omega_c below about 2e-13), where the gap barely stands out
    from the rounding of the eigenvalues.
    """
    trunc = FockTruncation(n_max)
    band = sector_hamiltonian(params, trunc, odd=True)
    energy, odd_1 = (float(e) for e in _lowest_eigenvalues(band, 2))
    even_0 = float(_lowest_eigenvalues(sector_hamiltonian(params, trunc, odd=False), 1)[0])
    if odd_1 - energy <= (COUPLED_GAP if params.g else DECOUPLED_GAP) * np.abs(band).max():
        raise RuntimeError(
            f"odd-sector gap {odd_1 - energy:.3e} is too small to resolve the ground vector "
            f"at n_max={n_max} (omega_a={params.omega_a}, omega_c={params.omega_c}, g={params.g})"
        )
    # The sector couplings form a tree (a chain of S/D vectors with a |0>
    # leaf on each S), and every coupling is >= 0.  Flipping signs by depth
    # in the tree makes them <= 0 (+1 on S_n, -1 on |0>_n and D_n at odd n),
    # so the ground vector's components carry exactly these signs
    # (Perron-Frobenius) and the start cannot be orthogonal to it, at g = 0 too.
    s, _, d = sector_slices(odd=True)
    start = np.full(band.shape[1], -1.0)
    start[s] = 1.0
    vec = _inverse_iteration(band, energy, start, odd_1 - energy)
    leak = params.g * math.sqrt(n_max + 1) * abs(float(vec[d if n_max % 2 else s][-1]))
    h_vec = scipy.linalg.blas.dsbmv(2, 1.0, band, vec, lower=1)
    return GroundStateResult(
        energy=energy,
        state=JointState(vec),
        convergence_gap=leak * leak / (odd_1 - energy),
        excited_gap=max(0.0, min(odd_1, even_0) - energy),
        residual=float(np.linalg.norm(h_vec - energy * vec)),
        parity_splitting=even_0 - energy,
    )


def ground_state(params: ModelParams, tol: float = DEFAULT_TOL) -> GroundStateResult:
    """Ground state on a truncation sized from g/omega_c, accepted on its own error estimate.

    alpha = g / omega_c bounds the field displacement, so the first solve
    is at n_max = alpha^2 + 8 alpha + 16, at most ``N_MAX_CAP``.  The
    truncation grows by a quarter until the estimate of ``ground_state_at``
    is below ``tol``, a positive absolute energy tolerance in the units of
    ``params``.  Raises RuntimeError if the cap is reached without that,
    which signals pathological parameters rather than a tight tolerance,
    and if the accepted even-sector ground energy lies below the odd-sector
    one, which would break the premise that the ground state is odd.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    alpha = params.g / params.omega_c
    n_max = math.ceil(min(alpha * alpha + 8.0 * alpha + 16.0, N_MAX_CAP))
    while True:
        result = ground_state_at(params, n_max)
        if result.convergence_gap < tol:
            break
        if n_max >= N_MAX_CAP:
            raise RuntimeError(
                f"ground state not converged to {tol:g} by n_max={N_MAX_CAP} "
                f"(omega_a={params.omega_a}, omega_c={params.omega_c}, g={params.g})"
            )
        n_max = min(math.ceil(1.25 * n_max), N_MAX_CAP)
    if result.parity_splitting < -1e-12 * (abs(result.energy) + 1.0):
        raise RuntimeError(
            f"even-sector ground energy lies {-result.parity_splitting:.3e} below "
            f"the odd-sector one at n_max={n_max} (omega_a={params.omega_a}, "
            f"omega_c={params.omega_c}, g={params.g})"
        )
    return result
