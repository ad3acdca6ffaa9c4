"""Numerically exact ground state, solved in the odd parity sector.

H commutes with the parity ``model.parity_operator``, and the ground state
lies in its odd sector (parity -1).  Each sector Hamiltonian is
pentadiagonal and about half the size of the full space, and is read only
in the LAPACK lower band storage ``model.sector_hamiltonian`` builds.  At
one truncation the two lowest odd-sector eigenvalues come from LAPACK's
banded eigenvalue solver dsbevx (eigenvalues only), and the ground vector
from inverse iteration with banded Cholesky solves; nothing dense is
assembled.  That one eigensolve is all an accepted solve needs: the premise
that the even sector lies no lower is checked by one banded Cholesky
factorisation of the even band shifted just below E0, which exists exactly
when every even-sector eigenvalue lies above the shift.  The even sector's
lowest eigenvalue, and with it the splitting and the excited gap
min(E1_odd, E0_even) - E0, is solved only when a result is asked for them.

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
from functools import cached_property

import numpy as np
import scipy.linalg

from .model import (
    DEFAULT_TOL,
    FockTruncation,
    JointState,
    ModelParams,
    sector_hamiltonian,
    sector_pattern,
    sector_slices,
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
# The Cholesky routines and the band product are bound once too.
_SBEVX = scipy.linalg.get_lapack_funcs("sbevx", dtype=np.float64)
_ABSTOL = 2.0 * scipy.linalg.lapack.dlamch("s")
_PBTRF, _PBTRS = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)
_SBMV = scipy.linalg.get_blas_funcs("sbmv", dtype=np.float64)


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    """One odd-sector solve at one truncation, n_max_used.

    ``energy``, ``state``, ``convergence_gap`` and ``residual`` come with the
    solve.  ``parity_splitting`` and ``excited_gap`` do not: the first read
    of either solves the even sector's lowest eigenvalue (``even_energy``),
    with the same banded eigenvalue solver on the even band of ``params`` at
    n_max_used, once per result.  Both are differences of eigenvalues of the
    truncated H, each good to a small multiple of eps * max|band| in absolute
    terms.  So a splitting below that (deep coupling, where it is
    exponentially small) is rounding, and may read 0 or slightly negative.
    The truncation is certified for E0 alone (``convergence_gap``), not for
    E1_odd or E0_even.
    """

    energy: float
    state: JointState
    convergence_gap: float  # truncation-error estimate r^2 / (E1_odd - E0), see ground_state_at
    residual: float         # ||H v - E v||_2 at n_max_used
    odd_excited: float      # E1_odd, the second odd-sector eigenvalue at n_max_used
    params: ModelParams

    @property
    def n_max_used(self) -> int:
        return self.state.n_max

    @cached_property
    def even_energy(self) -> float:
        """E0_even, the lowest even-sector eigenvalue at n_max_used (solved on first read)."""
        band = sector_hamiltonian(self.params, FockTruncation(self.n_max_used), odd=False)
        return float(_lowest_eigenvalues(band, 1)[0])

    @property
    def parity_splitting(self) -> float:
        """E0_even - E0_odd at n_max_used (tunnelling); reads ``even_energy``."""
        return self.even_energy - self.energy

    @property
    def excited_gap(self) -> float:
        """E_1 - E_0 at n_max_used, the lower of E1_odd and E0_even over E0, or 0 if
        the even sector lies lower; reads ``even_energy``."""
        return max(0.0, min(self.odd_excited, self.even_energy) - self.energy)


def _lowest_eigenvalues(band: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of a band in lower storage; ``band`` is not overwritten."""
    w, _, m, _, info = _SBEVX(
        band, 0.0, 1.0, 1, count, compute_v=0, range=2, lower=1, abstol=_ABSTOL, overwrite_ab=0
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsbevx failed (info={info})")
    return w[:m]


def _unit(scale: float) -> float:
    """A power of two near SHIFT_FLOOR * ``scale``, or 1 where that is below 1.

    Inverse iteration's solves divide by a shift offset of at least
    SHIFT_FLOOR * scale, and a residual is a few rounding units of scale, so
    in this unit both stay near 1.  On a huge band (g near 1e200) their
    squares in a norm would otherwise underflow or overflow.  Scaling by a
    power of two is exact and cancels, and below a scale of about 3e14 the
    unit is 1: ordinary parameters see no change, bit for bit.
    """
    return math.ldexp(1.0, max(0, math.frexp(SHIFT_FLOOR * scale)[1]))


def _inverse_iteration(
    band: np.ndarray, eigenvalue: float, start: np.ndarray, gap: float, scale: float
) -> np.ndarray:
    """Eigenvector of the lowest eigenvalue, by banded Cholesky solves of (H - shift) x = v.

    ``scale`` is the largest band entry.  The shift sits 1e-10 of it below
    the eigenvalue, or 1e-5 of the ``gap`` to the next eigenvalue where that
    is less, but at least SHIFT_FLOOR of it, more than the eigenvalue's
    rounding error.  So H - shift is positive definite and never exactly
    singular (at g = 0 the eigenvalue -omega_a is exact).  Each solve damps
    the next eigenvector, ``gap`` above, by offset / (gap + offset) against
    the lowest; there are INVERSE_ITERATIONS solves, or more until that
    leaves at most LEFTOVER of it.  Each right-hand side is taken in
    ``_unit(scale)``.  If the Cholesky factorisation fails, the shift is not
    below the spectrum, so ``eigenvalue`` is not the lowest: LinAlgError.
    """
    offset = max(min(1e-10 * scale, 1e-5 * gap), SHIFT_FLOOR * scale)
    shifted = band.copy(order="F")
    shifted[0] -= eigenvalue - offset
    factor, info = _PBTRF(shifted, lower=1, overwrite_ab=1)
    if info != 0:
        msg = f"H - shift is not positive definite: {eigenvalue} is not the lowest eigenvalue"
        raise np.linalg.LinAlgError(f"{msg} (dpbtrf info={info})")
    unit = _unit(scale)
    damping = math.log(offset / (gap + offset))
    vec = start
    for _ in range(max(INVERSE_ITERATIONS, math.ceil(math.log(LEFTOVER) / damping))):
        vec = _PBTRS(factor, vec * unit, lower=1, overwrite_b=1)[0]
        vec /= math.sqrt(vec.dot(vec))
    return vec


def _even_sector_lies_above(result: GroundStateResult) -> bool:
    """Whether every even-sector eigenvalue at n_max_used lies above
    sigma = E0 - 1e-12 (|E0| + 1): the even band less sigma has a Cholesky factor."""
    band = sector_hamiltonian(result.params, FockTruncation(result.n_max_used), odd=False)
    band[0] -= result.energy - 1e-12 * (abs(result.energy) + 1.0)
    return _PBTRF(band, lower=1, overwrite_ab=1)[1] == 0


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
    checks on the accepted solve that it does not.
    Raises RuntimeError if, at g > 0, E1_odd - E0 is at most COUPLED_GAP of
    the largest band entry (omega_c below about 5e-7 at omega_a = 1), where rounding
    could mix more than about 2e-10 of the next level into the ground vector;
    at g = 0, only if it is at most DECOUPLED_GAP, 1600 rounding units of
    that entry (omega_c below about 2e-13), where the gap barely stands out
    from the rounding of the eigenvalues.
    """
    trunc = FockTruncation(n_max)
    band = sector_hamiltonian(params, trunc, odd=True)
    energy, odd_1 = _lowest_eigenvalues(band, 2).tolist()
    scale = float(band.max())  # = max|band|: every entry is >= 0
    if odd_1 - energy <= (COUPLED_GAP if params.g else DECOUPLED_GAP) * scale:
        raise RuntimeError(
            f"odd-sector gap {odd_1 - energy:.3e} is too small to resolve the ground vector "
            f"at n_max={n_max} (omega_a={params.omega_a}, omega_c={params.omega_c}, g={params.g})"
        )
    # The sector couplings form a tree (a chain of S/D vectors with a |0>
    # leaf on each S), and every coupling is >= 0.  Flipping signs by depth
    # in the tree makes them <= 0 (+1 on S_n, -1 on |0>_n and D_n at odd n),
    # so the ground vector's components carry exactly these signs
    # (Perron-Frobenius) and the start cannot be orthogonal to it, at g = 0 too.
    start = sector_pattern(trunc, odd=True).signs
    vec = _inverse_iteration(band, energy, start, odd_1 - energy, scale)
    s, _, d = sector_slices(odd=True)
    leak = params.g * math.sqrt(n_max + 1) * abs(float(vec[d if n_max % 2 else s][-1]))
    unit = _unit(scale)
    residue = _SBMV(2, 1.0, band, vec, lower=1)
    residue -= energy * vec
    residue /= unit
    return GroundStateResult(
        energy=energy,
        state=JointState(vec),
        convergence_gap=leak * leak / (odd_1 - energy),
        residual=unit * math.sqrt(residue.dot(residue)),
        odd_excited=odd_1,
        params=params,
    )


def ground_state(params: ModelParams, tol: float = DEFAULT_TOL) -> GroundStateResult:
    """Ground state on a truncation sized from g/omega_c, accepted on its own error estimate.

    alpha = g / omega_c bounds the field displacement, so the first solve
    is at n_max = alpha^2 + 8 alpha + 16, at most ``N_MAX_CAP``.  The
    truncation grows by a quarter until the estimate of ``ground_state_at``
    is below ``tol``, a positive absolute energy tolerance in the units of
    ``params``.  Raises RuntimeError if the cap is reached without that,
    which signals pathological parameters rather than a tight tolerance,
    and if the accepted even-sector ground energy lies more than
    1e-12 (|E0| + 1) below the odd-sector one, which would break the premise
    that the ground state is odd (``_even_sector_lies_above``).
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
    if not _even_sector_lies_above(result):
        raise RuntimeError(
            f"even-sector ground energy lies {-result.parity_splitting:.3e} below "
            f"the odd-sector one at n_max={n_max} (omega_a={params.omega_a}, "
            f"omega_c={params.omega_c}, g={params.g})"
        )
    return result
