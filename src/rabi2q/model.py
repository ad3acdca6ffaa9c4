"""Operators and Hamiltonian for two identical qubits coupled to one field mode.

The two qubits enter only through their symmetric (spin-1) subspace; the
antisymmetric singlet does not couple to the field and is not represented.
The model is

    H = omega_a * Jx  +  omega_c * a'a  +  g * (a + a') * Jz

with Jx, Jz the spin-1 angular momentum matrices and a the field
annihilation operator on a truncated Fock space.

Basis ordering, fixed once here and used everywhere in this package:
joint index = fock_index * 3 + atom_index, with atom levels ordered
m = (+1, 0, -1) (eigenvalues of Jz).  In this ordering H is real symmetric
and block tridiagonal in the photon number (total bandwidth 5).

H commutes with the parity ``parity_operator``, so it splits into two
sectors.  In the atom basis S = (|+1> + |-1>)/sqrt2, |0>, D = (|+1> - |-1>)/sqrt2
(Jx couples only S and |0>, Jz swaps S and D), the odd sector (parity -1,
which holds the ground state) keeps S_n, |0>_n at even n and D_n at odd n;
the even sector keeps the rest.  Ordered by photon number, S before |0>,
each sector Hamiltonian is pentadiagonal: ``sector_hamiltonian``.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

ATOM_DIM = 3

COHERENT_DEFICIT_TOL = 1e-12  # norm deficit above which a coherent state warns


class FockTruncationWarning(UserWarning):
    """A coherent state lost more weight to Fock truncation than tolerated."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters (hbar = 1): qubit splitting, field frequency, coupling."""

    omega_a: float
    omega_c: float
    g: float

    def __post_init__(self) -> None:
        for name in ("omega_a", "omega_c", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.omega_a <= 0:
            raise ValueError(f"omega_a must be positive, got {self.omega_a}")
        if self.omega_c <= 0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if self.g < 0:
            raise ValueError(f"g must be non-negative, got {self.g}")


@dataclass(frozen=True)
class FockTruncation:
    """Highest retained photon number; the product space has dimension 3*(n_max+1)."""

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    @property
    def n_levels(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return ATOM_DIM * (self.n_max + 1)


@dataclass(frozen=True, eq=False)
class Spin1Operators:
    """Spin-1 matrices in the Jz eigenbasis ordered m = (+1, 0, -1)."""

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


def spin1_matrices() -> Spin1Operators:
    """Standard spin-1 matrices; jx and jz are real, jy is purely imaginary."""
    s = 1.0 / SQRT2
    jx = np.array([[0.0, s, 0.0], [s, 0.0, s], [0.0, s, 0.0]])
    jy = np.array([[0.0, -1j * s, 0.0], [1j * s, 0.0, -1j * s], [0.0, 1j * s, 0.0]])
    jz = np.diag([1.0, 0.0, -1.0])
    return Spin1Operators(jx=jx, jy=jy, jz=jz)


def annihilation_matrix(trunc: FockTruncation) -> np.ndarray:
    """Field annihilation operator: a[n-1, n] = sqrt(n), zero elsewhere."""
    return np.diag(np.sqrt(np.arange(1.0, trunc.n_levels)), k=1)


def build_hamiltonian(params: ModelParams, trunc: FockTruncation) -> np.ndarray:
    """Assemble H on the truncated product basis (see module docstring).

    The result is symmetrized after assembly so that H == H.T exactly.
    """
    ops = spin1_matrices()
    a = annihilation_matrix(trunc)
    number = a.T @ a
    quad = a + a.T
    eye_f = np.eye(trunc.n_levels)
    eye_a = np.eye(ATOM_DIM)
    h = (
        params.omega_a * np.kron(eye_f, ops.jx)
        + params.omega_c * np.kron(number, eye_a)
        + params.g * np.kron(quad, ops.jz)
    )
    return 0.5 * (h + h.T)


@dataclass(frozen=True, eq=False)
class SectorEmbedding:
    """Where each Fock level's vectors sit in a sector basis.

    Level n holds S_n then |0>_n where ``paired[n]``, and D_n otherwise;
    its first vector has sector index ``start[n]``.
    """

    paired: np.ndarray  # (n_levels,) bool
    start: np.ndarray   # (n_levels,) int

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Map a sector vector to the full product basis (an isometry)."""
        half = vec[self.start] / SQRT2  # S_n or D_n amplitude on |+1> and on |-1>
        full = np.zeros((self.paired.size, ATOM_DIM))
        full[:, 0] = half
        full[:, 2] = np.where(self.paired, half, -half)
        full[self.paired, 1] = vec[self.start[self.paired] + 1]
        return full.ravel()


def sector_hamiltonian(
    params: ModelParams, trunc: FockTruncation, odd: bool
) -> tuple[np.ndarray, SectorEmbedding]:
    """H restricted to one parity sector, in LAPACK lower band storage.

    Returns ``(band, embedding)`` with ``band`` of shape (3, sector_dim):
    ``band[k, j]`` is the matrix element between sector vectors j + k and j.
    Nonzero entries are omega_c * n on the diagonal, omega_a between S_n
    and |0>_n, and g * sqrt(n + 1) between the S or D vector of level n and
    the D or S vector of level n + 1.  ``embedding`` maps sector vectors
    back to the full basis of ``build_hamiltonian``.
    """
    n = np.arange(trunc.n_levels)
    paired = (n % 2 == 0) == odd
    counts = 1 + paired
    start = np.cumsum(counts) - counts

    band = np.zeros((3, start[-1] + counts[-1]))
    band[0] = params.omega_c * np.repeat(n, counts)
    band[1, start[paired]] = params.omega_a
    band[counts[:-1], start[:-1]] = params.g * np.sqrt(n[1:])
    return band, SectorEmbedding(paired, start)


def coherent_state_vector(amplitude: float, trunc: FockTruncation) -> np.ndarray:
    """Fock components exp(-amplitude^2/2) * amplitude^n / sqrt(n!), n = 0..n_max.

    The vector is deliberately not renormalized, so the truncation error is
    visible as a norm deficit 1 - <v, v>.  A FockTruncationWarning reporting
    that deficit is emitted when it exceeds ``COHERENT_DEFICIT_TOL``.

    The components follow from v_0 by v_n = v_(n-1) * amplitude / sqrt(n),
    unless v_0 is below the smallest normal float (|amplitude| above about
    37.6); then the recurrence runs both ways from the peak, see
    ``_coherent_from_peak``.
    """
    v0 = math.exp(-amplitude * amplitude / 2.0)
    if v0 < sys.float_info.min:
        v = _coherent_from_peak(amplitude, trunc.n_levels)
    else:
        v = np.zeros(trunc.n_levels)
        v[0] = v0
        for n in range(1, trunc.n_levels):
            v[n] = v[n - 1] * amplitude / math.sqrt(n)
    deficit = 1.0 - float(v @ v)
    if deficit > COHERENT_DEFICIT_TOL:
        warnings.warn(
            f"coherent state amplitude={amplitude} loses norm {deficit:.3e} "
            f"at n_max={trunc.n_max}",
            FockTruncationWarning,
            stacklevel=2,
        )
    return v


def _coherent_from_peak(amplitude: float, n_levels: int) -> np.ndarray:
    """Coherent-state components from the peak n0 = round(amplitude^2) outwards.

    If the truncation ends below the peak, n0 is the top level instead, so
    the work and memory stay O(n_levels).  With d = n0 - amplitude^2,
    Stirling's series for log(n0!) gives the anchor without cancellation:

        log v_n0 = d/2 - (n0/2) log1p(d / amplitude^2) - log(2 pi n0)/4
                   - 1/(24 n0) + 1/(720 n0^3)

    The next term, 1/(2520 n0^5), is below rounding for n0 >= 1400, and
    where a short truncation puts n0 lower, v_n0 is many orders of
    magnitude below the peak.  The ratios amplitude / sqrt(n) then run up
    and down from n0.
    """
    a2 = amplitude * amplitude
    n0 = max(1, min(round(a2), n_levels - 1))
    log_v = (
        0.5 * (n0 - a2) - 0.5 * n0 * math.log1p((n0 - a2) / a2)
        - 0.25 * math.log(2.0 * math.pi * n0) - 1.0 / (24.0 * n0) + 1.0 / (720.0 * n0**3)
    )
    a = abs(amplitude)
    length = max(n_levels, n0 + 1)
    mag = np.empty(length)
    mag[n0] = math.exp(log_v)
    mag[n0 + 1:] = mag[n0] * np.cumprod(a / np.sqrt(np.arange(n0 + 1, length)))
    mag[:n0] = mag[n0] * np.cumprod(np.sqrt(np.arange(n0, 0, -1)) / a)[::-1]
    sign = (-1.0) ** np.arange(n_levels) if amplitude < 0 else 1.0
    return sign * mag[:n_levels]


def parity_operator(trunc: FockTruncation) -> np.ndarray:
    """Conserved parity: field parity times a pi rotation of the atoms about x.

    The atomic factor exp(i*pi*Jx) sends |m> to -|-m>, so the operator is
    real, symmetric and involutory.  It flips the signs of both (a + a')
    and Jz and therefore commutes with the Hamiltonian exactly, truncation
    included (no Fock levels are mixed).
    """
    atom_flip = np.array([[0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0]])
    field_signs = np.diag((-1.0) ** np.arange(trunc.n_levels))
    return np.kron(field_signs, atom_flip)
