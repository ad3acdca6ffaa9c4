"""Operators and Hamiltonian for two identical qubits coupled to one field mode.

The two qubits enter only through their symmetric (spin-1) subspace; the
antisymmetric singlet does not couple to the field and is not represented.
The model is

    H = omega_a * Jx  +  omega_c * a'a  +  g * (a + a') * Jz

with Jx, Jz the spin-1 angular momentum matrices and a the field
annihilation operator on a truncated Fock space.

H commutes with the parity ``parity_operator``, so it splits into two
sectors.  In the atom basis S = (|+1> + |-1>)/sqrt2, |0>, D = (|+1> - |-1>)/sqrt2
(Jx couples only S and |0>, Jz swaps S and D), the odd sector (parity -1,
which holds the ground state) keeps S_n, |0>_n at even n and D_n at odd n;
the even sector keeps the rest.  Ordered by photon number, S before |0>,
each sector Hamiltonian is pentadiagonal (``sector_hamiltonian``), and a
sector vector's S, |0> and D amplitudes are three strided slices
(``sector_slices``).  States are held in the odd-sector basis.

The product ordering serves ``build_hamiltonian``, ``parity_operator`` and
``embed``: joint index = fock_index * 3 + atom_index, atom levels ordered
m = (+1, 0, -1) (eigenvalues of Jz).  There H is real symmetric and block
tridiagonal in the photon number (total bandwidth 5).
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
    """Physical parameters (hbar = 1): qubit splitting, field frequency, coupling.

    ``g`` may also be an array of couplings, a grid at one omega_c; the closed
    forms of ``variational``, ``transform`` and ``entangle`` then give arrays.
    """

    omega_a: float
    omega_c: float
    g: float | np.ndarray

    def __post_init__(self) -> None:
        grid = isinstance(self.g, np.ndarray)  # numpy's checks cost microseconds on a float
        for name in ("omega_a", "omega_c", "g"):
            value = getattr(self, name)
            if not (np.isfinite(value).all() if name == "g" and grid else math.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.omega_a <= 0:
            raise ValueError(f"omega_a must be positive, got {self.omega_a}")
        if self.omega_c <= 0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if (self.g < 0).any() if grid else self.g < 0:
            raise ValueError(f"g must be non-negative, got {self.g}")


def elementwise(fn, *args):
    """``fn`` of floats (``math.exp``, ``math.hypot``, ``pow``) over arrays of one
    shape, element by element; floats give a float.

    numpy's SIMD exp, hypot and power differ from libm's by an ulp on a few
    percent of arguments, so a closed form evaluated through them on a grid would
    not match the same form evaluated at one point with ``math``.
    """
    if not isinstance(args[0], np.ndarray):
        return fn(*args)
    values = map(fn, *(a.ravel().tolist() for a in args))
    return np.fromiter(values, float, args[0].size).reshape(args[0].shape)[()]


@dataclass(frozen=True)
class FockTruncation:
    """Highest retained photon number."""

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    @property
    def n_levels(self) -> int:
        return self.n_max + 1


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


def sector_slices(odd: bool) -> tuple[slice, slice, slice]:
    """Slices of a sector vector holding its (S, |0>, D) amplitudes, each ordered by n:
    the odd sector runs S_0, |0>_0, D_1, S_2, ... and the even one D_0, S_1, |0>_1, ..."""
    return slice(1 - odd, None, 3), slice(2 - odd, None, 3), slice(2 * odd, None, 3)


def sector_size(trunc: FockTruncation, odd: bool) -> int:
    """Dimension of the odd (parity -1) or the even sector of ``trunc``."""
    return (3 * trunc.n_max + 3 + odd) // 2


def embed(vec: np.ndarray, n_max: int, odd: bool) -> np.ndarray:
    """Map a sector vector to the full product basis (an isometry)."""
    s, z, d = sector_slices(odd)
    paired, single = slice(1 - odd, None, 2), slice(odd, None, 2)  # levels with S or with D
    full = np.zeros((n_max + 1, ATOM_DIM))
    full[paired, 0] = full[paired, 2] = vec[s] / SQRT2  # on |+1> and on |-1>
    full[paired, 1] = vec[z]
    full[single, 0], full[single, 2] = vec[d] / SQRT2, -vec[d] / SQRT2
    return full.ravel()


def sector_hamiltonian(params: ModelParams, trunc: FockTruncation, odd: bool) -> np.ndarray:
    """H restricted to one parity sector, in LAPACK lower band storage.

    The band is (3, sector_size): ``band[k, j]`` is the matrix element between
    sector vectors j + k and j.  That is omega_c * n on the diagonal, omega_a
    from S_n to |0>_n, and g * sqrt(n + 1) from S_n to D_(n+1), two slots on,
    and from D_n to S_(n+1), one slot on.
    """
    s, z, d = sector_slices(odd)
    n = np.arange(trunc.n_levels)
    coupling = params.g * np.sqrt((n + 1) % trunc.n_levels)  # to level n + 1, none above n_max
    paired, single = slice(1 - odd, None, 2), slice(odd, None, 2)  # levels with S or with D
    band = np.zeros((3, sector_size(trunc, odd)))
    band[0, s] = band[0, z] = params.omega_c * n[paired]
    band[0, d] = params.omega_c * n[single]
    band[1, s] = params.omega_a
    band[1, d] = coupling[single]
    band[2, s] = coupling[paired]
    return band


def coherent_state_vector(amplitude: float, trunc: FockTruncation) -> np.ndarray:
    """Fock components exp(-amplitude^2/2) * amplitude^n / sqrt(n!), n = 0..n_max.

    The vector is deliberately not renormalized, so the truncation error is
    visible as a norm deficit 1 - <v, v>.  A FockTruncationWarning reporting
    that deficit is emitted when it exceeds ``COHERENT_DEFICIT_TOL``.

    The magnitudes run from one anchor level n0 by the ratios
    |amplitude| / sqrt(n) upwards and sqrt(n) / |amplitude| downwards, and
    the odd components are negated last when amplitude < 0.  The anchor is
    n0 = 0, v_0 = exp(-amplitude^2/2), while that is a normal float.  Past
    that (|amplitude| above about 37.6) it is the peak n0 = round(amplitude^2),
    or the top level if the truncation ends below the peak, so the work and
    memory stay O(n_levels).  With d = n0 - amplitude^2, Stirling's series
    for log(n0!) gives the peak anchor without cancellation:

        log v_n0 = d/2 - (n0/2) log1p(d / amplitude^2) - log(2 pi n0)/4
                   - 1/(24 n0) + 1/(720 n0^3)

    The next term, 1/(2520 n0^5), is below rounding for n0 >= 1400, and
    where a short truncation puts n0 lower, v_n0 is many orders of
    magnitude below the peak.
    """
    a = abs(amplitude)
    a2 = a * a
    v0 = math.exp(-a2 / 2.0)
    n0 = 0 if v0 >= sys.float_info.min else min(round(a2), trunc.n_max)
    v = np.empty(trunc.n_levels)
    if n0 == 0:
        v[0] = v0
    else:
        log_v = (
            0.5 * (n0 - a2) - 0.5 * n0 * math.log1p((n0 - a2) / a2)
            - 0.25 * math.log(2.0 * math.pi * n0) - 1.0 / (24.0 * n0) + 1.0 / (720.0 * n0**3)
        )
        v[n0] = math.exp(log_v)
    v[n0 + 1:] = v[n0] * np.cumprod(a / np.sqrt(np.arange(n0 + 1, trunc.n_levels)))
    v[:n0] = v[n0] * np.cumprod(np.sqrt(np.arange(n0, 0, -1)) / a)[::-1]
    if amplitude < 0:
        v[1::2] = -v[1::2]
    deficit = 1.0 - float(v @ v)
    if deficit > COHERENT_DEFICIT_TOL:
        warnings.warn(
            f"coherent state amplitude={amplitude} loses norm {deficit:.3e} "
            f"at n_max={trunc.n_max}",
            FockTruncationWarning,
            stacklevel=2,
        )
    return v


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
