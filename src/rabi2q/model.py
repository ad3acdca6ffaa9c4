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
(``sector_slices``).  States are held in the odd-sector basis, as
``JointState``; this module and the types in it need nothing but numpy.

The product ordering serves ``build_hamiltonian``, ``parity_operator`` and
``embed``: joint index = fock_index * 3 + atom_index, atom levels ordered
m = (+1, 0, -1) (eigenvalues of Jz).  There H is real symmetric and block
tridiagonal in the photon number (total bandwidth 5).
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

SQRT2 = math.sqrt(2.0)

ATOM_DIM = 3

COHERENT_DEFICIT_TOL = 1e-12  # norm deficit above which a coherent state warns
DEFAULT_TOL = 1e-10  # exact.ground_state's absolute energy tolerance


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


def sector_size(n_max: int, odd: bool) -> int:
    """Dimension of the odd (parity -1) or the even sector of the truncation ``n_max``."""
    return (3 * n_max + 3 + odd) // 2


def sd_slot(n):
    """Where level n's S_n (even n) or D_n (odd n) amplitude sits in an odd-sector
    vector (``sector_slices``), for an int or an int array n."""
    return (3 * n + n % 2) // 2


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i].dot(b[i]) for each row i of two (rows, size) arrays, strided or not,
    bit for bit: one stacked matmul, which numpy takes as each row's own ddot
    (einsum or add.reduceat would sum in another order).  One row is that
    ddot itself, without the stacked matmul's setup."""
    if len(a) == 1:
        return a[0].dot(b[0])[None]
    return np.matmul(a[:, None, :], b[:, :, None]).ravel()


def embed(vec: np.ndarray, n_max: int, odd: bool) -> np.ndarray:
    """Map a sector vector to the full product basis (an isometry)."""
    s, z, d = sector_slices(odd)
    paired, single = slice(1 - odd, None, 2), slice(odd, None, 2)  # levels with S or with D
    full = np.zeros((n_max + 1, ATOM_DIM))
    full[paired, 0] = full[paired, 2] = vec[s] / SQRT2  # on |+1> and on |-1>
    full[paired, 1] = vec[z]
    full[single, 0], full[single, 2] = vec[d] / SQRT2, -vec[d] / SQRT2
    return full.ravel()


@dataclass(frozen=True, eq=False)
class JointState:
    """Real unit vector in the odd parity sector, laid out as ``sector_slices`` says."""

    amplitudes: np.ndarray

    @property
    def n_max(self) -> int:
        return 2 * self.amplitudes.size // 3 - 1  # inverts sector_size

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The product-basis view, signed so its largest-magnitude coefficient
        is positive (a global sign carries no physics)."""
        vec = embed(self.amplitudes, self.n_max, odd=True)
        k = int(np.argmax(np.abs(vec)))
        return -vec if vec[k] < 0 else vec


def make_state(amplitudes: np.ndarray, n_max: int) -> JointState:
    """Normalize odd-sector amplitudes and wrap them as a JointState."""
    size = sector_size(n_max, odd=True)
    vec = np.asarray(amplitudes, dtype=float)
    if vec.shape != (size,):
        raise ValueError(f"expected length {size} for n_max={n_max}, got {vec.shape}")
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise ValueError("zero vector cannot be a state")
    return JointState(vec / nrm)


def fidelity(a: JointState, b: JointState) -> float:
    """|<a, b>|; global sign is unphysical.  Both states must share n_max."""
    if a.n_max != b.n_max:
        raise ValueError(f"states live on different truncations ({a.n_max} vs {b.n_max})")
    return float(abs(a.amplitudes @ b.amplitudes))


# One pattern per parity, built up to the largest n_max asked for so far: a
# smaller truncation is its leading rows, since the sector is ordered by n.
# It depends on nothing else, so every caller may share it.
_PATTERNS: dict[bool, np.ndarray] = {}


def sector_pattern(n_max: int, odd: bool) -> np.ndarray:
    """The parameter-free part of the odd or the even sector's band, one row
    per sector vector: the shared (size, 3) pattern in C order, built up to
    at least ``n_max``, whose leading sector_size rows are those of the
    truncation n_max.

    Column 0 is the vector's photon number n, the band's diagonal over
    omega_c; columns 1 and 2 are its band rows 1 and 2 over g, sqrt(n + 1)
    on the coupling from S_n or D_n to level n + 1 and 0 elsewhere (band
    row 1 is omega_a on S_n, which the pattern leaves 0).  It holds the band
    alone: inverse iteration's start is ``exact._solve_chunk``'s own.
    """
    size = sector_size(n_max, odd)
    pattern = _PATTERNS.get(odd)
    if pattern is None or len(pattern) < size:
        s, z, d = sector_slices(odd)
        n = np.arange(n_max + 1)
        paired, single = slice(1 - odd, None, 2), slice(odd, None, 2)  # levels with S or with D
        pattern = np.zeros((size, 3))
        pattern[s, 0] = pattern[z, 0] = n[paired]
        pattern[d, 0] = n[single]
        root = np.sqrt(n + 1.0)
        pattern[d, 1] = root[single]
        pattern[s, 2] = root[paired]
        _PATTERNS[odd] = pattern
    return pattern


def runs(n_max) -> list[tuple[int, int]]:
    """(first, stop) of each run of consecutive rows with one n_max.  A caller
    holding the rows' odd-sector vectors in a stack gathers a run's as one
    (rows, size) array at their starts (``entangle.negativity_stacked``,
    ``variational.trial_fidelities``); only ``exact._solve_chunk``, whose
    runs lie end to end, reshapes a slice."""
    count = len(n_max)
    edges = [i for i in range(1, count) if n_max[i] != n_max[i - 1]]
    return list(zip([0, *edges], [*edges, count])) if count else []


class SectorBands(NamedTuple):
    """Sector bands of several rows side by side (``sector_bands``)."""

    band: np.ndarray   # (3, total), Fortran order
    bounds: list[int]  # block b holds the columns bounds[b]:bounds[b + 1]
    sizes: np.ndarray  # the sector_size of each block
    runs: list[tuple[int, int]]  # the runs of rows with one n_max (``runs``)


def sector_bands(
    omega_a: float, omega_c: float, g, n_max, parities: tuple[bool, ...]
) -> SectorBands:
    """The bands ``sector_hamiltonian`` writes for the couplings ``g[k]`` at the
    truncations ``n_max[k]``, one block per row and parity in ``parities``
    (odd is True), side by side in one band, bit for bit.

    The stack is parity-major: the blocks of ``parities[0]``, one per row,
    then those of the next parity.  With rows k < count, block
    ``p * count + k`` is row k's block of ``parities[p]``, so the blocks of
    one parity are a prefix or a suffix of the band.  Each run of rows with
    one n_max (``runs``) is written at once, a (rows, size, 3) view of the
    band scaled from the same slice of ``sector_pattern``.  Each block keeps
    its zero corner, so the stacked band is block diagonal: the LAPACK band
    routines treat it one block at a time, with the arithmetic they do on
    that block alone.
    """
    count = len(g)
    sizes = [sector_size(n, odd) for odd in parities for n in n_max]
    bounds = [0, *itertools.accumulate(sizes)]
    band = np.empty((3, bounds[-1]), order="F")
    columns = band.T  # C order: (columns, 3), and a run's blocks are (rows, size, 3)
    scale = np.empty((count, 1, 3))  # (omega_c, g, g) per row, over the pattern's columns
    scale[:, 0, 0] = omega_c
    scale[:, 0, 1] = g
    scale[:, 0, 2] = scale[:, 0, 1]
    top = max(n_max)
    row_runs = runs(n_max)
    for p, odd in enumerate(parities):
        pattern = sector_pattern(top, odd)
        for first, stop in row_runs:
            n = n_max[first]
            size = sector_size(n, odd)
            at = slice(bounds[p * count + first], bounds[p * count + stop])
            blocks = columns[at].reshape(stop - first, size, 3)
            np.multiply(pattern[:size], scale[first:stop], out=blocks)
            # A pattern built past n_max couples each top level on: that corner is
            # the last D_n's coupling one slot on, or else the last S_n's two slots on.
            if n % 2 == odd:
                blocks[:, -1, 1] = 0.0
            else:
                blocks[:, -2, 2] = 0.0
            blocks[:, 1 - odd :: 3, 1] = omega_a  # on every S_n (sector_slices)
    return SectorBands(band, bounds, np.array(sizes), row_runs)


def sector_hamiltonian(params: ModelParams, trunc: FockTruncation, odd: bool) -> np.ndarray:
    """H restricted to one parity sector, in LAPACK lower band storage.

    The band is (3, sector_size): ``band[k, j]`` is the matrix element between
    sector vectors j + k and j.  That is omega_c * n on the diagonal, omega_a
    from S_n to |0>_n, and g * sqrt(n + 1) from S_n to D_(n+1), two slots on,
    and from D_n to S_(n+1), one slot on.  The corner entries past the last
    vector are 0.  The band is scaled from ``sector_pattern``; it is
    ``sector_bands`` of one row.
    """
    return sector_bands(params.omega_a, params.omega_c, [params.g], [trunc.n_max], (odd,)).band


def coherent_state_vector(amplitude: float, trunc: FockTruncation) -> np.ndarray:
    """Fock components exp(-amplitude^2/2) * amplitude^n / sqrt(n!), n = 0..n_max.

    The vector is deliberately not renormalized, so the truncation error is
    visible as a norm deficit 1 - <v, v>.  A FockTruncationWarning reporting
    that deficit is emitted when it exceeds ``COHERENT_DEFICIT_TOL``.  The
    components are ``coherent_state_rows`` of one row.
    """
    v = coherent_state_rows(np.array([amplitude], dtype=float), np.array([trunc.n_max]))[0]
    deficit = 1.0 - float(v @ v)
    if deficit > COHERENT_DEFICIT_TOL:
        message = lost_norm(amplitude, trunc.n_max, deficit)
        warnings.warn(message, FockTruncationWarning, stacklevel=2)
    return v


def lost_norm(amplitude: float, n_max: int, deficit: float) -> str:
    """The message of a coherent state's FockTruncationWarning."""
    return f"coherent state amplitude={amplitude} loses norm {deficit:.3e} at n_max={n_max}"


def coherent_state_rows(amplitudes: np.ndarray, n_max: np.ndarray) -> np.ndarray:
    """The Fock components of coherent states, one row per amplitude, each up to
    its own n_max and zero past it (``coherent_state_vector`` without its warning).

    Each row's magnitudes run from one anchor level n0 by the ratios
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
    magnitude below the peak.  A row's ratios are 1 outside its own runs, so
    the products along a row are those of that row alone, bit for bit.
    """
    a = np.abs(amplitudes)
    a2 = a * a
    anchors = np.array(list(map(math.exp, (-a2 / 2.0).tolist())))  # libm's exp, as for a float
    peaks = np.zeros(a.shape, dtype=int)
    for i in np.flatnonzero(~(anchors >= sys.float_info.min)).tolist():  # |amplitude| > ~37.6
        amp2 = a2[i].item()
        n0 = peaks[i] = min(round(amp2), n_max[i].item())
        if n0:
            anchors[i] = math.exp(
                0.5 * (n0 - amp2) - 0.5 * n0 * math.log1p((n0 - amp2) / amp2)
                - 0.25 * math.log(2.0 * math.pi * n0) - 1.0 / (24.0 * n0) + 1.0 / (720.0 * n0**3)
            )
    levels = np.arange(n_max.max() + 1)
    peak, top, a = peaks[:, None], n_max[:, None], a[:, None]
    # at level 0, or at an amplitude of 0 or so small that it overflows: unused
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        up = np.where((peak < levels) & (levels <= top), a / np.sqrt(levels), 1.0)
        down = np.where(levels < peak, np.sqrt(levels + 1) / a, 1.0)
    v = anchors[:, None] * np.cumprod(up, axis=1)
    v *= np.cumprod(down[:, ::-1], axis=1)[:, ::-1]
    v[top < levels] = 0.0
    v[amplitudes < 0, 1::2] *= -1.0
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
