"""Numerically exact ground state, solved in the odd parity sector.

H commutes with the parity ``model.parity_operator``, and the ground state
lies in its odd sector (parity -1).  Each sector Hamiltonian is
pentadiagonal and about half the size of the full space, and is read only
in the LAPACK lower band storage ``model.sector_bands`` writes.  At one
truncation the two lowest odd-sector eigenvalues come from LAPACK's banded
eigenvalue solver dsbevx (eigenvalues only), and the ground vector from
inverse iteration with banded Cholesky solves; nothing dense is assembled.
That one eigensolve is all an accepted solve needs: the premise that the
even sector lies no lower is checked by one banded Cholesky factorisation
of the even band shifted just below E0, which exists exactly when every
even-sector eigenvalue lies above the shift.  The even sector's lowest
eigenvalue, and with it the splitting and the excited gap
min(E1_odd, E0_even) - E0, is solved only when a result is asked for them.

The Fock truncation is sized from alpha = g / omega_c, an upper bound on
the field displacement, and from the tolerance: n_max = alpha^2 +
8 sqrt(ell) alpha + 5 ell with ell = ln(tol) / ln(DEFAULT_TOL), at least 1,
so alpha^2 + 8 alpha + 5 at the default tol and at any looser one, and never
above alpha^2 + 8 alpha + 16 (``ground_state_chunks`` gives the reasons).
One solve there is accepted on its own truncation-error estimate: the
residual of the zero-padded ground vector in the untruncated H, in
Kato-Temple form (``ground_state_at``).  Only when the estimate exceeds the
tolerance is the truncation grown, by a quarter, up to ``N_MAX_CAP``, and
solved again.

A grid of couplings is solved a chunk of rows at a time
(``ground_state_chunks``): the rows' bands sit side by side in one band,
block diagonal because each keeps its zero corner, and parity-major, every
row's odd block before every row's even block (``model.sector_bands``).
The one Cholesky factorisation runs on the whole stack; each solve and the
band product run on the odd prefix alone, once per chunk, and do each row's
arithmetic as on that row alone.  A run of rows with one truncation is a
(rows, size) view of the prefix, so each norm over a run is one
``model.row_dots``.  dsbevx is the one LAPACK call per row, and the shift
and its step count the one scalar arithmetic.  A solve's rows reach the
caller as one record, ``GroundStateChunk``.  ``ground_state`` is the grid of one.

This is the one module of the package that uses scipy, and of scipy only
its LAPACK and BLAS extension modules and, for ``brentq``, scipy.optimize's
``_zeros``, which it loads from their files without running the scipy
package's code (``_scipy_extension``).  Nothing imports it eagerly: the
package loads it on first access, and the command line with the first row
that needs the exact stage, so the approximate routes run without scipy.
The state type it returns, ``JointState``, and ``DEFAULT_TOL`` live in
``model``, which needs no scipy.
"""

from __future__ import annotations

import bisect
import importlib.machinery
import importlib.util
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import (
    DEFAULT_TOL,
    FockTruncation,
    JointState,
    ModelParams,
    row_dots,
    sd_slot,
    sector_bands,
    sector_hamiltonian,
    sector_size,
)

INVERSE_ITERATIONS = 2  # the fewest; a small gap takes more, see _solve_chunk
LEFTOVER = 1e-8  # the largest share of the next eigenvector inverse iteration leaves
N_MAX_CAP = 4096  # largest Fock truncation ground_state tries; a chunk holds one such solve
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


def _scipy_extension_file(subpackage: str, name: str) -> str | None:
    """The file of the extension module ``name`` of ``scipy.<subpackage>``, or
    None if it is not in the scipy package's directories.  ``find_spec`` runs
    no package code."""
    spec = importlib.util.find_spec("scipy")
    for location in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, subpackage, name + suffix)
            if os.path.isfile(path):
                return path
    return None


def _scipy_extension(subpackage: str, name: str):
    """The extension module ``name`` of ``scipy.<subpackage>``: ``_flapack`` and
    ``_fblas`` of ``linalg``, ``_zeros`` of ``optimize``.

    It is loaded from its file under its own name,
    ``scipy.<subpackage>.<name>``, without running ``scipy/__init__`` or the
    subpackage's ``__init__``, which take some 28 MB for ``linalg`` and 49 MB
    for ``optimize`` (it imports ``linalg``), and most of a short command's
    start-up.  A later ``import scipy.<subpackage>`` finds it in
    ``sys.modules`` and binds the same module.  Where the file is not found
    (an editable scipy keeps its extensions in a build directory) or does not
    load on its own (a shared library that scipy's package code puts on the
    search path), the module is taken from ``import scipy.<subpackage>``: the
    same routines either way.
    """
    qualified = f"scipy.{subpackage}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    path = _scipy_extension_file(subpackage, name)
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(qualified, path)
        spec = importlib.util.spec_from_file_location(qualified, path, loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
        except ImportError:
            pass
        else:
            loader.exec_module(module)
            sys.modules[qualified] = module
            return module
    return importlib.import_module(qualified)  # runs scipy's package code


# The LAPACK routine and tolerance scipy.linalg.eig_banded uses for
# selected eigenvalues, bound once: its Python-side checks add about 25 us
# a call, some 40% of a solve on the small bands of the paper's window.
# The Cholesky routines and the band product are bound once too.  They are
# the objects scipy.linalg.get_lapack_funcs and get_blas_funcs return.
_flapack, _fblas = _scipy_extension("linalg", "_flapack"), _scipy_extension("linalg", "_fblas")
_SBEVX = _flapack.dsbevx
_ABSTOL = 2.0 * _flapack.dlamch("s")
_PBTRF, _PBTRS = _flapack.dpbtrf, _flapack.dpbtrs
_SBMV = _fblas.dsbmv


def brentq(f, a: float, b: float, xtol: float) -> float:
    """``scipy.optimize.brentq(f, a, b, xtol=xtol)``, bit for bit, without
    loading scipy.optimize: its C routine ``_zeros._brentq`` at the wrapper's
    defaults, rtol 4 eps and 100 iterations.  As with the wrapper, a NaN
    value of ``f`` raises ValueError, ends of one sign raise ValueError, and a
    search not converged in 100 iterations raises RuntimeError.  ``xtol``
    must be positive; this does not check it."""

    def checked(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    zeros = _scipy_extension("optimize", "_zeros")
    return zeros._brentq(checked, a, b, xtol, 4.0 * sys.float_info.epsilon, 100, (), False, True)


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


def _band_scale(omega_a: float, omega_c: float, g: float, n_max: int) -> float:
    """The largest entry of the odd band at n_max, every entry being >= 0: the
    largest of omega_c * n_max on the diagonal, omega_a, and g * sqrt(n_max)
    on the coupling into the top level (the one out of it is the zero corner)."""
    return max(omega_c * n_max, omega_a, g * math.sqrt(n_max))


def _identity(band: np.ndarray, first: int, stop: int) -> None:
    """Overwrite the block of columns first:stop of a band in lower storage with the identity."""
    band[0, first:stop] = 1.0
    band[1:, first:stop] = 0.0


def _cholesky(band: np.ndarray, bounds: list[int]) -> list[tuple[int, int]]:
    """Factor a stacked band (``model.sector_bands``) in place by banded Cholesky.

    The band is block diagonal, so dpbtrf factors each row's block as it
    would that block alone.  Where a block is not positive definite, dpbtrf
    stops in it: that block becomes the identity, so that later solves on the
    stack stay finite, and the blocks after it, which dpbtrf has not touched,
    are factored again.  Returns (block, info) for each failed block, info
    being what dpbtrf reports on that block alone.
    """
    failed, start = [], 0
    while start < band.shape[1]:
        info = _PBTRF(band[:, start:] if start else band, lower=1, overwrite_ab=1)[1]
        if info <= 0:
            break
        column = start + info - 1
        block = bisect.bisect_right(bounds, column) - 1
        first, start = bounds[block], bounds[block + 1]
        failed.append((block, column - first + 1))
        _identity(band, first, start)
    return failed


class GroundStateChunk(NamedTuple):
    """The rows of one stacked solve: the exact stage's one row record.

    ``_solve_chunk`` returns it with every row it solved, ``rows`` being
    their positions in its lists; ``ground_state_chunks`` yields it with the
    rows it accepted, ``rows`` being their grid indices, and the per-row
    sequences hold the values at ``rows`` in that order.  ``ROW_VALUES``
    names the values of a row, which a caller copies by name.  Row i's ground
    vector starts at ``vectors[starts[i]]``; ``vectors`` is the odd prefix of
    the chunk's stack.  ``errors`` (the rows that failed for good) is keyed
    as ``rows`` are, and so is ``even_below`` (the rows whose even sector does
    not lie above E0, with its lowest eigenvalue), which only ``_solve_chunk``'s
    record carries: ``ground_state_chunks`` yields it empty.  A solve that
    raised leaves the record of its one row's error, with no rows.
    """

    errors: dict[int, Exception]
    even_below: dict[int, float]
    rows: Sequence[int] = ()
    energy: Sequence[float] = ()
    n_max: Sequence[int] = ()
    residual: Sequence[float] = ()         # ||H v - E v||_2 at n_max
    convergence_gap: Sequence[float] = ()  # r^2 / (E1_odd - E0), see ground_state_at
    odd_excited: Sequence[float] = ()      # E1_odd
    starts: Sequence[int] = ()             # where each row's vector starts in ``vectors``
    vectors: np.ndarray = np.empty(0)

    ROW_VALUES = ("energy", "n_max", "residual", "convergence_gap", "odd_excited")

    def result(self, params: ModelParams) -> GroundStateResult:
        """The ``GroundStateResult`` of a chunk of the one row ``params``; its error is raised."""
        if self.errors:
            raise self.errors[0]
        state = JointState(self.vectors[: sector_size(self.n_max[0], True)])
        return GroundStateResult(self.energy[0], state, self.convergence_gap[0], self.residual[0],
                                 self.odd_excited[0], params)  # fmt: skip


def _solve_chunk(omega_a: float, omega_c: float, g: list, n_max: list[int]) -> GroundStateChunk:
    """The lowest odd-sector eigenpair of each row (g[k], n_max[k]), as one ``GroundStateChunk``.

    Per row, dsbevx gives E0 and E1_odd on the row's odd block.  Inverse
    iteration then shifts the block 1e-10 of its largest entry below E0, or
    1e-5 of the gap E1_odd - E0 where that is less, but at least
    SHIFT_FLOOR of it, more than E0's rounding error.  So H - shift is
    positive definite and never exactly singular (at g = 0, E0 = -omega_a is
    exact).  Each solve damps the next eigenvector against the lowest by
    offset / (gap + offset); a row takes INVERSE_ITERATIONS solves, or more
    until that leaves at most LEFTOVER of it, and then keeps its vector.
    Each right-hand side is taken in ``_unit`` of the largest entry.  If
    the Cholesky factorisation fails, the shift is not below the spectrum,
    so E0 is not the lowest: LinAlgError.

    The stack is parity-major: block k is row k's odd block and block
    count + k its even one, shifted to sigma = E0 - 1e-12 (|E0| + 1).  The
    one dpbtrf of the stack that factors the odd blocks for inverse
    iteration fails on an even block exactly when that sector has an
    eigenvalue at or below sigma (``even_below``, with the sector's lowest
    eigenvalue for the message).  The even blocks are factored for that
    certificate alone and never solved.

    So the shifted copy of the band is factored once, and each step is one
    dpbtrs and the residuals one dsbmv, on the odd prefix; dsbevx is the one
    LAPACK call per row, and the gap guard and the shift the one scalar
    arithmetic.  Each run of rows with one n_max (``SectorBands.runs``) is a
    (rows, size) view of the prefix, and its norms, of each step's vectors
    and of the residuals, are one ``row_dots`` each.  The stack is block
    diagonal, so each row gets the numbers it would get alone, bit for bit,
    and a row that fails (``errors``) leaves its neighbours' alone.  Where
    omega_c * n_max or g * sqrt(n_max + 1), the coupling out of the top level,
    would overflow at a row, RuntimeError is raised before the band is
    written, so under any warning filter; the error of a chunk of one names its row.
    A row whose E0 or E1_odd is not finite, or whose largest entry would
    overflow in the copy shifted to E0, fails alone with a RuntimeError,
    before that copy is written.
    """
    count, top, strongest = len(g), max(n_max), max(g)
    if not math.isfinite(max(omega_c * top, strongest * math.sqrt(top + 1))):
        raise RuntimeError(
            f"Hamiltonian band overflows at n_max={top}: omega_c * n_max or g * sqrt(n_max + 1) "
            f"exceeds the float range (omega_a={omega_a}, omega_c={omega_c}, g={strongest})"
        )
    stack = sector_bands(omega_a, omega_c, g, n_max, (True, False))
    band, bounds, sizes = stack.band, stack.bounds, stack.sizes
    odd, odd_sizes = bounds[count], sizes[:count]  # the odd prefix, its blocks' sizes
    errors: dict[int, Exception] = {}
    energy, odd_1, shift, sigma, unit, steps = [], [], [], [], [], []  # per row

    def where(k):  # row k's point, formatted only for an error
        return f"(omega_a={omega_a}, omega_c={omega_c}, g={g[k]})"

    for k in range(count):
        scale = _band_scale(omega_a, omega_c, g[k], n_max[k])
        try:
            e0, e1 = _lowest_eigenvalues(band[:, bounds[k] : bounds[k + 1]], 2).tolist()
        except np.linalg.LinAlgError as exc:
            errors[k], e0, e1 = exc, 0.0, math.inf
        else:
            gap = e1 - e0
            if not math.isfinite(gap):  # E0 or E1_odd past the float range
                errors[k] = RuntimeError(
                    f"odd-sector spectrum overflows at n_max={n_max[k]}: E0 = {e0:.3e}, "
                    f"E1_odd = {e1:.3e} {where(k)}"
                )
            elif gap <= (COUPLED_GAP if g[k] else DECOUPLED_GAP) * scale:
                errors[k] = RuntimeError(
                    f"odd-sector gap {gap:.3e} is too small to resolve the ground vector "
                    f"at n_max={n_max[k]} {where(k)}"
                )
            else:
                offset = max(min(1e-10 * scale, 1e-5 * gap), SHIFT_FLOOR * scale)
                row_shift, row_sigma = e0 - offset, e0 - 1e-12 * (abs(e0) + 1.0)
                if not math.isfinite(scale - min(row_shift, row_sigma)):  # the shifted diagonal
                    errors[k] = RuntimeError(
                        f"Hamiltonian band overflows at n_max={n_max[k]}: omega_c * n_max or "
                        f"g * sqrt(n_max + 1), shifted by E0 = {e0:.3e}, exceeds the float "
                        f"range {where(k)}"
                    )
        if k in errors:  # both blocks become the identity below
            e0 = 0.0
            shift.append(0.0)
            sigma.append(0.0)
            unit.append(1.0)
            steps.append(0)
        else:
            shift.append(row_shift)
            sigma.append(row_sigma)
            unit.append(_unit(scale))
            damping = math.log(offset / (gap + offset))
            steps.append(max(INVERSE_ITERATIONS, math.ceil(math.log(LEFTOVER) / damping)))
        energy.append(e0)
        odd_1.append(e1)
    factor = band.copy(order="F")
    factor[0] -= np.array(shift + sigma).repeat(sizes)
    for k in errors:  # the identity, factored as itself
        for block in (k, count + k):
            _identity(factor, bounds[block], bounds[block + 1])
    even_below = {}
    for block, info in _cholesky(factor, bounds):
        even, k = divmod(block, count)  # block k is row k's odd block, count + k its even one
        if even:
            lowest = _lowest_eigenvalues(band[:, bounds[block] : bounds[block + 1]], 1)
            even_below[k] = float(lowest[0])
        else:
            msg = f"H - shift is not positive definite: {energy[k]} is not the lowest eigenvalue"
            errors[k] = np.linalg.LinAlgError(f"{msg} (dpbtrf info={info})")
            steps[k] = 0
    # the solves need only the odd prefix, factored by the one dpbtrf above;
    # right-hand sides in _unit of each block, from the Perron-Frobenius start
    # (see ground_state_at)
    factor, band = factor[:, :odd], band[:, :odd]
    units = np.array(unit).repeat(odd_sizes)
    spans = [(bounds[first], bounds[stop], stop - first) for first, stop in stack.runs]
    vec = stack.start[:odd]
    for step in range(max(steps)):
        solved = _PBTRS(factor, vec * units, lower=1, overwrite_b=1)[0]
        for a, b, rows in spans:  # rows past their own steps are restored below
            part = solved[a:b].reshape(rows, -1)
            norm = row_dots(part, part)
            part /= np.sqrt(norm, out=norm)[:, None]
        if step and step >= min(steps):  # a row that has taken its own steps keeps its vector
            np.copyto(solved, vec, where=(np.array(steps) <= step).repeat(odd_sizes))
        vec = solved
    residue = _SBMV(2, 1.0, band, vec, lower=1)
    residue -= np.array(energy).repeat(odd_sizes) * vec
    residue /= units
    for k in errors:  # no residual, and no square to overflow in its run's sums
        residue[bounds[k] : bounds[k + 1]] = 0.0
    squares = []  # ||residue||^2 of each row
    for a, b, rows in spans:
        part = residue[a:b].reshape(rows, -1)
        squares += row_dots(part, part).tolist()
    estimate, residual = [], []
    for k in range(count):
        if k in errors:
            estimate.append(math.inf)
            residual.append(math.nan)
            continue
        leak = g[k] * math.sqrt(n_max[k] + 1) * abs(float(vec[bounds[k] + sd_slot(n_max[k])]))
        estimate.append(leak * (leak / (odd_1[k] - energy[k])))
        residual.append(unit[k] * math.sqrt(squares[k]))
    return GroundStateChunk(errors, even_below, range(count), energy, n_max, residual, estimate,
                            odd_1, bounds[:count], vec)  # fmt: skip


def ground_state_at(params: ModelParams, n_max: int) -> GroundStateResult:
    """Lowest eigenpair at one truncation, solved in the odd parity sector.

    The two lowest odd-sector eigenvalues come from dsbevx, the ground vector
    from inverse iteration (``_solve_chunk``) started from the
    Perron-Frobenius signs: the sector couplings form a tree (a chain of S/D
    vectors with a |0> leaf on each S), and every coupling is >= 0.  Flipping
    signs by depth in the tree makes them <= 0 (+1 on S_n, -1 on |0>_n and
    D_n at odd n), so the ground vector's components carry exactly these
    signs, and the start cannot be orthogonal to it, at g = 0 too.

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
    return _solve_chunk(params.omega_a, params.omega_c, [params.g], [n_max]).result(params)


def ground_state_chunks(omega_a: float, omega_c: float, g: list[float], tol: float):
    """The ground state at each coupling of the list ``g``, as ``ground_state``
    finds it, one chunk of rows at a time: an iterator of ``GroundStateChunk``.

    Each row starts at its own sized truncation.  A chunk is the pending
    rows, lowest first, whose odd sectors fit together in one solve at
    ``N_MAX_CAP``, so a chunk holds no more than one capped solve does.  Its
    rows are solved at once (``_solve_chunk``), which also certifies their
    even sectors.  A row whose estimate is not below ``tol`` goes back to the
    pending rows at a quarter more levels, or fails at the cap; it fails at
    once if the estimate on its grown truncation is not below half the one
    before, because the estimate has met its rounding floor there and more
    levels will not lower it (at omega_c = g = 1e40, say).  Each chunk
    is yielded with the rows it settled, and dropped before the next one is
    solved.  If a chunk's solve raises (a band that would overflow, or a
    numpy warning that a filter makes an error), its rows are solved again
    one at a time, so that the exception fails its own row alone.  So each
    row is settled as in a grid of its own, whatever the other rows do.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    limit = sector_size(N_MAX_CAP, True)
    # The estimate is g^2 (N + 1) v_N^2 / gap, and v_N^2 follows the
    # Poisson(alpha^2) weight at N, whose normal tail falls to tol at
    # 1.18 alpha sqrt(2 ln(1/tol)) = 8 sqrt(ell) alpha levels past alpha^2, with
    # ell = ln(tol) / ln(DEFAULT_TOL).  The constant covers small alpha and keeps
    # n_max >= 5: the level -omega_a + 2 omega_c stays in the odd band, so the
    # gap guard and the estimate see the true E1_odd.  A looser tol is sized as
    # the default: the even-sector certificate's margin, 1e-12 (|E0| + 1), does
    # not grow with tol, and a smaller truncation could fail it falsely.
    ell = math.log(min(tol, DEFAULT_TOL)) / math.log(DEFAULT_TOL)  # 1 at the default tol
    slope, constant = 8.0 * math.sqrt(ell), 5.0 * ell
    pending = []  # (row, n_max, the estimate on its last truncation or None), lowest row first
    for k, g_k in enumerate(g):
        alpha = g_k / omega_c  # bounds the field displacement
        tail = min(slope * alpha + constant, 8.0 * alpha + 16.0)
        pending.append((k, math.ceil(min(alpha * alpha + tail, N_MAX_CAP)), None))
    alone = set()  # rows of a chunk that raised as a whole, solved one at a time
    while pending:
        count, total = 0, 0
        for k, n, _ in pending:
            total += sector_size(n, True)
            if count and (total > limit or k in alone):
                break
            count += 1
            if k in alone:
                break
        rows, n_max, previous = zip(*pending[:count])
        del pending[:count]
        try:
            solve = _solve_chunk(omega_a, omega_c, [g[k] for k in rows], list(n_max))
        except Exception as exc:  # a warning made an error, say: it is one row's
            if count > 1:
                alone.update(rows)
                pending = sorted([*zip(rows, n_max, previous), *pending])
                continue
            solve = GroundStateChunk({0: exc}, {})
        errors, accepted, retry = {}, [], []
        for i, (k, n, before) in enumerate(zip(rows, n_max, previous)):
            if i in solve.errors:
                errors[k] = solve.errors[i]
            elif not solve.convergence_gap[i] < tol:
                estimate = solve.convergence_gap[i]
                if before is not None and estimate >= 0.5 * before:
                    errors[k] = RuntimeError(
                        f"ground state error estimate stalls at n_max={n}: {estimate:.3e} is "
                        f"not below half of {before:.3e} on the truncation before, a rounding "
                        f"floor; the smallest --tol this point can meet is above "
                        f"{min(estimate, before):.3e} (omega_a={omega_a}, omega_c={omega_c}, "
                        f"g={g[k]})"
                    )
                elif n < N_MAX_CAP:
                    retry.append((k, min(math.ceil(1.25 * n), N_MAX_CAP), estimate))
                else:
                    errors[k] = RuntimeError(
                        f"ground state not converged to {tol:g} by n_max={N_MAX_CAP} "
                        f"(omega_a={omega_a}, omega_c={omega_c}, g={g[k]})"
                    )
            elif i in solve.even_below:
                splitting = solve.even_below[i] - solve.energy[i]
                errors[k] = RuntimeError(
                    f"even-sector ground energy lies {-splitting:.3e} below "
                    f"the odd-sector one at n_max={n} (omega_a={omega_a}, "
                    f"omega_c={omega_c}, g={g[k]})"
                )
            else:
                accepted.append(i)
        if retry:
            pending = sorted(retry + pending)
        if accepted or errors:  # the settled rows, by their grid rows
            subset = {} if len(accepted) == count else {
                name: [getattr(solve, name)[i] for i in accepted]
                for name in (*solve.ROW_VALUES, "starts")
            }  # fmt: skip
            yield solve._replace(
                errors=errors, even_below={}, rows=[rows[i] for i in accepted], **subset
            )
        del solve  # the chunk's vectors go with the chunk


def ground_state(params: ModelParams, tol: float = DEFAULT_TOL) -> GroundStateResult:
    """Ground state on a truncation sized from g/omega_c, accepted on its own error estimate.

    alpha = g / omega_c bounds the field displacement, so the first solve
    is at n_max = alpha^2 + 8 sqrt(ell) alpha + 5 ell, ell being
    ln(tol) / ln(DEFAULT_TOL) and at least 1: alpha^2 + 8 alpha + 5 at the
    default tol and any looser one, at most alpha^2 + 8 alpha + 16 and
    ``N_MAX_CAP``.  The truncation grows by a quarter until
    the estimate of ``ground_state_at`` is below ``tol``, a positive absolute
    energy tolerance in the units of ``params``.  Raises RuntimeError if the
    cap is reached without that, which signals pathological parameters
    rather than a tight tolerance, if a grown truncation does not halve the
    estimate (its rounding floor, which the message gives as the smallest
    tolerance that can be met), and if the accepted even-sector ground
    energy lies more than 1e-12 (|E0| + 1) below the odd-sector one, which
    would break the premise that the ground state is odd.  It is
    ``ground_state_chunks`` of one row.
    """
    (chunk,) = ground_state_chunks(params.omega_a, params.omega_c, [params.g], tol)
    return chunk.result(params)
