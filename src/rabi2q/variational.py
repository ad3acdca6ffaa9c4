"""Coherent-state trial ground state and its two-parameter minimization.

The trial state is

    |psi(alpha, beta)> = (|alpha>|m=-1> + beta |0>|m=0> + |-alpha>|m=+1>) / N,

with |alpha> a real-amplitude coherent state and N^2 = 2 + beta^2.  Its
energy expectation has the closed form implemented by
``energy_expectation``.  With A = alpha^2 w_c - 2 alpha g and
B = sqrt2 w_a exp(-alpha^2/2), setting its beta derivative to zero gives
the quadratic B beta^2 + 2 A beta - 2 B = 0, whose lower root minimizes
<H> over beta.  That root is the m=0 weight lambda_- of the lowest level
of the displacement-transformed atom at chi = alpha
(``transform.dressed_levels``), so beta is taken from there.  Eliminating
beta leaves the one-dimensional profile

    E(alpha) = (A - R) / 2,      R = sqrt(A^2 + 2 B^2),

which is that level's energy eps_-.  Every minimum of E lies in [0, g/w_c],
where A <= 0.  There the stationarity condition dE/dalpha = 0, scaled by
the positive factor 2R/(R - A), reads

    f(alpha) = 2 (alpha w_c - g) + 2 alpha B^2 / (R - A) = 0,

which does not cancel, with f(0) = -2g < 0 and f(g/w_c) >= 0.  For
w_c below about 0.3 and a window of g, f has three zeros (two wells and the
barrier between them), so ``solve_grid`` samples f on a fixed grid,
root-finds every - to + sign change and keeps the root of lowest energy.
It does so for a whole grid of g at once: the scans form one array, and
``masked_brentq`` resolves every bracket of every coupling together, step for
step as scipy's ``brentq`` would one at a time (R. P. Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 4).  ``solve`` is a grid of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    COHERENT_DEFICIT_TOL,
    SQRT2,
    FockTruncation,
    FockTruncationWarning,
    JointState,
    ModelParams,
    coherent_state_rows,
    coherent_state_vector,
    lost_norm,
    make_state,
    sd_slot,
    sector_size,
    sector_slices,
)
from .transform import TransformSolution, dressed_levels

RESIDUAL_TOL = 1e-8
EQUIVALENCE_TOL = 1e-9  # relative, between eps_- and <H> at the returned point

# Where f is sampled, as fractions of g/omega_c.
_SCAN = np.linspace(0.0, 1.0, 33)
_SCAN_ROWS = 256  # couplings scanned per block

# the brentq settings transcribed: the xtol and rtol that ``solve`` gave it,
# and its default maxiter
_XTOL = _RTOL = 1e-15
_MAXITER = 100
_SWAP = np.array([1, 2, 1, 4, 5, 4])  # xpre, xcur, xblk = xcur, xblk, xcur, and so for f


@dataclass(frozen=True)
class VariationalSolution:
    """The minimizing trial state; each field is a float, or an array over a grid of g."""

    alpha: float
    energy: float  # energy_expectation(alpha, beta, params)
    residual: float  # stationarity_residual(alpha, beta, params)
    levels: TransformSolution  # dressed_levels(alpha, params)

    @property
    def beta(self) -> float:
        return self.levels.lambda_minus

    @property
    def norm_sq(self) -> float:
        return self.levels.n_minus_sq


def energy_expectation(alpha, beta, params: ModelParams):
    """<H> in the trial state:

    2/(2 + beta^2) * (alpha^2 w_c - 2 alpha g + sqrt2 beta w_a exp(-alpha^2/2)).
    """
    return (
        2.0
        / (2.0 + beta * beta)
        * (
            alpha * alpha * params.omega_c
            - 2.0 * alpha * params.g
            + SQRT2 * beta * params.omega_a * np.exp(-alpha * alpha / 2.0)
        )
    )


def stationarity_residual(alpha, beta, params: ModelParams):
    """Distance of (alpha, beta) from stationarity: |grad <H>| / |<H>|.

    The gradient is taken in the dimensionless (alpha, beta), so the ratio
    is scale-free, and nothing in it divides by a quantity that vanishes in
    deep coupling.
    """
    wa, wc, g = params.omega_a, params.omega_c, params.g
    a = alpha * alpha * wc - 2.0 * alpha * g
    b = SQRT2 * wa * np.exp(-alpha * alpha / 2.0)
    n_sq = 2.0 + beta * beta
    d_alpha = 2.0 * (2.0 * (alpha * wc - g) - alpha * b * beta) / n_sq
    d_beta = 2.0 * (b * (2.0 - beta * beta) - 2.0 * a * beta) / (n_sq * n_sq)
    return np.hypot(d_alpha, d_beta) / np.abs(energy_expectation(alpha, beta, params))


def small_g_approx(params: ModelParams) -> tuple[float, float]:
    """Leading small-coupling forms of the minimizing (alpha, beta).

    alpha ~ g/(w_a + w_c) and beta ~ -sqrt2 + g^2 (2 w_a + w_c) /
    (sqrt2 w_a (w_a + w_c)^2), valid for g < w_a + w_c.
    """
    wa, wc, g = params.omega_a, params.omega_c, params.g
    alpha = g / (wa + wc)
    beta = -SQRT2 + g * g * (2.0 * wa + wc) / (SQRT2 * wa * (wa + wc) ** 2)
    return alpha, beta


def _stationarity(alpha, wa: float, wc: float, g):
    """f(alpha) of the module docstring, over arrays of alpha and g."""
    a = alpha * alpha * wc - 2.0 * alpha * g
    b_sq = 2.0 * wa * wa * np.exp(-alpha * alpha)
    return 2.0 * (alpha * wc - g) + 2.0 * alpha * b_sq / (np.sqrt(a * a + 2.0 * b_sq) - a)


def masked_brentq(f, xa, xb):
    """scipy's ``brentq`` (zeros/brentq.c) on many brackets at once.

    ``f(x, k)`` evaluates the functions of brackets ``k`` (an index array) at
    the points ``x``.  Each bracket [xa[k], xb[k]] takes its own interpolate,
    extrapolate or bisect steps, so its root is the one ``brentq`` returns
    with the same ``f`` and ``xtol = rtol = 1e-15``, bit for bit; a bracket
    leaves the iteration when it converges.  ValueError and RuntimeError are
    raised where ``brentq`` raises them: f of the same sign at both ends, a
    NaN value of f, or no convergence in ``_MAXITER`` steps.
    """
    xpre, xcur = np.array(xa, dtype=float), np.array(xb, dtype=float)
    k = np.arange(xpre.size)
    fpre, fcur = f(xpre, k), f(xcur, k)
    if np.isnan(fpre).any() or np.isnan(fcur).any():
        raise ValueError("f is NaN at a bracket end; solver cannot continue")
    root = np.where(fpre == 0.0, xpre, xcur)  # f = 0 at an end: that end
    open_ = (fpre != 0.0) & (fcur != 0.0)
    if (np.signbit(fpre) == np.signbit(fcur))[open_].any():
        raise ValueError("f(a) and f(b) must have different signs")
    # the rows xpre, xcur, xblk, fpre, fcur, fblk and spre, scur of the open brackets
    k, state, steps = k[open_], np.zeros((6, open_.sum())), np.zeros((2, open_.sum()))
    state[[0, 1, 3, 4]] = xpre[open_], xcur[open_], fpre[open_], fcur[open_]
    for _ in range(_MAXITER):
        xpre, xcur, xblk, fpre, fcur, fblk = state
        # f is 0 at no open bracket's xpre; where it is 0 at xcur, the bracket ends below
        flip = np.signbit(fpre) != np.signbit(fcur)
        np.copyto(state[2::3], state[0::3], where=flip)  # xblk, fblk = xpre, fpre
        np.copyto(steps, xcur - xpre, where=flip)
        # the end of smaller |f| becomes xcur: xpre, xcur, xblk = xcur, xblk, xcur
        state = np.where(np.abs(fblk) < np.abs(fcur), state[_SWAP], state)
        xpre, xcur, xblk, fpre, fcur, fblk = state

        delta = (_XTOL + _RTOL * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            root[k[done]] = xcur[done]
            going = ~done
            k, delta, sbis = k[going], delta[going], sbis[going]
            state, steps = state[:, going], steps[:, going]
            xpre, xcur, xblk, fpre, fcur, fblk = state
        if not k.size:
            return root

        # both candidate steps everywhere; each bracket keeps the one brentq takes
        spre, scur = steps
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        limit = np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)  # C's MIN; neither is NaN
        short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
        short &= 2.0 * np.abs(stry) < limit
        steps = np.where(short, (scur, stry), sbis)
        scur = steps[1]

        # sbis is not 0 (the bracket would have ended): copysign is C's sbis > 0 ? delta : -delta
        state[0], state[3] = xcur, fcur
        state[1] += np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
        state[4] = f(state[1], k)
        if np.isnan(state[4]).any():
            raise ValueError("f is NaN inside a bracket; solver cannot continue")
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


def solve_grid(params: ModelParams) -> tuple[VariationalSolution, dict[int, RuntimeError]]:
    """Minimize <H> over (alpha, beta) at each coupling of ``params.g``, a 1-d
    array; alpha lands in (0, g/w_c].

    f is sampled at 33 evenly spaced points of [0, g/w_c] per coupling.  Each
    - to + sign change brackets a minimum of the profile; ``masked_brentq``
    resolves them all to a relative 1e-15, however small alpha is, and one
    ``dressed_levels`` call gives beta and the dressed levels at every root.
    The well of lowest <H> is kept per coupling.  The sample at g/w_c is
    clamped to >= 0: once exp(-alpha^2) underflows the root is g/w_c to
    rounding, and f there is rounding noise.  g = 0 is solved analytically
    because the alpha condition degenerates there.  Each solution carries its
    ``stationarity_residual``.

    Returns the solutions as arrays over the grid, and a RuntimeError for
    each index where the solve fails (its array entries mean nothing): where
    the residual exceeds RESIDUAL_TOL, where eps_- departs from <H> by more
    than EQUIVALENCE_TOL relative (the two are different formulas for one
    energy), or where no well of finite energy is found, which happens once
    g/w_c overflows the profile.  No overflow, division by zero or invalid
    value is warned of: it leaves its row's values non-finite, and that row's
    checks report it, so a row's outcome depends on no other row and on no
    warning filter.
    """
    wa, wc = params.omega_a, params.omega_c
    g = np.asarray(params.g, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        top = g / wc
        values = np.empty((g.size, _SCAN.size))  # f at alpha = top * _SCAN
        for chunk in range(0, g.size, _SCAN_ROWS):  # bounds the temporaries of long grids
            rows = slice(chunk, chunk + _SCAN_ROWS)
            values[rows] = _stationarity(top[rows, None] * _SCAN, wa, wc, g[rows, None])
        last = values[:, -1]
        last[last < 0.0] = 0.0
        row, col = np.nonzero((values[:, :-1] < 0.0) & (values[:, 1:] >= 0.0))

        # The brackets' roots, in row order; where f is 0 at the upper end, that end.
        # masked_brentq works in units of 2**ka in alpha and 2**kf in f, rescalings
        # that are exact.  f(alpha) <= 2 (alpha (w_a + w_c) - g), so every root is at
        # least g/(w_a + w_c) ~ 2**ka and xtol = 1e-15 is relative at any root; and
        # its products of f and alpha steps cannot underflow at tiny g.
        roots = top[row] * _SCAN[col + 1]
        open_ = np.flatnonzero(values[row, col + 1] != 0.0)
        g_open = g[row[open_]]
        ka, kf = np.frexp(g_open / (wa + wc))[1], np.frexp(g_open)[1]

        def scaled(u, k):
            return np.ldexp(_stationarity(np.ldexp(u, ka[k]), wa, wc, g_open[k]), -kf[k])

        lo = np.ldexp(top[row[open_]] * _SCAN[col[open_]], -ka)
        roots[open_] = np.ldexp(masked_brentq(scaled, lo, np.ldexp(roots[open_], -ka)), ka)

        # Candidates: the roots, then alpha = 0 once per coupling.  That one's
        # <H> is -w_a at g = 0, which has no bracket, and NaN elsewhere, so it is
        # kept only by a coupling without a well, and then fails the finite check.
        n, m = g.size, row.size
        alpha = np.concatenate((roots, np.zeros(n)))
        on = ModelParams(wa, wc, np.concatenate((g[row], g)))
        levels = dressed_levels(alpha, on)
        energy = energy_expectation(alpha, levels.lambda_minus, on)
        energy[m:] = np.where(g == 0.0, -wa, math.nan)

        # per coupling, its first well, replaced by each later one of lower <H>
        pick = np.arange(m, m + n)
        rank = np.arange(m) - np.searchsorted(row, row)
        for r in range(rank.max() + 1 if m else 0):
            k = np.flatnonzero(rank == r)
            better = (pick[row[k]] >= m) | (energy[k] < energy[pick[row[k]]])
            pick[row[k[better]]] = k[better]
        alpha, energy, levels = alpha[pick], energy[pick], levels.at(pick)
        residual = stationarity_residual(alpha, levels.lambda_minus, params)
        unequal = np.abs(levels.eps_minus - energy) > EQUIVALENCE_TOL * np.abs(energy)

    errors = {}
    found = np.isfinite(energy)
    checked = found & (g != 0.0)
    for i in np.flatnonzero(~found | (checked & ((residual > RESIDUAL_TOL) | unequal))).tolist():
        at = f"at alpha={alpha[i].item()!r}"
        if not found[i]:
            errors[i] = RuntimeError(
                f"no well of finite energy found (omega_c={wc}, g={g[i].item()})"
            )
        elif residual[i] > RESIDUAL_TOL:
            errors[i] = RuntimeError(
                f"stationarity residual {residual[i]:.2e} exceeds {RESIDUAL_TOL:g} {at}"
            )
        else:
            errors[i] = RuntimeError(
                "dressed-level/variational equivalence violated: "
                f"eps_-={levels.eps_minus[i].item()!r} vs E_v={energy[i].item()!r} {at}"
            )
    return VariationalSolution(alpha, energy, residual, levels), errors


def solve(params: ModelParams) -> VariationalSolution:
    """``solve_grid`` at the one coupling of ``params``, as floats; its
    RuntimeError is raised.  Many couplings are cheaper as one grid: the
    masked Brent costs about as much per step on one bracket as on a
    thousand."""
    grid, errors = solve_grid(ModelParams(params.omega_a, params.omega_c, np.array([params.g])))
    if errors:
        raise errors[0]
    return VariationalSolution(
        grid.alpha.item(), grid.energy.item(), grid.residual.item(), grid.levels.points()[0]
    )


def trial_state(alpha: float, beta: float, trunc: FockTruncation) -> JointState:
    """The trial vector in the odd sector of a Fock truncation, renormalized:
    |-alpha>|+1> + |alpha>|-1> is S_n = sqrt2 <n|-alpha> at even n and
    D_n = sqrt2 <n|-alpha> at odd n (see ``model``), and beta |0>|0> is |0>_0.
    """
    v = SQRT2 * coherent_state_vector(alpha, trunc)
    s, z, d = sector_slices(odd=True)
    vec = np.zeros(sector_size(trunc.n_max, odd=True))
    vec[s], vec[d] = v[0::2], -v[1::2]  # sqrt2 <n|-alpha> = (-1)^n sqrt2 <n|alpha>
    vec[z][0] = beta
    return make_state(vec, trunc.n_max)


def trial_fidelities(
    alpha: list[float], beta: list[float], vectors: np.ndarray, starts: list[int], n_max: list[int]
) -> tuple[list[float], dict[int, Warning]]:
    """``fidelity(trial_state(alpha[i], beta[i], FockTruncation(n_max[i])), v_i)`` for
    the odd-sector unit vectors v_i in ``vectors`` (the one at ``starts[i]``),
    without building the trial states.

    With c the coherent vector of alpha, the trial vector holds sqrt2 c_n on
    S_n at even n, -sqrt2 c_n on D_n at odd n and beta on |0>_0, so its
    overlap with v is sqrt2 sum_n (-1)^n c_n v_n + beta v(|0>_0), and its
    squared norm is 2 <c, c> + beta^2.  The fidelity is the overlap over the
    norm, equal to the renormalized trial state's to rounding.  Each row's
    FockTruncationWarning is issued as ``coherent_state_vector`` issues it;
    where a filter raises it instead, that row's fidelity is NaN and the
    warning is its error.
    """
    if not alpha:
        return [], {}
    c = coherent_state_rows(np.array(alpha), np.array(n_max))  # zero past each n_max
    c[:, 1::2] *= -1.0
    slots = np.add.outer(starts, sd_slot(np.arange(c.shape[1])))
    np.minimum(slots, vectors.size - 1, out=slots)  # past n_max, where c is 0
    overlap = SQRT2 * np.einsum("ij,ij->i", c, vectors[slots])
    overlap += np.array(beta) * vectors[np.array(starts) + 1]
    weight = np.einsum("ij,ij->i", c, c)
    fidelities = (np.abs(overlap) / np.sqrt(2.0 * weight + np.square(beta))).tolist()
    errors = {}
    for i in np.flatnonzero(1.0 - weight > COHERENT_DEFICIT_TOL).tolist():
        try:
            message = lost_norm(alpha[i], n_max[i], 1.0 - weight[i])
            warnings.warn(message, FockTruncationWarning, stacklevel=2)
        except Warning as exc:  # a filter that turns the warning into an error
            errors[i] = exc
            fidelities[i] = math.nan
    return fidelities, errors
