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

which does not cancel, with f(0) = -2g < 0 and f(g/w_c) >= 0.  Above
w_c = 2 w_a / e, f is strictly increasing on [0, g/w_c], so the profile has one well,
whose root lies in [g/(w_a + w_c), g/w_c]; ``solve_grid`` brackets it in
closed form.  For w_c below about 0.3 and a window of g, f has three zeros
(two wells and the barrier between them), so at w_c <= 2 w_a / e
``solve_grid`` samples f on a fixed grid, root-finds every - to + sign change
and keeps the root of lowest profile E.  It does so for a whole grid of g at
once: ``bracketed_newton`` resolves every bracket of every coupling together
by Newton steps on f and its closed-form slope, each kept inside its bracket
and replaced by bisection where it would leave it (the safeguarded Newton
method; W. H. Press et al., Numerical Recipes, 3rd ed., 2007, sec. 9.4).
``solve`` is a grid of one.
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
    row_dots,
    runs,
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
_ONE_WELL = 2.0 / math.e  # above this omega_c / omega_a the profile has one well
_RTOL = 1e-15  # a Newton step at most this fraction of alpha ends a bracket
_MAXITER = 100


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

    A reference form with no caller in the solve path, kept for ``TestSmallG``
    in tests/test_variational.py, whose ``test_tiny_alpha_is_resolved_relatively``
    checks the small-g root of ``solve`` against it.
    """
    wa, wc, g = params.omega_a, params.omega_c, params.g
    alpha = g / (wa + wc)
    beta = -SQRT2 + g * g * (2.0 * wa + wc) / (SQRT2 * wa * (wa + wc) ** 2)
    return alpha, beta


def _stationarity(alpha, wa: float, wc: float, g, slope: bool = False):
    """f(alpha) of the module docstring, over arrays of alpha and g; with
    ``slope``, the pair f, f' (f' as in ``solve_grid``), from one evaluation
    of A, B^2 and R."""
    a = alpha * alpha * wc - 2.0 * alpha * g
    b_sq = 2.0 * wa * wa * np.exp(-alpha * alpha)
    r = np.sqrt(a * a + 2.0 * b_sq)
    f = 2.0 * (alpha * wc - g) + 2.0 * alpha * b_sq / (r - a)
    if not slope:
        return f
    s, w = 2.0 * b_sq / (r - a), g - wc * alpha
    return f, 2.0 * wc + s * (1.0 - 2.0 * alpha * w / r) - 2.0 * alpha * alpha * b_sq / r


def _scan_brackets(wa: float, wc: float, g: np.ndarray, top: np.ndarray):
    """The - to + sign changes of f sampled at alpha = top * _SCAN, top = g/w_c,
    over a 1-d array of g: each bracket's index into g, and its ends and f
    there as rows xa, xb, fa, fb.  f at top is clamped to >= 0."""
    values = np.empty((g.size, _SCAN.size))
    for chunk in range(0, g.size, _SCAN_ROWS):  # bounds the temporaries of long grids
        rows = slice(chunk, chunk + _SCAN_ROWS)
        values[rows] = _stationarity(top[rows, None] * _SCAN, wa, wc, g[rows, None])
    last = values[:, -1]
    last[last < 0.0] = 0.0
    row, col = np.nonzero((values[:, :-1] < 0.0) & (values[:, 1:] >= 0.0))
    xa, xb = top[row] * _SCAN[col], top[row] * _SCAN[col + 1]
    return row, np.stack((xa, xb, values[row, col], values[row, col + 1]))


def _one_well_brackets(wa: float, wc: float, g: np.ndarray, top: np.ndarray):
    """The brackets where w_c > 2 w_a / e, in the form ``_scan_brackets``
    returns them: one per coupling, [g/(w_a + w_c), top], or [0, top] where f
    at the left end rounds to >= 0 (tiny g; f(0) = -2g).  g = 0 has no
    bracket, nor has a coupling whose end values are not finite: there the
    profile overflows."""
    ends = np.empty((4, g.size))
    ends[0], ends[1] = g / (wa + wc), top
    ends[2:] = _stationarity(ends[:2], wa, wc, g)
    ends[3, ends[3] < 0.0] = 0.0
    finite = np.isfinite(ends[2]) & np.isfinite(ends[3])
    tiny = finite & (ends[2] >= 0.0)
    ends[0, tiny], ends[2, tiny] = 0.0, -2.0 * g[tiny]
    one = finite & (ends[2] < 0.0)  # not at g = 0, where -2g is -0.0
    return np.flatnonzero(one), ends[:, one]


def _inside(x, lo, hi):
    """x in the closed bracket [lo, hi], moved onto its end where it lies past
    it by rounding (at most ``_RTOL`` |x|); the bracket's midpoint where x
    lies further out, or is infinite or NaN."""
    near = np.minimum(np.maximum(x, lo), hi)
    rounded = np.isfinite(x) & (np.abs(x - near) <= _RTOL * np.abs(x))
    return np.where(rounded, near, lo + (hi - lo) / 2.0)


def bracketed_newton(f, xa, xb, fa, fb):
    """Roots of many functions at once, each in its bracket [xa[k], xb[k]],
    where ``fa`` < 0 < ``fb`` are its values at the ends.

    ``f(x, k)`` returns the values and slopes of the functions of brackets
    ``k`` (an index array) at the points ``x``.  The first iterate is the
    secant point of the ends, whose values are taken as given.  Each
    iteration evaluates f and f' at every open bracket's iterate, moves the
    end of f's sign there, and steps to the Newton point where it lies in the
    closed bracket (see ``_inside``), to the bracket's midpoint elsewhere.  A
    bracket ends at that step where the Newton step, read before any
    midpoint replaces it, is at most ``_RTOL`` |x|, or where the iterate does
    not move; where it returns to the one before, the bracket is those two
    points, and its upper end is the root.  Its root is NaN where f turns
    NaN, or where it has not ended in ``_MAXITER`` iterations.
    """
    lo, hi = np.array(xa, dtype=float), np.array(xb, dtype=float)
    x = _inside(lo + (hi - lo) * (fa / (fa - fb)), lo, hi)  # a ratio: no underflow at tiny g
    k, roots, before = np.arange(lo.size), np.full(lo.size, math.nan), np.full(lo.size, math.nan)
    for _ in range(_MAXITER):
        fx, slope = f(x, k)
        np.copyto(lo, x, where=fx < 0.0)
        np.copyto(hi, x, where=fx > 0.0)
        step = fx / slope
        new = np.where(fx == 0.0, x, _inside(x - step, lo, hi))
        live = ~np.isnan(fx)
        cycle = new == before  # back to the other end of a bracket of two points
        stop = live & ((np.abs(step) <= _RTOL * np.abs(x)) | (new == x) | cycle)
        roots[k[stop]] = np.where(cycle, hi, new)[stop]
        going = live & ~stop
        k, lo, hi, before, x = k[going], lo[going], hi[going], x[going], new[going]
        if not k.size:
            break
    return roots


def solve_grid(params: ModelParams) -> tuple[VariationalSolution, dict[int, RuntimeError]]:
    """Minimize <H> over (alpha, beta) at each coupling of ``params.g``, a 1-d
    array; alpha lands in (0, g/w_c].

    Above w_c = 2 w_a / e (``_ONE_WELL``) the profile has one well, and
    [g/(w_a + w_c), g/w_c] brackets its root.  With s = R + A = 2B^2/(R - A)
    and w = g - w_c alpha >= 0 on [0, g/w_c], f = alpha s - 2w.  There A <= 0,
    so s <= 2B^2/R <= sqrt2 B <= 2 w_a, and f <= 2 (alpha (w_a + w_c) - g),
    which is 0 at the left end; at the right end w = 0 and f = alpha s >= 0.
    The root is the only one:

        f' = 2 w_c + s (1 - 2 alpha w / R) - 4 alpha^2 w_a^2 exp(-alpha^2) / R,

    and R >= |A| = alpha (2w + alpha w_c) >= 2 alpha w, while R >= sqrt2 B =
    2 w_a exp(-alpha^2/2) bounds the last term by 2 w_a alpha^2
    exp(-alpha^2/2) <= 4 w_a / e, so f' >= 2 w_c - 4 w_a / e > 0.  Where f
    at the left end rounds to >= 0 (tiny g), the bracket is [0, g/w_c]
    instead, with f(0) = -2g.  g = 0 has none, nor has a coupling whose end
    values are not finite: there the profile overflows, and the coupling
    fails as one without a well of finite energy.

    At every coupling of a grid with w_c <= 2 w_a / e, f is sampled at 33
    evenly spaced points of [0, g/w_c] (``_scan_brackets``).  Each - to +
    sign change brackets a minimum of the profile.

    ``bracketed_newton`` resolves all brackets of a grid together, from the
    values of f at their ends already at hand and with f' above, which holds
    at every alpha; each stops where its Newton step is at most 1e-15
    of alpha, however small alpha is.  f at g/w_c is clamped to >= 0: once
    exp(-alpha^2) underflows the root is g/w_c to rounding, and f there is
    rounding noise.  Each coupling keeps its root of lowest profile E, the
    lower of two equal, or alpha = 0 where it has none; at g = 0, where the
    alpha condition degenerates, <H> = -w_a there.  ``dressed_levels`` (beta
    and the levels), <H> and ``stationarity_residual`` run once over the grid.

    Returns the solutions as arrays over the grid, and a RuntimeError for
    each index where the solve fails (its array entries mean nothing): where
    the residual exceeds RESIDUAL_TOL, where eps_- departs from <H> by more
    than EQUIVALENCE_TOL relative (the two are different formulas for one
    energy), where no well of finite energy is found, which happens once
    g/w_c overflows the profile, or where a bracket's iteration ends without
    a root.  No overflow, division by zero or invalid
    value is warned of: it leaves its row's values non-finite, and that row's
    checks report it, so a row's outcome depends on no other row and on no
    warning filter.
    """
    wa, wc = params.omega_a, params.omega_c
    g = np.asarray(params.g, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        top = g / wc
        # each bracket's coupling, in order, and its ends and f there as rows xa, xb, fa, fb
        brackets = _one_well_brackets if wc > _ONE_WELL * wa else _scan_brackets
        row, ends = brackets(wa, wc, g, top)

        # The brackets' roots, in row order; where f is 0 at the upper end, that end.
        roots = ends[1].copy()
        open_ = np.flatnonzero(ends[3] != 0.0)
        g_open = g[row[open_]]

        def f(x, k):
            return _stationarity(x, wa, wc, g_open[k], slope=True)

        roots[open_] = bracketed_newton(f, *ends[:, open_])
        lost = np.bincount(row[np.isnan(roots)], minlength=g.size) > 0  # a bracket of no root

        # Per coupling, the root of lowest profile E = (A - R)/2: a stable sort by
        # coupling, then E, puts it first, and the lower alpha of two equal E.
        a = roots * roots * wc - 2.0 * roots * g[row]
        profile = (a - np.sqrt(a * a + 4.0 * wa * wa * np.exp(-roots * roots))) / 2.0
        order = np.lexsort((profile, row))
        first = order[np.diff(row, prepend=-1) != 0]  # row is sorted, so row[order] is row
        well = np.bincount(row, minlength=g.size) > 0
        alpha = np.zeros(g.size)
        alpha[row[first]] = roots[first]
        levels = dressed_levels(alpha, params)
        # <H> is -w_a at g = 0, which has no bracket, and NaN at every other
        # coupling without a well, which then fails the finite check
        energy = np.where(well, energy_expectation(alpha, levels.lambda_minus, params),
                          np.where(g == 0.0, -wa, math.nan))  # fmt: skip
        residual = stationarity_residual(alpha, levels.lambda_minus, params)
        unequal = np.abs(levels.eps_minus - energy) > EQUIVALENCE_TOL * np.abs(energy)

    errors = {}
    found = np.isfinite(energy)
    checked = found & (g != 0.0)
    bad = lost | ~found | (checked & ((residual > RESIDUAL_TOL) | unequal))
    for i in np.flatnonzero(bad).tolist():
        at = f"at alpha={alpha[i].item()!r}"
        if lost[i]:
            errors[i] = RuntimeError(
                f"no root of the stationarity condition found in a bracket (omega_c={wc}, "
                f"g={g[i].item()})"
            )
        elif not found[i]:
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
    Newton iteration costs about as much per step on one bracket as on a
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
    norm, equal to the renormalized trial state's to rounding.  Both sums run
    over the row's own levels, one ``row_dots`` per run of rows with one
    n_max, so each row's fidelity is that of its grid of one.  Each row's
    FockTruncationWarning is issued as ``coherent_state_vector`` issues it;
    where a filter raises it instead, that row's fidelity is NaN and the
    warning is its error.
    """
    if not alpha:
        return [], {}
    c = coherent_state_rows(np.array(alpha), np.array(n_max))  # zero past each n_max
    c[:, 1::2] *= -1.0
    overlap, weight = [], []
    for first, stop in runs(n_max):  # on each row's own levels, as in a grid of one
        levels = n_max[first] + 1
        part = c[first:stop, :levels]
        amplitudes = vectors[np.add.outer(starts[first:stop], sd_slot(np.arange(levels)))]
        overlap += row_dots(part, amplitudes).tolist()
        weight += row_dots(part, part).tolist()
    overlap = SQRT2 * np.array(overlap) + np.array(beta) * vectors[np.array(starts) + 1]
    weight = np.array(weight)
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
