"""Coherent-state trial ground state and its two-parameter minimization.

The trial state is

    |psi(alpha, beta)> = (|alpha>|m=-1> + beta |0>|m=0> + |-alpha>|m=+1>) / N,

with |alpha> a real-amplitude coherent state and N^2 = 2 + beta^2.  Its
energy expectation has the closed form implemented by
``energy_expectation``.  With A = alpha^2 w_c - 2 alpha g and
B = sqrt2 w_a exp(-alpha^2/2), setting its beta derivative to zero gives a
quadratic in beta whose lower root (``beta_stationary``) eliminates beta
exactly and leaves the one-dimensional profile

    E(alpha) = (A - R) / 2,      R = sqrt(A^2 + 2 B^2).

Every minimum of E lies in [0, g/w_c], where A <= 0.  There the stationarity
condition dE/dalpha = 0, scaled by the positive factor 2R/(R - A), reads

    f(alpha) = 2 (alpha w_c - g) + 2 alpha B^2 / (R - A) = 0,

which does not cancel, with f(0) = -2g < 0 and f(g/w_c) >= 0.  For
w_c below about 0.3 and a window of g, f has three zeros (two wells and the
barrier between them), so ``solve`` samples f on a fixed grid, root-finds
every - to + sign change and keeps the root of lowest energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .exact import JointState, make_state
from .model import SQRT2, FockTruncation, ModelParams, coherent_state_vector

RESIDUAL_TOL = 1e-8

# Where f is sampled, as fractions of g/omega_c.
_SCAN = np.linspace(0.0, 1.0, 33)


@dataclass(frozen=True)
class VariationalSolution:
    alpha: float
    beta: float
    energy: float
    residual: float  # stationarity_residual(alpha, beta, params)

    @property
    def norm_sq(self) -> float:
        return 2.0 + self.beta * self.beta


def energy_expectation(alpha: float, beta: float, params: ModelParams) -> float:
    """<H> in the trial state:

    2/(2 + beta^2) * (alpha^2 w_c - 2 alpha g + sqrt2 beta w_a exp(-alpha^2/2)).
    """
    return (
        2.0
        / (2.0 + beta * beta)
        * (
            alpha * alpha * params.omega_c
            - 2.0 * alpha * params.g
            + SQRT2 * beta * params.omega_a * math.exp(-alpha * alpha / 2.0)
        )
    )


def beta_stationary(alpha: float, params: ModelParams) -> tuple[float, float]:
    """Both roots of d<H>/dbeta = 0 at fixed alpha, lower root first.

    With A = alpha^2 w_c - 2 alpha g and B = sqrt2 w_a exp(-alpha^2/2) the
    condition is B beta^2 + 2 A beta - 2 B = 0 (B > 0 always), so the roots
    are (-A -/+ sqrt(A^2 + 2 B^2)) / B and their product is -2.  The lower
    root always minimizes <H> over beta, the upper one maximizes it.  The
    root of smaller magnitude is formed through the product, so neither
    cancels; the other overflows to infinity once B is tiny (alpha above
    about 37.5 at w_c ~ 1).
    """
    a = alpha * alpha * params.omega_c - 2.0 * alpha * params.g
    b = SQRT2 * params.omega_a * math.exp(-alpha * alpha / 2.0)
    s = math.sqrt(a * a + 2.0 * b * b) + abs(a)  # |far root| * B
    near = 2.0 * b / s
    far = s / b if b else math.inf
    if a < 0.0:
        return -near, far
    return -far, near


def stationarity_residual(alpha: float, beta: float, params: ModelParams) -> float:
    """Distance of (alpha, beta) from stationarity: |grad <H>| / |<H>|.

    The gradient is taken in the dimensionless (alpha, beta), so the ratio
    is scale-free, and nothing in it divides by a quantity that vanishes in
    deep coupling.
    """
    wa, wc, g = params.omega_a, params.omega_c, params.g
    a = alpha * alpha * wc - 2.0 * alpha * g
    b = SQRT2 * wa * math.exp(-alpha * alpha / 2.0)
    n_sq = 2.0 + beta * beta
    d_alpha = 2.0 * (2.0 * (alpha * wc - g) - alpha * b * beta) / n_sq
    d_beta = 2.0 * (b * (2.0 - beta * beta) - 2.0 * a * beta) / (n_sq * n_sq)
    return math.hypot(d_alpha, d_beta) / abs(energy_expectation(alpha, beta, params))


def small_g_approx(params: ModelParams) -> tuple[float, float]:
    """Leading small-coupling forms of the minimizing (alpha, beta).

    alpha ~ g/(w_a + w_c) and beta ~ -sqrt2 + g^2 (2 w_a + w_c) /
    (sqrt2 w_a (w_a + w_c)^2), valid for g < w_a + w_c.
    """
    wa, wc, g = params.omega_a, params.omega_c, params.g
    alpha = g / (wa + wc)
    beta = -SQRT2 + g * g * (2.0 * wa + wc) / (SQRT2 * wa * (wa + wc) ** 2)
    return alpha, beta


def _stationarity(alpha, params: ModelParams):
    """f(alpha) of the module docstring, for a float or an array."""
    wa, wc, g = params.omega_a, params.omega_c, params.g
    a = alpha * alpha * wc - 2.0 * alpha * g
    b_sq = 2.0 * wa * wa * np.exp(-alpha * alpha)
    return 2.0 * (alpha * wc - g) + 2.0 * alpha * b_sq / (np.sqrt(a * a + 2.0 * b_sq) - a)


def solve(params: ModelParams) -> VariationalSolution:
    """Minimize <H> over (alpha, beta); alpha lands in (0, g/w_c].

    f is sampled at 33 evenly spaced points of [0, g/w_c].  Each - to +
    sign change brackets a minimum of the profile, which ``brentq``
    resolves to rounding; the lowest one is returned.  The sample at g/w_c
    is clamped to >= 0: once exp(-alpha^2) underflows the root is g/w_c to
    rounding, and f there is rounding noise.  g = 0 is returned analytically
    because the alpha condition degenerates there.  The result carries its
    ``stationarity_residual``.  RuntimeError is raised if that exceeds
    RESIDUAL_TOL, or if no well of finite energy is found, which happens
    once g/w_c overflows the profile.
    """
    wa, wc, g = params.omega_a, params.omega_c, params.g
    if g == 0.0:
        return VariationalSolution(0.0, -SQRT2, -wa, stationarity_residual(0.0, -SQRT2, params))

    alphas = g / wc * _SCAN
    values = _stationarity(alphas, params)
    values[-1] = max(values[-1], 0.0)
    best = None
    for i in np.flatnonzero((values[:-1] < 0.0) & (values[1:] >= 0.0)):
        if values[i + 1] == 0.0:
            alpha = float(alphas[i + 1])
        else:
            alpha = brentq(
                _stationarity, alphas[i], alphas[i + 1], args=(params,), xtol=1e-15, rtol=1e-15
            )
        beta = beta_stationary(alpha, params)[0]
        energy = energy_expectation(alpha, beta, params)
        if best is None or energy < best[2]:
            best = (alpha, beta, energy)

    if best is None or not math.isfinite(best[2]):
        raise RuntimeError(f"no well of finite energy found (omega_c={wc}, g={g})")
    alpha, beta, energy = best
    residual = stationarity_residual(alpha, beta, params)
    if residual > RESIDUAL_TOL:
        raise RuntimeError(
            f"stationarity residual {residual:.2e} exceeds {RESIDUAL_TOL:g} at alpha={alpha!r}"
        )
    return VariationalSolution(alpha, beta, energy, residual)


def trial_state(sol: VariationalSolution, trunc: FockTruncation) -> JointState:
    """Materialize the trial vector on a Fock truncation (renormalized once).

    Atom order is m = (+1, 0, -1): the m=+1 component carries |-alpha>, the
    m=0 component beta |0>, the m=-1 component |+alpha>.  One coherent
    vector serves both, since <n|-alpha> = (-1)^n <n|alpha>.
    """
    plus = coherent_state_vector(sol.alpha, trunc)
    minus = plus.copy()
    minus[1::2] = -minus[1::2]
    vec = np.zeros(trunc.dim)
    vec[0::3] = minus
    vec[1] = sol.beta  # beta |0>_F on the m=0 level
    vec[2::3] = plus
    return make_state(vec, trunc.n_max)
