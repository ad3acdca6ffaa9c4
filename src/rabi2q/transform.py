"""Displacement-transformed picture: dressed three-level problem and the
second-order energy correction.

Displacing the field conditioned on Jz (a polaron-type unitary with
parameter chi) turns the atomic part of the Hamiltonian into

    eta w_a Jx - (2 g chi - w_c chi^2) Jz^2,      eta = exp(-chi^2/2),

whose spectrum and eigenvectors are closed-form (``dressed_levels``).
Choosing chi to cancel the counter-rotating matrix element out of the
lowest dressed level reproduces exactly the variational stationarity
system, with chi = alpha and lambda_- = beta, so the variational solve
computes these levels once at its alpha and carries them
(``variational.VariationalSolution.levels``).  ``dressed_levels`` and
``perturbation_correction`` take a float or an array of chi, the latter
with an array ``ModelParams.g`` of its shape: one grid of couplings per
call.  The neglected two-photon piece of the transformed Hamiltonian is
restored perturbatively by ``perturbation_correction`` (closed form; on a
grid, ``perturbation_correction_grid`` returns the failures by point) and
by ``perturbation_sum_over_states`` (an independent numerical second-order
sum used to validate the closed form).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .model import (
    SQRT2, FockTruncation, ModelParams, annihilation_matrix, elementwise, spin1_matrices
)


class PerturbationValidityWarning(UserWarning):
    """The correction was evaluated outside the expansion's stated regime."""


@dataclass(frozen=True, eq=False)
class TransformSolution:
    """Dressed-level data at a given displacement chi.

    lambda_-/lambda_+ are the m=0 weights of the lowest/highest dressed
    eigenvectors (|1> + lambda |0> + |-1>, their product is -2);
    eps_minus < eps_zero < eps_plus are the dressed energies.  Each field is a
    float, or an array over a grid of chi.
    """

    chi: float
    eta: float
    mu: float
    lambda_minus: float
    lambda_plus: float
    n_minus_sq: float
    n_plus_sq: float
    eps_minus: float
    eps_zero: float
    eps_plus: float

    def at(self, index) -> TransformSolution:
        """The levels at ``index`` (an index array) of a grid."""
        return TransformSolution(*(getattr(self, f.name)[index] for f in fields(self)))

    def points(self) -> list[TransformSolution]:
        """The levels of a grid, one per point, as floats."""
        return list(map(TransformSolution, *(getattr(self, f.name).tolist() for f in fields(self))))


def dressed_levels(chi, params: ModelParams) -> TransformSolution:
    """Closed-form spectrum of eta w_a Jx - (2 g chi - w_c chi^2) Jz^2.

    With c = eta w_a, b = sqrt2 c, d = 2 g chi - w_c chi^2,
    s = sqrt(d^2 + 2 b^2) and mu = d / c:
        eps_0   = -d                  (antisymmetric level)
        eps_+/- = (-d +/- s) / 2
        |+/->   = (|1> + lambda_{+/-} |0> + |-1>) / N_{+/-},
                  lambda_{+/-} = (mu +/- sqrt(4 + mu^2)) / sqrt2 = (d +/- s) / b
        |0>     = (|1> - |-1>) / sqrt2
    Of each pair (eps_+ eps_- = -c^2, lambda_+ lambda_- = -2) the member of
    smaller magnitude is formed through the product, so nothing cancels.
    Nothing divides by eta, which underflows for chi above ~38.6; mu and the
    far lambda are infinite there.  lambda_- at chi = alpha is the lower
    root of the variational beta condition B beta^2 - 2 d beta - 2 B = 0
    with B = b, and is taken as the variational beta.  ``chi`` is a float or
    an array, element by element; eta is libm's exp (``model.elementwise``).
    """
    wa, wc, g = params.omega_a, params.omega_c, params.g
    chi = np.asarray(chi, dtype=float)
    # overflow gives inf and 0/0 NaN, as in float arithmetic; a division by a
    # vanishing b or c is in a branch np.where does not take
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        eta = elementwise(math.exp, -chi * chi / 2.0)
        c = eta * wa
        b = SQRT2 * c  # B of ``variational`` at alpha = chi
        d = 2.0 * chi * g - chi * chi * wc  # the products of its A, so d = -A exactly
        far = np.sqrt(d * d + 2.0 * b * b) + np.abs(d)  # 2 |far eps| = b |far lambda|
        near_eps = 2.0 * c * c / far
        near_lam = 2.0 * b / far
        far_lam = np.where(b != 0.0, far / b, math.inf)
        lower = d >= 0.0  # the displaced pair is lowest; else the m=0 level is
        lam_minus = np.where(lower, -near_lam, -far_lam)[()]  # [()]: a float stays one
        lam_plus = np.where(lower, far_lam, near_lam)[()]
        return TransformSolution(
            chi=chi[()],
            eta=eta,
            mu=np.where(c != 0.0, d / c, np.copysign(math.inf, d))[()],
            lambda_minus=lam_minus,
            lambda_plus=lam_plus,
            n_minus_sq=2.0 + lam_minus * lam_minus,
            n_plus_sq=2.0 + lam_plus * lam_plus,
            eps_minus=np.where(lower, -far / 2.0, -near_eps)[()],
            eps_zero=-d,
            eps_plus=np.where(lower, near_eps, far / 2.0)[()],
        )


def _power(x, n: int, errors: dict):
    """x ** n as float arithmetic computes it (libm's pow), element by element.
    Past the float range the element is inf, and its OverflowError goes into
    ``errors`` under the element's index (0 for a float) unless one is there."""

    def power(index, value):
        try:
            return float(value) ** n  # a numpy float would give inf and a RuntimeWarning
        except OverflowError as exc:
            errors.setdefault(index, exc)
            return math.inf

    return elementwise(power, np.arange(x.size).reshape(x.shape) if np.ndim(x) else 0, x)


def perturbation_correction_grid(sol: TransformSolution, params: ModelParams):
    """``perturbation_correction`` over a grid of chi, with the failures by index.

    Returns the values and, for each index where the correction fails, its
    exception: OverflowError where chi^4, eps_+^2 or eps_0^2 passes the float
    range (chi above ~1e77; the value there is meaningless), and, where
    warnings are errors, the PerturbationValidityWarning at each point with
    chi >= 1.  The other points keep their values.
    """
    chi = sol.chi
    errors = {}
    outside = np.flatnonzero(np.asarray(chi) >= 1.0)
    if outside.size:
        if np.size(chi) == 1:
            where = f"chi={np.ravel(chi)[0]:.4f} >= 1 is"
        else:
            g = np.asarray(params.g)[outside]
            where = (
                f"{outside.size} of {np.size(chi)} points (g from {g.min():g} to {g.max():g}) "
                f"have chi >= 1, up to chi={np.max(chi):.4f}; they are"
            )
        try:
            warnings.warn(
                f"{where} outside the expansion's stated regime; "
                "the closed form is evaluated regardless",
                PerturbationValidityWarning,
                stacklevel=2,
            )
        except PerturbationValidityWarning as exc:  # warnings are errors: those points fail
            errors = dict.fromkeys(outside.tolist(), exc)
    wc = params.omega_c
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as in float arithmetic
        values = -(2.0 * _power(chi, 4, errors) / sol.n_minus_sq) * (
            2.0 * _power(sol.eps_plus, 2, errors) / (sol.n_minus_sq * wc)
            + _power(sol.eps_zero, 2, errors)
            / (sol.n_plus_sq * (2.0 * wc + sol.eps_plus - sol.eps_minus))
        )
    return values, errors


def perturbation_correction(sol: TransformSolution, params: ModelParams):
    """Closed-form second-order shift of the lowest dressed product state:

    dE = -(2 chi^4 / N_-^2) [ 2 eps_+^2 / (N_-^2 w_c)
                              + eps_0^2 / (N_+^2 (2 w_c + eps_+ - eps_-)) ].

    The corrected ground energy is eps_- + dE.  The expansion behind this
    form assumes chi < 1; larger chi is evaluated anyway but flagged, by one
    warning per call: on a grid it counts the points with chi >= 1 and names
    their range of g (``params.g``) and the largest chi.  chi^4 past the
    float range (chi above ~1e77) raises OverflowError; on a grid, the error
    of the first failing point is raised (``perturbation_correction_grid``
    keeps the others).
    """
    values, errors = perturbation_correction_grid(sol, params)
    if errors:
        raise errors[min(errors)]
    return values


def perturbation_sum_over_states(
    sol: TransformSolution, params: ModelParams, trunc: FockTruncation
) -> float:
    """Second-order shift by explicit summation over intermediate states.

    The perturbation is the leading two-photon piece left over after the
    displacement, (eta chi^2 w_a / 2) Jx (a'^2 - 2 a'a + a^2).  Unperturbed
    levels are eps_nu + n w_c.  The dressed energies and eigenvectors are
    recomputed here with a dense 3x3 eigensolve so the check is independent
    of the closed forms in ``dressed_levels``.
    """
    wa, wc, g = params.omega_a, params.omega_c, params.g
    chi = sol.chi
    eta = math.exp(-chi * chi / 2.0)

    ops = spin1_matrices()
    jz2 = (ops.jz @ ops.jz).real
    atom = eta * wa * ops.jx.real - (2.0 * g * chi - wc * chi * chi) * jz2
    eps, vecs = np.linalg.eigh(atom)  # ascending: minus, zero, plus
    jx_dressed = vecs.T @ ops.jx.real @ vecs

    a = annihilation_matrix(trunc)
    two_photon = a.T @ a.T - 2.0 * (a.T @ a) + a @ a
    coupling = eta * chi * chi * wa / 2.0

    shift = 0.0
    for n in range(trunc.n_levels):
        for nu in range(3):
            if n == 0 and nu == 0:
                continue
            amp = coupling * two_photon[n, 0] * jx_dressed[nu, 0]
            if amp == 0.0:
                continue
            shift += amp * amp / (eps[0] - eps[nu] - n * wc)
    return shift
