"""Qubit-qubit entanglement of the ground state: reduced density matrices,
partial transpose and negativity.

Two-qubit basis order is |ee>, |eg>, |ge>, |gg> where |e>, |g> are the
energy eigenstates of a single qubit.  The atomic term of the Hamiltonian
is proportional to Jx, so a qubit's energy basis is its x basis: with
|e/g> = (|up> +/- |dn>)/sqrt2, the atom states of ``model`` are the Bell
states S = (|ee> + |gg>)/sqrt2, |0> = (|ee> - |gg>)/sqrt2 and
D = (|eg> + |ge>)/sqrt2.  Because negativity is invariant under local
unitaries, this choice only fixes matrix entries, not any entanglement
value.  Parity keeps S and |0> apart from D, so every reduced density
matrix here is X-shaped, with r22 = r23 = r33.
"""

from __future__ import annotations

import math

import numpy as np

from .model import SQRT2, JointState, ModelParams, row_dots, runs, sector_size, sector_slices


def _x_shaped(r11: float, r14: float, r22: float, r44: float) -> np.ndarray:
    return np.array(
        [[r11, 0.0, 0.0, r14], [0.0, r22, r22, 0.0], [0.0, r22, r22, 0.0], [r14, 0.0, 0.0, r44]]
    )


def _sums(amplitudes: np.ndarray) -> tuple[float, float, float, float]:
    """s = sum S_n^2, z = sum |0>_n^2, c = sum S_n |0>_n and d = sum D_n^2 of an
    odd-sector vector, which holds S_n and |0>_n at even n and D_n at odd n."""
    s_n, zero_n, d_n = (amplitudes[k] for k in sector_slices(odd=True))
    return s_n.dot(s_n), zero_n.dot(zero_n), s_n.dot(zero_n), d_n.dot(d_n)


def reduced_density_from_joint(state: JointState) -> np.ndarray:
    """Trace out the field: with the sums s, z, c and d of ``_sums``,
    r11, r44 = (s + z)/2 +/- c,  r14 = (s - z)/2,  r22 = d/2.

    A reference form, one state at a time: the sweep reads its negativities
    from ``negativity_stacked``, and ``TestNegativityStacked.per_row`` in
    tests/test_entangle.py holds those to this form bit for bit.  So the
    stacked code does not share ``_sums``: the test would then compare that
    code with itself.  The other exact-state tests of tests/test_entangle.py
    and tests/test_acceptance.py read rho from it.
    """
    s, z, c, d = _sums(state.amplitudes)
    norm_sq = float(s + z + d)
    if abs(norm_sq - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized: <v, v> = {norm_sq!r}")
    return _x_shaped(0.5 * (s + z) + c, 0.5 * (s - z), 0.5 * d, 0.5 * (s + z) - c)


def negativity_stacked(vectors: np.ndarray, starts: list[int], n_max: list[int]) -> list[float]:
    """``negativity_x_state(reduced_density_from_joint(state))`` of each odd-sector
    unit vector in ``vectors`` (the one at ``starts[i]`` on the truncation
    ``n_max[i]``), bit for bit, from the four sums of each.

    The vectors of a run of rows with one n_max (``model.runs``) are gathered
    at their starts into one (rows, size) array, as ``variational.trial_fidelities``
    reads them, and each of the four sums over a run is one ``row_dots`` of
    its strided S, |0> and D columns."""
    sums = []  # (s, z, c, d) of each row, as _sums
    for first, stop in runs(n_max):
        rows = vectors[np.add.outer(starts[first:stop], np.arange(sector_size(n_max[first], True)))]
        s_n, zero_n, d_n = (rows[:, k] for k in sector_slices(odd=True))
        sums += zip(
            row_dots(s_n, s_n).tolist(),
            row_dots(zero_n, zero_n).tolist(),
            row_dots(s_n, zero_n).tolist(),
            row_dots(d_n, d_n).tolist(),
        )
    return [
        _negativity_x(0.5 * (s + z) + c, 0.5 * (s - z), 0.5 * d, 0.5 * (s + z) - c)
        for s, z, c, d in sums
    ]


def reduced_density_variational(alpha: float, beta: float) -> np.ndarray:
    """Closed form of the reduced density matrix for the coherent-state
    trial family.

    A reference form with no caller in the solve path, kept for the tests
    that compare against it in tests/test_entangle.py
    (``TestReducedFromJoint.test_path_equivalence_with_closed_form``,
    ``TestReducedVariational``, ``TestPartialTranspose``,
    ``TestNegativityXState.test_both_channels_on_the_trial_family``,
    ``TestNegativityClosedForm`` and the concurrence oracle
    ``test_against_wootters_oracle``) and in tests/test_acceptance.py
    (``test_criterion_8_oracle_suites``).

    Up to the overall 1/(2 N^2) = 1/(2 (2 + beta^2)):
        r11 = 1 + beta^2 + 2 sqrt2 beta e^(-alpha^2/2) + e^(-2 alpha^2)
        r14 = r41 = 1 - beta^2 + e^(-2 alpha^2)
        r22 = r23 = r32 = r33 = 1 - e^(-2 alpha^2)
        r44 = 1 + beta^2 - 2 sqrt2 beta e^(-alpha^2/2) + e^(-2 alpha^2)
    """
    e_half = math.exp(-alpha * alpha / 2.0)
    e_full = math.exp(-2.0 * alpha * alpha)
    b2 = beta * beta
    r11 = 1.0 + b2 + 2.0 * SQRT2 * beta * e_half + e_full
    r14 = 1.0 - b2 + e_full
    r22 = 1.0 - e_full
    r44 = 1.0 + b2 - 2.0 * SQRT2 * beta * e_half + e_full
    return _x_shaped(r11, r14, r22, r44) / (2.0 * (2.0 + b2))


def partial_transpose(rho: np.ndarray, qubit: int = 0) -> np.ndarray:
    """Transpose the indices of one qubit; trace and hermiticity survive."""
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit}")
    blocks = rho.reshape(2, 2, 2, 2)
    axes = (2, 1, 0, 3) if qubit == 0 else (0, 3, 2, 1)
    return np.transpose(blocks, axes).reshape(4, 4)


def negativity_numerical(rho: np.ndarray) -> float:
    """|sum of the negative eigenvalues of the partial transpose|."""
    eigenvalues = np.linalg.eigvalsh(partial_transpose(rho, qubit=0))
    return float(-eigenvalues[eigenvalues < 0.0].sum())


def negativity_x_state(rho: np.ndarray) -> float:
    """Negativity of an X-shaped rho with r22 = r23 = r33, such as
    ``reduced_density_from_joint`` returns, in closed form.

    Its partial transpose splits into the blocks [[r11, r22], [r22, r44]] and
    [[r22, r14], [r14, r22]], with the eigenvalues
    (r11 + r44)/2 +/- hypot((r11 - r44)/2, r22) and r22 +/- |r14|; only the
    lower one of each pair can be negative.  ``negativity_numerical`` takes
    any rho.
    """
    return _negativity_x(*(float(rho[i, j]) for i, j in ((0, 0), (0, 3), (1, 1), (3, 3))))


def _negativity_x(r11: float, r14: float, r22: float, r44: float) -> float:
    outer = math.hypot(0.5 * (r11 - r44), r22) - 0.5 * (r11 + r44)
    return max(0.0, outer) + max(0.0, abs(r14) - r22)


def negativity_closed_form(alpha, beta):
    """Negativity of the trial family, at each (alpha, beta) of two arrays of
    one shape, or at one pair of floats (a float comes back):

    max{ (2 e^(-2 alpha^2) - beta^2) / (2 (2 + beta^2)), 0 }.

    At small g both terms of the numerator are near 2, so there (where
    e^(-2 alpha^2) >= 1/2) it is taken as 2 expm1(-2 alpha^2) + (2 - beta^2),
    with 2 - beta^2 exact from beta's integer ratio: nothing cancels.

    The exponentials are libm's, ``math.expm1`` and ``math.exp`` mapped over
    the elements: numpy's vectorized exp and expm1 may differ from libm in
    the last bit, which would change printed values.  The rest is numpy
    arithmetic in the order of the formula, so each value is what the same
    float operations give one pair at a time, signed zeros and NaNs included.
    """
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    with np.errstate(all="ignore"):  # inf and NaN pass as they do through floats
        x = -2.0 * alpha * alpha
        # expm1(x) < -0.63 below x = -1, and a NaN or infinite beta has no ratio
        near = (x >= -1.0) & np.isfinite(beta)
        e_minus_1 = np.full(x.shape, -1.0)
        e_minus_1[near] = list(map(math.expm1, x[near].tolist()))
        small = e_minus_1 >= -0.5
        numerator = np.empty(x.shape)
        numerator[small] = 2.0 * e_minus_1[small] + [
            (2 * d * d - n * n) / (d * d)
            for n, d in map(float.as_integer_ratio, beta[small].tolist())
        ]
        large = ~small
        exp = np.array(list(map(math.exp, x[large].tolist())))
        numerator[large] = 2.0 * exp - beta[large] * beta[large]
        value = numerator / (2.0 * (2.0 + beta * beta))
        value = np.where(value < 0.0, 0.0, value)  # max(value, 0.0), which keeps -0.0 and NaN
    return value.item() if value.ndim == 0 else value


def negativity_small_g(params: ModelParams) -> float:
    """Quadratic small-coupling law: w_c g^2 / (4 w_a (w_a + w_c)^2)."""
    wa, wc, g = params.omega_a, params.omega_c, params.g
    x = g / (wa + wc)  # (w_a + w_c)^2 itself overflows past w_c ~ 1.3e154
    return wc * x * x / (4.0 * wa)


def concurrence_approx(alpha, beta):
    """Concurrence of the trial family, at floats or arrays as
    ``negativity_closed_form``; equals twice its negativity."""
    return 2.0 * negativity_closed_form(alpha, beta)
