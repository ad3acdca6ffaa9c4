"""Qubit-qubit entanglement of the ground state: reduced density matrices,
partial transpose and negativity.

Two-qubit basis order is |ee>, |eg>, |ge>, |gg> where |e>, |g> are the
energy eigenstates of a single qubit.  The atomic term of the Hamiltonian
is proportional to Jx, so a qubit's energy basis is its x basis; the
collective z levels map to products of energy eigenstates through a
one-qubit rotation.  Because negativity is invariant under local
unitaries, this choice only fixes matrix entries, not any entanglement
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import JointState
from .model import ATOM_DIM, SQRT2, ModelParams

BASIS_LABELS = ("ee", "eg", "ge", "gg")

# Columns: m = (+1, 0, -1) expressed in the (ee, eg, ge, gg) basis.  With
# |e/g> = (|up> +/- |dn>)/sqrt2 per qubit:
#   |m=+1> = |up,up>             -> (|ee> + |eg> + |ge> + |gg>) / 2
#   |m= 0> = (|up,dn>+|dn,up>)/sqrt2 -> (|ee> - |gg>) / sqrt2
#   |m=-1> = |dn,dn>             -> (|ee> - |eg> - |ge> + |gg>) / 2
# The singlet row is absent: it carries no weight in this model.
TRIPLET_EMBEDDING = np.array(
    [
        [0.5, 1.0 / SQRT2, 0.5],
        [0.5, 0.0, -0.5],
        [0.5, 0.0, -0.5],
        [0.5, -1.0 / SQRT2, 0.5],
    ]
)


@dataclass(frozen=True, eq=False)
class TwoQubitDensityMatrix:
    """4x4 real symmetric unit-trace matrix in the (ee, eg, ge, gg) basis."""

    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class NegativityResult:
    value: float
    negative_eigenvalues: tuple[float, ...]
    method: str  # "numerical_pt" | "closed_form" | "small_g"


def reduced_density_from_joint(state: JointState) -> TwoQubitDensityMatrix:
    """Trace out the field and express the atomic state on two qubits."""
    coeff = state.coefficients
    norm_sq = float(coeff @ coeff)
    if abs(norm_sq - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized: <v, v> = {norm_sq!r}")
    by_level = coeff.reshape(-1, ATOM_DIM)
    rho_triplet = by_level.T @ by_level
    rho = TRIPLET_EMBEDDING @ rho_triplet @ TRIPLET_EMBEDDING.T
    return TwoQubitDensityMatrix(0.5 * (rho + rho.T))


def reduced_density_variational(alpha: float, beta: float) -> TwoQubitDensityMatrix:
    """Closed form of the reduced density matrix for the coherent-state
    trial family.

    X-shaped with, up to the overall 1/(2 N^2) = 1/(2 (2 + beta^2)):
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
    rho = np.array(
        [
            [r11, 0.0, 0.0, r14],
            [0.0, r22, r22, 0.0],
            [0.0, r22, r22, 0.0],
            [r14, 0.0, 0.0, r44],
        ]
    ) / (2.0 * (2.0 + b2))
    return TwoQubitDensityMatrix(rho)


def partial_transpose(rho: TwoQubitDensityMatrix, qubit: int = 0) -> np.ndarray:
    """Transpose the indices of one qubit; trace and hermiticity survive."""
    if qubit not in (0, 1):
        raise ValueError(f"qubit must be 0 or 1, got {qubit}")
    blocks = rho.entries.reshape(2, 2, 2, 2)
    axes = (2, 1, 0, 3) if qubit == 0 else (0, 3, 2, 1)
    return np.transpose(blocks, axes).reshape(4, 4)


def negativity_numerical(rho: TwoQubitDensityMatrix) -> NegativityResult:
    """|sum of the negative eigenvalues of the partial transpose|."""
    eigenvalues = np.linalg.eigvalsh(partial_transpose(rho, qubit=0))
    negative = eigenvalues[eigenvalues < 0.0]
    return NegativityResult(
        value=float(-negative.sum()),
        negative_eigenvalues=tuple(float(x) for x in negative),
        method="numerical_pt",
    )


def negativity_closed_form(alpha: float, beta: float) -> float:
    """Negativity of the trial family:

    max{ (2 e^(-2 alpha^2) - beta^2) / (2 (2 + beta^2)), 0 }.
    """
    raw = (2.0 * math.exp(-2.0 * alpha * alpha) - beta * beta) / (
        2.0 * (2.0 + beta * beta)
    )
    return max(raw, 0.0)


def negativity_small_g(params: ModelParams) -> float:
    """Quadratic small-coupling law: w_c g^2 / (4 w_a (w_a + w_c)^2)."""
    wa, wc, g = params.omega_a, params.omega_c, params.g
    return wc * g * g / (4.0 * wa * (wa + wc) ** 2)


def concurrence_approx(alpha: float, beta: float) -> float:
    """Concurrence of the trial family; equals twice its negativity."""
    return 2.0 * negativity_closed_form(alpha, beta)
