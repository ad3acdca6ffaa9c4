"""Ground state of two identical qubits sharing one field mode, beyond the
rotating-wave approximation: exact diagonalization, a coherent-state
variational ansatz, a displacement-transformation method with a
perturbative correction, and qubit-qubit entanglement negativity.
"""

from . import entangle, exact, transform, variational
from .exact import GroundStateResult, JointState, fidelity, ground_state
from .model import (
    FockTruncation,
    FockTruncationWarning,
    ModelParams,
    annihilation_matrix,
    build_hamiltonian,
    coherent_state_vector,
    parity_operator,
    spin1_matrices,
)

__version__ = "0.1.0"

__all__ = [
    "FockTruncation",
    "FockTruncationWarning",
    "GroundStateResult",
    "JointState",
    "ModelParams",
    "annihilation_matrix",
    "build_hamiltonian",
    "coherent_state_vector",
    "entangle",
    "exact",
    "fidelity",
    "ground_state",
    "parity_operator",
    "spin1_matrices",
    "transform",
    "variational",
]
