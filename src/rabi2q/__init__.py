"""Ground state of two identical qubits sharing one field mode, beyond the
rotating-wave approximation: exact diagonalization, a coherent-state
variational ansatz, a displacement-transformation method with a
perturbative correction, and qubit-qubit entanglement negativity.

Only the exact solver needs scipy, and of it only the LAPACK and BLAS
extension modules and, for the negativity zero search, scipy.optimize's
``_zeros``, which it loads without importing the scipy package; ``exact``
and the names taken from it load on first access, not with the package.
"""

import importlib

from . import entangle, transform, variational
from .model import (
    FockTruncation,
    FockTruncationWarning,
    JointState,
    ModelParams,
    annihilation_matrix,
    build_hamiltonian,
    coherent_state_vector,
    fidelity,
    parity_operator,
    spin1_matrices,
)


def __getattr__(name: str):
    # PEP 562: runs only for names the package does not hold.  Importing the
    # submodule binds ``rabi2q.exact``, so this runs once for "exact".
    if name in ("exact", "GroundStateResult", "ground_state"):
        exact = importlib.import_module(".exact", __name__)  # `from . import exact` would recurse
        return exact if name == "exact" else getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
