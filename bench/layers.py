"""Per-layer metrics of rabi2q: what the traced run reads from its spans.

The layers are the package's modules (``model``, ``exact``, ``variational``,
``transform``, ``entangle``, ``cli``) plus package import.  Besides calls and
self time per function, a few counts need an argument or a result of a call;
``HOOKS`` keeps those as span notes and ``call_metrics`` turns them into
metrics, labelled "computed" where they come from array sizes, not counters.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

MODULES = ("model", "exact", "variational", "transform", "entangle", "cli")
PARITY_TOL = 1e-6
WARNING_METRICS = {
    "PerturbationValidityWarning": "transform.validity_warnings",
    "FockTruncationWarning": "model.truncation_warnings",
}
IMPORT_CUMULATIVE = {
    "numpy": "import.numpy_ms",
    "scipy.linalg": "import.scipy_linalg_ms",
    "scipy.optimize": "import.scipy_optimize_ms",
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


HOOKS = {
    # dimension of the assembled Hamiltonian
    "model.build_hamiltonian": lambda args, kwargs, result: result.shape[0],
    # n_max of the rung
    "exact.ground_state_at": lambda args, kwargs, result: _arg(args, kwargs, 1, "n_max"),
    # the returned state, checked for parity purity after the call
    "exact.ground_state": lambda args, kwargs, result: result.state,
}


def _odd_parity_weight(state) -> float:
    from rabi2q.model import FockTruncation, parity_operator

    v = state.coefficients
    return 0.5 * (1.0 - float(v @ parity_operator(FockTruncation(state.n_max)) @ v))


def call_metrics(fold) -> dict[str, float]:
    """Layer metrics of one traced workload call.

    Call it with the tracer uninstalled: the parity check calls
    ``model.parity_operator`` and must not add spans.
    """
    notes = fold.tracer.notes
    metrics: dict[str, float] = {}
    for module in MODULES:
        metrics[f"layer.{module}.self_ms"] = 0.0
    for name, (calls, self_s, raised) in fold.by_name().items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = 1e3 * self_s
        metrics[f"{name}.failed"] = raised
        layer = f"layer.{name.split('.')[0]}.self_ms"
        metrics[layer] = metrics.get(layer, 0.0) + 1e3 * self_s

    dims = np.array([notes[s] for s in fold.ids("model.build_hamiltonian")], dtype=float)
    metrics["model.build_hamiltonian.bytes_computed"] = float(np.sum(8.0 * dims**2))

    rungs = fold.ids("exact.ground_state_at")
    n_max = np.array([notes[s] for s in rungs], dtype=float)
    metrics["exact.n_max_max"] = float(n_max.max()) if n_max.size else 0.0
    metrics["exact.eigh_flops_computed"] = float(np.sum((3.0 * (n_max + 1.0)) ** 3))

    solves = fold.ids("exact.ground_state")
    # the last rung of each ladder is the latest ground_state_at child of it
    last_rung = {}
    for rung in rungs:
        last_rung[fold.parents[rung - fold.first]] = rung
    solve_s = sum(fold.duration[s - fold.first] for s in solves)
    final_s = sum(fold.duration[last_rung[s] - fold.first] for s in solves if s in last_rung)
    metrics["exact.final_rung_share"] = final_s / solve_s if solve_s > 0 else 0.0
    metrics["exact.parity_mixed"] = sum(
        1 for s in solves if s in notes and _odd_parity_weight(notes[s]) < 1.0 - PARITY_TOL
    )
    metrics["trace.spans"] = len(fold.names)
    return metrics


def import_breakdown(env: dict, repeats: int) -> dict[str, float]:
    """Median import times from ``python -X importtime -c "import rabi2q.cli"``.

    numpy, scipy.linalg and scipy.optimize are cumulative times at their
    first import; ``import.rabi2q_self_ms`` sums the self time of the
    package's own modules.
    """
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rabi2q.cli"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        found = dict.fromkeys([*IMPORT_CUMULATIVE.values(), "import.rabi2q_self_ms"], 0.0)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            self_us, cumulative_us, module = int(fields[0]), int(fields[1]), fields[2].strip()
            if module in IMPORT_CUMULATIVE:
                found[IMPORT_CUMULATIVE[module]] = cumulative_us / 1e3
            if module == "rabi2q" or module.startswith("rabi2q."):
                found["import.rabi2q_self_ms"] += self_us / 1e3
        for key, value in found.items():
            samples.setdefault(key, []).append(value)
    return {key: float(np.median(values)) for key, values in samples.items()}
