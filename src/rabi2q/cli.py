"""Command-line front end: single-point reports, parameter sweeps in g,
the resonance energy benchmark table, and the negativity zero locator.

All quantities are in units of the qubit splitting (omega_a = 1); detuning
enters as the ratio omega_c / omega_a.  CSV output is deterministic:
fixed column order, floats at 10 significant digits, newline-separated.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import entangle, transform, variational
from .exact import fidelity, ground_state
from .model import FockTruncation, ModelParams

METHODS = ("exact", "variational", "transform", "corrected")
OUTPUTS = ("energy", "alpha", "beta", "fidelity", "negativity_exact", "negativity_approx")

# Resonance benchmark (omega_c = omega_a): exact, dressed-level and
# corrected ground energies at five decimals.
REFERENCE_ENERGIES = (
    (0.2, -1.01015, -1.01013, -1.01015),
    (0.4, -1.04256, -1.04210, -1.04255),
    (0.6, -1.10404, -1.10137, -1.10403),
    (0.8, -1.20984, -1.19965, -1.20988),
    (1.0, -1.38986, -1.36052, -1.39094),
    (1.2, -1.68602, -1.62699, -1.68995),
)

DEFAULTS = {
    "omega-c": 1.0,
    "g": None,
    "g-min": 0.0,
    "g-max": 1.0,
    "steps": 21,
    "nmax-start": 16,
    "tol": 1e-10,
    "format": "csv",
    "output": None,
    "methods": METHODS,
    "outputs": ("energy",),
    "parallel": 1,
    "threshold": 5e-6,
    "g-tol": 1e-3,
    "ref-tol": 2e-5,
}


class UsageError(Exception):
    """Flag values that parse but make no sense (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


@dataclass(frozen=True)
class SweepSpec:
    g_min: float
    g_max: float
    steps: int
    omega_c_over_a: float
    methods: tuple[str, ...]
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.g_min > self.g_max:
            raise ValueError(f"g_min={self.g_min} exceeds g_max={self.g_max}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.g_min, self.g_max, self.steps)

    def columns(self) -> list[str]:
        cols = ["g"]
        if "energy" in self.outputs:
            cols += [f"energy_{m}" for m in METHODS if m in self.methods]
        cols += [o for o in OUTPUTS[1:] if o in self.outputs]
        if self._needs_exact():
            cols += ["n_max_used", "eig_residual"]
        if self._needs_variational():
            cols.append("stat_residual")
        cols.append("error")
        return cols

    def _needs_exact(self) -> bool:
        return (
            "fidelity" in self.outputs
            or "negativity_exact" in self.outputs
            or ("energy" in self.outputs and "exact" in self.methods)
        )

    def _needs_variational(self) -> bool:
        approx_methods = ("variational", "transform", "corrected")
        return (
            any(o in self.outputs for o in ("alpha", "beta", "fidelity", "negativity_approx"))
            or ("energy" in self.outputs and any(m in self.methods for m in approx_methods))
        )


def compute_sweep_row(
    g: float,
    omega_c: float,
    tol: float,
    n_max_start: int,
    methods: tuple[str, ...],
    outputs: tuple[str, ...],
) -> dict:
    """One grid point; any failure is recorded in the row's error field."""
    spec = SweepSpec(g, g, 1, omega_c, methods, outputs)
    row: dict = {"g": g, "error": ""}
    try:
        params = ModelParams(1.0, omega_c, g)
        gs = ground_state(params, tol=tol, n_max_start=n_max_start) if spec._needs_exact() else None
        var = variational.solve(params) if spec._needs_variational() else None

        if "energy" in outputs:
            if "exact" in methods:
                row["energy_exact"] = gs.energy
            if "variational" in methods:
                row["energy_variational"] = var.energy
            if "transform" in methods or "corrected" in methods:
                dressed = transform.dressed_levels(var.alpha, params)
                if "transform" in methods:
                    row["energy_transform"] = dressed.eps_minus
                if "corrected" in methods:
                    correction = transform.perturbation_correction(dressed, params)
                    row["energy_corrected"] = dressed.eps_minus + correction
        if "alpha" in outputs:
            row["alpha"] = var.alpha
        if "beta" in outputs:
            row["beta"] = var.beta
        if "fidelity" in outputs:
            trial = variational.trial_state(var, FockTruncation(gs.state.n_max))
            row["fidelity"] = fidelity(trial, gs.state)
        if "negativity_exact" in outputs:
            rho = entangle.reduced_density_from_joint(gs.state)
            row["negativity_exact"] = entangle.negativity_numerical(rho).value
        if "negativity_approx" in outputs:
            row["negativity_approx"] = entangle.negativity_closed_form(var.alpha, var.beta)
        if gs is not None:
            row["n_max_used"] = gs.n_max_used
            row["eig_residual"] = gs.residual
        if var is not None:
            row["stat_residual"] = variational.stationarity_residual(var.alpha, var.beta, params)
    except Exception as exc:  # recorded in-row, sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _sweep_task(task: tuple) -> dict:
    return compute_sweep_row(*task)


def run_sweep(
    spec: SweepSpec, tol: float, n_max_start: int, parallel: int = 1
) -> list[dict]:
    tasks = [
        (float(g), spec.omega_c_over_a, tol, n_max_start, spec.methods, spec.outputs)
        for g in spec.grid()
    ]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            return list(pool.map(_sweep_task, tasks))
    return [compute_sweep_row(*task) for task in tasks]


def locate_negativity_zero(
    omega_c: float,
    g_lo: float = 1.5,
    g_hi: float = 3.5,
    threshold: float = 5e-6,
    g_tol: float = 1e-3,
    tol: float = 1e-10,
    n_max_start: int = 16,
) -> float:
    """Coupling at which the exact-state negativity falls below ``threshold``.

    The exact negativity decays smoothly at large g without an exact sign
    change, so "zero" must mean "below a resolution"; the default threshold
    is half a unit in the fifth decimal place, the precision of the
    benchmark table.  Bisection needs the bracket to straddle the
    threshold, otherwise this raises.
    """
    def above(g: float) -> bool:
        params = ModelParams(1.0, omega_c, g)
        return entangle.exact_negativity(params, tol=tol, n_max_start=n_max_start) > threshold

    if not above(g_lo):
        raise ValueError(
            f"negativity is already at or below {threshold:g} at g={g_lo}; "
            "no crossing inside the bracket"
        )
    if above(g_hi):
        raise ValueError(
            f"negativity is still above {threshold:g} at g={g_hi}; "
            "no crossing inside the bracket"
        )
    lo, hi = g_lo, g_hi
    while hi - lo > g_tol:
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, float):
        return float(f"{value:.10g}")
    return value


def render_rows(columns: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        payload = [{c: _jsonable(row.get(c)) for c in columns if c in row} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row.get(c)) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str) -> dict:
    config = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _method_tuple(text: str) -> tuple[str, ...]:
    return _subset(text, METHODS, "method")


def _output_tuple(text: str) -> tuple[str, ...]:
    return _subset(text, OUTPUTS, "output")


def _subset(text: str, universe: tuple[str, ...], kind: str) -> tuple[str, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    for item in items:
        if item not in universe:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {item!r}; choose from {', '.join(universe)}"
            )
    if not items:
        raise argparse.ArgumentTypeError(f"empty {kind} list")
    return tuple(u for u in universe if u in items)


_CASTS = {
    "omega-c": float,
    "g": float,
    "g-min": float,
    "g-max": float,
    "steps": int,
    "nmax-start": int,
    "tol": float,
    "format": str,
    "output": str,
    "methods": _method_tuple,
    "outputs": _output_tuple,
    "parallel": int,
    "threshold": float,
    "g-tol": float,
    "ref-tol": float,
}


class _Options:
    """Precedence: command-line flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self._args = args
        self._config = config

    def get(self, key: str):
        return self.get_or(key, DEFAULTS[key])

    def get_or(self, key: str, fallback):
        value = getattr(self._args, key.replace("-", "_"), None)
        if value is not None:
            return value
        if key in self._config:
            return _CASTS[key](self._config[key])
        return fallback

    def require_g(self) -> float:
        g = self.get("g")
        if g is None:
            raise UsageError("a coupling strength is required (--g or config 'g')")
        return float(g)


def cmd_ground(opt: _Options) -> int:
    g = opt.require_g()
    omega_c, tol, nmax = opt.get("omega-c"), opt.get("tol"), opt.get("nmax-start")
    params = ModelParams(1.0, omega_c, g)
    gs = ground_state(params, tol=tol, n_max_start=nmax)
    var = variational.solve(params)
    dressed = transform.dressed_levels(var.alpha, params)
    corrected = dressed.eps_minus + transform.perturbation_correction(dressed, params)
    trial = variational.trial_state(var, FockTruncation(gs.state.n_max))
    rho = entangle.reduced_density_from_joint(gs.state)
    row = {
        "g": g,
        "omega_c": omega_c,
        "energy_exact": gs.energy,
        "energy_variational": var.energy,
        "energy_corrected": corrected,
        "alpha": var.alpha,
        "beta": var.beta,
        "chi": dressed.chi,
        "fidelity": fidelity(trial, gs.state),
        "negativity_exact": entangle.negativity_numerical(rho).value,
        "negativity_approx": entangle.negativity_closed_form(var.alpha, var.beta),
        "n_max_used": gs.n_max_used,
    }
    _write(render_rows(list(row), [row], opt.get("format")), opt.get("output"))
    return 0


def cmd_variational(opt: _Options) -> int:
    g = opt.require_g()
    omega_c = opt.get("omega-c")
    params = ModelParams(1.0, omega_c, g)
    var = variational.solve(params)
    row = {
        "g": g,
        "omega_c": omega_c,
        "alpha": var.alpha,
        "beta": var.beta,
        "energy": var.energy,
        "norm_sq": var.norm_sq,
        "stat_residual": variational.stationarity_residual(var.alpha, var.beta, params),
    }
    _write(render_rows(list(row), [row], opt.get("format")), opt.get("output"))
    return 0


def cmd_transform(opt: _Options) -> int:
    g = opt.require_g()
    omega_c = opt.get("omega-c")
    params = ModelParams(1.0, omega_c, g)
    sol = transform.solve_chi(params)
    delta_e = transform.perturbation_correction(sol, params)
    row = {
        "g": g,
        "omega_c": omega_c,
        "chi": sol.chi,
        "eta": sol.eta,
        "mu": sol.mu,
        "lambda_minus": sol.lambda_minus,
        "lambda_plus": sol.lambda_plus,
        "eps_minus": sol.eps_minus,
        "eps_zero": sol.eps_zero,
        "eps_plus": sol.eps_plus,
        "delta_e": delta_e,
        "energy_corrected": sol.eps_minus + delta_e,
    }
    _write(render_rows(list(row), [row], opt.get("format")), opt.get("output"))
    return 0


def cmd_table1(opt: _Options) -> int:
    tol, nmax, ref_tol = opt.get("tol"), opt.get("nmax-start"), opt.get("ref-tol")
    columns = [
        "g",
        "energy_exact",
        "energy_transform",
        "energy_corrected",
        "ref_exact",
        "ref_transform",
        "ref_corrected",
    ]
    rows = []
    mismatches = []
    for g, ref_exact, ref_dressed, ref_corrected in REFERENCE_ENERGIES:
        params = ModelParams(1.0, 1.0, g)
        gs = ground_state(params, tol=tol, n_max_start=nmax)
        sol = transform.solve_chi(params)
        corrected = sol.eps_minus + transform.perturbation_correction(sol, params)
        computed = (gs.energy, sol.eps_minus, corrected)
        refs = (ref_exact, ref_dressed, ref_corrected)
        for name, have, want in zip(columns[1:4], computed, refs):
            if abs(have - want) > ref_tol:
                mismatches.append(
                    f"g={g}: {name} computed {have:.7f} vs reference {want:.5f} "
                    f"(|diff|={abs(have - want):.2e} > {ref_tol:g})"
                )
        rows.append(
            {
                "g": g,
                "energy_exact": round(gs.energy, 5),
                "energy_transform": round(sol.eps_minus, 5),
                "energy_corrected": round(corrected, 5),
                "ref_exact": ref_exact,
                "ref_transform": ref_dressed,
                "ref_corrected": ref_corrected,
            }
        )
    _write(render_rows(columns, rows, opt.get("format")), opt.get("output"))
    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        return 2
    return 0


def cmd_sweep(opt: _Options) -> int:
    try:
        spec = SweepSpec(
            g_min=opt.get("g-min"),
            g_max=opt.get("g-max"),
            steps=opt.get("steps"),
            omega_c_over_a=opt.get("omega-c"),
            methods=opt.get("methods"),
            outputs=opt.get("outputs"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = run_sweep(spec, opt.get("tol"), opt.get("nmax-start"), opt.get("parallel"))
    _write(render_rows(spec.columns(), rows, opt.get("format")), opt.get("output"))
    return 0


def cmd_negativity(opt: _Options) -> int:
    g = opt.require_g()
    omega_c = opt.get("omega-c")
    params = ModelParams(1.0, omega_c, g)
    gs = ground_state(params, tol=opt.get("tol"), n_max_start=opt.get("nmax-start"))
    var = variational.solve(params)
    rho = entangle.reduced_density_from_joint(gs.state)
    row = {
        "g": g,
        "omega_c": omega_c,
        "negativity_exact": entangle.negativity_numerical(rho).value,
        "negativity_approx": entangle.negativity_closed_form(var.alpha, var.beta),
        "negativity_small_g": entangle.negativity_small_g(params),
        "concurrence_approx": entangle.concurrence_approx(var.alpha, var.beta),
        "n_max_used": gs.n_max_used,
    }
    _write(render_rows(list(row), [row], opt.get("format")), opt.get("output"))
    return 0


def cmd_find_zero(opt: _Options) -> int:
    omega_c = opt.get("omega-c")
    g_lo = opt.get_or("g-min", 1.5)
    g_hi = opt.get_or("g-max", 3.5)
    threshold = opt.get("threshold")
    crossing = locate_negativity_zero(
        omega_c,
        g_lo=g_lo,
        g_hi=g_hi,
        threshold=threshold,
        g_tol=opt.get("g-tol"),
        tol=opt.get("tol"),
        n_max_start=opt.get("nmax-start"),
    )
    row = {
        "omega_c": omega_c,
        "g_lo": g_lo,
        "g_hi": g_hi,
        "threshold": threshold,
        "g_zero": crossing,
    }
    _write(render_rows(list(row), [row], opt.get("format")), opt.get("output"))
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--omega-c", type=float, help="omega_c / omega_a (default 1.0)")
    sub.add_argument("--nmax-start", type=int, help="initial Fock truncation (default 16)")
    sub.add_argument("--tol", type=float, help="energy convergence tolerance (default 1e-10)")
    sub.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    sub.add_argument("--output", help="write to this path instead of stdout")
    sub.add_argument("--config", help="flat 'key = value' file mirroring the flag names")


def build_parser() -> _Parser:
    parser = _Parser(prog="rabi2q", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("ground", help="all methods at one parameter point")
    sub.add_argument("--g", type=float, help="coupling strength in units of omega_a")
    _add_common(sub)
    sub.set_defaults(func=cmd_ground)

    sub = subparsers.add_parser("variational", help="coherent-state minimization only")
    sub.add_argument("--g", type=float)
    _add_common(sub)
    sub.set_defaults(func=cmd_variational)

    sub = subparsers.add_parser("transform", help="dressed levels and correction only")
    sub.add_argument("--g", type=float)
    _add_common(sub)
    sub.set_defaults(func=cmd_transform)

    sub = subparsers.add_parser("table1", help="check the resonance energy benchmark")
    sub.add_argument("--ref-tol", type=float, help="comparison tolerance (default 2e-5)")
    _add_common(sub)
    sub.set_defaults(func=cmd_table1)

    sub = subparsers.add_parser("sweep", help="scan a g grid, CSV/JSON per row")
    sub.add_argument("--g-min", type=float)
    sub.add_argument("--g-max", type=float)
    sub.add_argument("--steps", type=int)
    sub.add_argument("--methods", type=_method_tuple, help=f"subset of {','.join(METHODS)}")
    sub.add_argument("--outputs", type=_output_tuple, help=f"subset of {','.join(OUTPUTS)}")
    sub.add_argument("--parallel", type=int, help="worker processes (default 1)")
    _add_common(sub)
    sub.set_defaults(func=cmd_sweep)

    sub = subparsers.add_parser("negativity", help="entanglement at one parameter point")
    sub.add_argument("--g", type=float)
    _add_common(sub)
    sub.set_defaults(func=cmd_negativity)

    sub = subparsers.add_parser(
        "find-zero", help="coupling where the exact negativity reaches numerical zero"
    )
    sub.add_argument("--g-min", type=float, help="bracket start (default 1.5)")
    sub.add_argument("--g-max", type=float, help="bracket end (default 3.5)")
    sub.add_argument(
        "--threshold",
        type=float,
        help="negativity below this counts as zero (default 5e-6, half a unit "
        "in the benchmark table's fifth decimal)",
    )
    sub.add_argument("--g-tol", type=float, help="bisection tolerance in g (default 1e-3)")
    _add_common(sub)
    sub.set_defaults(func=cmd_find_zero)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        return args.func(_Options(args, config))
    except UsageError as exc:
        print(f"rabi2q: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"rabi2q: error: {exc}", file=sys.stderr)
        return 1
