"""Command-line front end: single-point reports, parameter sweeps in g,
the resonance energy benchmark table, and the negativity zero locator.

All quantities are in units of the qubit splitting (omega_a = 1); detuning
enters as the ratio omega_c / omega_a.  CSV output is deterministic:
fixed column order, floats at 10 significant digits, newline-separated.

A command loads only the solvers it runs: ``rabi2q.exact``, and with it
scipy.linalg, is imported with the first row that needs the exact stage,
and scipy.optimize only by ``find-zero``.  So ``variational``, ``transform``
and an approximate ``sweep`` run on numpy alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import entangle, transform, variational
from .model import DEFAULT_TOL, FockTruncation, ModelParams, fidelity

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


class UsageError(Exception):
    """Flag values that parse but make no sense (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


class _Grid:
    """The stages that run over a whole grid of g at one omega_c, each from one
    call when a row first reads it: the variational solution and its
    correction, with the errors of the rows where they failed."""

    def __init__(self, omega_c: float, g: np.ndarray):
        self.omega_c, self.g = omega_c, g

    @cached_property
    def solution(self) -> tuple[variational.VariationalSolution, dict[int, Exception]]:
        return variational.solve_grid(ModelParams(1.0, self.omega_c, self.g))

    @cached_property
    def var(self) -> list[variational.VariationalSolution]:
        """The solution at each row, as floats."""
        return self.solution[0].points()

    @cached_property
    def delta_e(self) -> tuple[list[float], dict[int, Exception]]:
        """The correction at the rows the solve did not fail; it fails where that did."""
        solution, failed = self.solution
        rows = np.setdiff1d(np.arange(self.g.size), list(failed))
        values = np.full(self.g.size, math.nan)
        values[rows], errors = transform.perturbation_correction_grid(
            solution.levels.at(rows), ModelParams(1.0, self.omega_c, self.g[rows])
        )
        return values.tolist(), {**failed, **{rows[k].item(): exc for k, exc in errors.items()}}


class _Point:
    """The stages at one coupling of a _Grid, each run when first read and kept."""

    def __init__(self, params: ModelParams, tol: float, grid: _Grid, index: int):
        self.params, self.tol, self.grid, self.index = params, tol, grid, index

    @cached_property
    def exact(self):
        from .exact import ground_state  # scipy.linalg loads with the first exact row

        return ground_state(self.params, tol=self.tol)

    @cached_property
    def var(self):
        errors = self.grid.solution[1]
        if self.index in errors:
            raise errors[self.index]
        return self.grid.var[self.index]

    @cached_property
    def delta_e(self):
        values, errors = self.grid.delta_e
        if self.index in errors:
            raise errors[self.index]
        return values[self.index]

    @cached_property
    def rho(self):
        return entangle.reduced_density_from_joint(self.exact.state)


# Output column -> (the stages its value needs, its value at a _Point).
COLUMNS = {
    "g": ((), attrgetter("params.g")),
    "omega_c": ((), attrgetter("params.omega_c")),
    "negativity_small_g": ((), lambda p: entangle.negativity_small_g(p.params)),
    "error": ((), lambda p: ""),
    "energy_exact": (("exact",), attrgetter("exact.energy")),
    "n_max_used": (("exact",), attrgetter("exact.n_max_used")),
    "eig_residual": (("exact",), attrgetter("exact.residual")),
    "negativity_exact": (("exact", "rho"), lambda p: entangle.negativity_x_state(p.rho)),
    "energy_variational": (("var",), attrgetter("var.energy")),
    "energy": (("var",), attrgetter("var.energy")),  # the variational command's name
    "alpha": (("var",), attrgetter("var.alpha")),
    "beta": (("var",), attrgetter("var.beta")),
    "norm_sq": (("var",), attrgetter("var.norm_sq")),
    "stat_residual": (("var",), attrgetter("var.residual")),
    "negativity_approx": (
        ("var",), lambda p: entangle.negativity_closed_form(p.var.alpha, p.var.beta)
    ),
    "concurrence_approx": (
        ("var",), lambda p: entangle.concurrence_approx(p.var.alpha, p.var.beta)
    ),
    "fidelity": (
        ("exact", "var"),
        lambda p: fidelity(
            variational.trial_state(p.var.alpha, p.var.beta, FockTruncation(p.exact.state.n_max)),
            p.exact.state,
        ),
    ),
    "energy_transform": (("var",), attrgetter("var.levels.eps_minus")),
    **{
        name: (("var",), attrgetter(f"var.levels.{name}"))
        for name in ("chi", "eta", "mu", "lambda_minus", "lambda_plus", "eps_minus", "eps_zero",
                     "eps_plus")
    },  # fmt: skip
    "delta_e": (("var", "delta_e"), attrgetter("delta_e")),
    "energy_corrected": (("var", "delta_e"), lambda p: p.var.levels.eps_minus + p.delta_e),
}

# The single-point subcommands: help text and the columns of their one row.
POINT_COMMANDS = {
    "ground": (
        "all methods at one parameter point",
        ("g", "omega_c", "energy_exact", "energy_variational", "energy_corrected", "alpha",
         "beta", "chi", "fidelity", "negativity_exact", "negativity_approx", "n_max_used"),
    ),
    "variational": (
        "coherent-state minimization only",
        ("g", "omega_c", "alpha", "beta", "energy", "norm_sq", "stat_residual"),
    ),
    "transform": (
        "dressed levels and correction only",
        ("g", "omega_c", "chi", "eta", "mu", "lambda_minus", "lambda_plus", "eps_minus",
         "eps_zero", "eps_plus", "delta_e", "energy_corrected"),
    ),
    "negativity": (
        "entanglement at one parameter point",
        ("g", "omega_c", "negativity_exact", "negativity_approx", "negativity_small_g",
         "concurrence_approx", "n_max_used"),
    ),
}  # fmt: skip


def evaluate(omega_c: float, g, columns: tuple[str, ...], tol: float | None) -> list[dict]:
    """The values of ``columns`` (keys of COLUMNS) at each coupling of the grid
    ``g`` at ``omega_c``: one row per coupling.

    Per row, values are computed in column order.  Each stage runs at most
    once per grid, when the first column that needs it is read: the
    variational solution with its dressed levels and the perturbative
    correction as one call over the grid, the exact ground state and its
    reduced density matrix point by point.  ``tol`` goes to the exact
    solver.  If ``columns`` holds "error", a failure ends its row and is
    recorded there, and the other rows go on; a negative g, for one, gives a
    row of g and the ValueError of ``ModelParams``.  Otherwise the failure
    is raised.
    """
    g = np.asarray(g, dtype=float)
    # a g that is no coupling fails its row below; the grid solves 0 in its place
    grid = _Grid(omega_c, np.where((0.0 <= g) & (g < math.inf), g, 0.0))
    rows = []
    for index, g_i in enumerate(g.tolist()):
        try:
            params = ModelParams(1.0, omega_c, g_i)
        except ValueError as exc:
            if "error" not in columns:
                raise
            rows.append({"g": g_i, "error": f"ValueError: {exc}"})
            continue
        point = _Point(params, tol, grid, index)
        row = {}
        try:
            for column in columns:
                row[column] = COLUMNS[column][1](point)
        except Exception as exc:
            if "error" not in columns:
                raise
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def sweep_columns(methods: tuple[str, ...], outputs: tuple[str, ...]) -> tuple[str, ...]:
    """Columns of a sweep: the requested ones, then the diagnostics of the
    exact and variational stages they need, then the error."""
    columns = ["g"]
    if "energy" in outputs:
        columns += [f"energy_{m}" for m in METHODS if m in methods]
    columns += [o for o in OUTPUTS[1:] if o in outputs]
    stages = {stage for column in columns for stage in COLUMNS[column][0]}
    if "exact" in stages:
        columns += ["n_max_used", "eig_residual"]
    if "var" in stages:
        columns.append("stat_residual")
    return (*columns, "error")


def locate_negativity_zero(
    omega_c: float,
    *,
    g_lo: float,
    g_hi: float,
    threshold: float,
    g_tol: float,
    tol: float,
) -> float:
    """Coupling at which the exact-state negativity falls below ``threshold``.

    The exact negativity decays smoothly at large g without an exact sign
    change, so "zero" must mean "below a resolution"; ``find-zero``'s
    default threshold is half a unit in the fifth decimal place, the
    precision of the benchmark table.  Brent's method on negativity minus
    ``threshold`` finds g within ``g_tol / 2`` of the crossing, given a
    bracket ``[g_lo, g_hi]`` that straddles it and a positive ``g_tol``;
    otherwise this raises.  ``tol`` goes to the exact solver.
    """
    @cache  # brentq evaluates the bracket ends again
    def excess(g: float) -> float:
        (row,) = evaluate(omega_c, [g], ("negativity_exact",), tol)
        return row["negativity_exact"] - threshold

    if not g_tol > 0:
        raise ValueError(f"g_tol must be positive, got {g_tol}")

    if not excess(g_lo) > 0:
        raise ValueError(
            f"negativity is already at or below {threshold:g} at g={g_lo}; "
            "no crossing inside the bracket"
        )
    if excess(g_hi) > 0:
        raise ValueError(
            f"negativity is still above {threshold:g} at g={g_hi}; "
            "no crossing inside the bracket"
        )
    from scipy.optimize import brentq  # the one use of scipy.optimize

    return brentq(excess, g_lo, g_hi, xtol=0.5 * g_tol)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, float):  # JSON has no inf or NaN
        return float(f"{value:.10g}") if math.isfinite(value) else None
    return value


def render_rows(columns: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        payload = [{c: _jsonable(row.get(c)) for c in columns if c in row} for row in rows]
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row.get(c)) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str) -> list[str]:
    """Each ``key = value`` line of a config file as the flag ``--key=value``;
    the ``=`` form keeps a value such as -1 from being read as a flag."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not UTF-8
        raise UsageError(f"cannot read config file {path}: {getattr(exc, 'strerror', exc)}")
    flags = []
    for raw in text.splitlines():
        key, sep, value = (part.strip() for part in raw.split("#", 1)[0].partition("="))
        if not (key or sep or value):
            continue
        if not (key and sep):
            raise UsageError(f"config line is not 'key = value': {raw!r}")
        if "config".startswith(key):  # --config, or an abbreviation of it
            raise UsageError(f"config key {key!r} in {path}: config files do not nest")
        flags.append(f"--{key}={value}")
    return flags


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


def _checked(cast, accept, requirement: str):
    """An argparse type whose error message states ``requirement``; argparse's
    own message for a failed cast would name the type function instead."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan  # NaN, cast or given, fails every requirement below
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


_positive_float = _checked(float, lambda value: 0 < value < math.inf, "a positive finite number")
_positive_int = _checked(int, lambda value: value >= 1, "a positive integer")
_finite_float = _checked(float, math.isfinite, "a finite number")
_nonnegative_float = _checked(float, lambda value: 0 <= value < math.inf, "a finite number >= 0")


def cmd_point(opt: argparse.Namespace) -> int:
    """One parameter point, projected onto the subcommand's columns."""
    # without --tol the columns never run the exact stage
    rows = evaluate(opt.omega_c, [opt.g], opt.columns, getattr(opt, "tol", None))
    _write(render_rows(opt.columns, rows, opt.format), opt.output)
    return 0


def cmd_table1(opt: argparse.Namespace) -> int:
    columns = (
        "g",
        "energy_exact",
        "energy_transform",
        "energy_corrected",
        "ref_exact",
        "ref_transform",
        "ref_corrected",
    )
    rows = []
    mismatches = []
    grid = [g for g, *_ in REFERENCE_ENERGIES]
    for (g, *refs), computed in zip(REFERENCE_ENERGIES, evaluate(1.0, grid, columns[1:4], opt.tol)):
        row = {"g": g, **dict(zip(columns[4:], refs))}
        for name, want in zip(columns[1:4], refs):
            have = computed[name]
            if abs(have - want) > opt.ref_tol:
                mismatches.append(
                    f"g={g}: {name} computed {have:.7f} vs reference {want:.5f} "
                    f"(|diff|={abs(have - want):.2e} > {opt.ref_tol:g})"
                )
            row[name] = round(have, 5)
        rows.append(row)
    _write(render_rows(columns, rows, opt.format), opt.output)
    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        return 2
    return 0


def cmd_sweep(opt: argparse.Namespace) -> int:
    if opt.g_min > opt.g_max:
        raise UsageError(f"g_min={opt.g_min} exceeds g_max={opt.g_max}")
    columns = sweep_columns(opt.methods, opt.outputs)
    rows = evaluate(opt.omega_c, np.linspace(opt.g_min, opt.g_max, opt.steps), columns, opt.tol)
    _write(render_rows(columns, rows, opt.format), opt.output)
    return 0


def cmd_find_zero(opt: argparse.Namespace) -> int:
    if not opt.g_min < opt.g_max:
        raise UsageError(f"g_min={opt.g_min} must be below g_max={opt.g_max}")
    crossing = locate_negativity_zero(
        opt.omega_c,
        g_lo=opt.g_min,
        g_hi=opt.g_max,
        threshold=opt.threshold,
        g_tol=opt.g_tol,
        tol=opt.tol,
    )
    row = {
        "omega_c": opt.omega_c,
        "g_lo": opt.g_min,
        "g_hi": opt.g_max,
        "threshold": opt.threshold,
        "g_zero": crossing,
    }
    _write(render_rows(list(row), [row], opt.format), opt.output)
    return 0


def _add_common(sub: argparse.ArgumentParser, omega_c: bool = True, tol: bool = True) -> None:
    """``--omega-c`` unless the command is at resonance, ``--tol`` where it can
    run the exact solver, and the output flags."""
    if omega_c:
        sub.add_argument(
            "--omega-c", type=_positive_float, default=1.0,
            help="omega_c / omega_a (default %(default)s)",
        )  # fmt: skip
    if tol:
        sub.add_argument(
            "--tol", type=_positive_float, default=DEFAULT_TOL,
            help="exact solver's energy tolerance (default %(default)s)",
        )  # fmt: skip
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="output format (default %(default)s)",
    )  # fmt: skip
    sub.add_argument("--output", help="write to this path instead of stdout")
    sub.add_argument("--config", help="'key = value' file, each line read as --key=value")


def build_parser() -> _Parser:
    parser = _Parser(prog="rabi2q", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, (text, columns) in POINT_COMMANDS.items():
        sub = subparsers.add_parser(name, help=text)
        sub.add_argument(
            "--g", type=_nonnegative_float, required=True, help="coupling in units of omega_a"
        )
        _add_common(sub, tol=any("exact" in COLUMNS[column][0] for column in columns))
        sub.set_defaults(func=cmd_point, columns=columns)

    sub = subparsers.add_parser("table1", help="check the resonance energy benchmark")
    sub.add_argument(
        "--ref-tol", type=_positive_float, default=2e-5,
        help="comparison tolerance (default %(default)s)",
    )  # fmt: skip
    _add_common(sub, omega_c=False)  # at resonance by definition
    sub.set_defaults(func=cmd_table1)

    sub = subparsers.add_parser("sweep", help="scan a g grid, CSV/JSON per row")
    sub.add_argument("--g-min", type=_finite_float, default=0.0)
    sub.add_argument("--g-max", type=_finite_float, default=1.0)
    sub.add_argument("--steps", type=_positive_int, default=21)
    sub.add_argument(
        "--methods", type=_method_tuple, default=METHODS, help=f"subset of {','.join(METHODS)}"
    )
    sub.add_argument(
        "--outputs", type=_output_tuple, default=("energy",),
        help=f"subset of {','.join(OUTPUTS)}",
    )  # fmt: skip
    _add_common(sub)
    sub.set_defaults(func=cmd_sweep)

    sub = subparsers.add_parser(
        "find-zero", help="coupling where the exact negativity reaches numerical zero"
    )
    sub.add_argument(
        "--g-min", type=_nonnegative_float, default=1.5, help="bracket start (default %(default)s)"
    )
    sub.add_argument(
        "--g-max", type=_nonnegative_float, default=3.5, help="bracket end (default %(default)s)"
    )
    sub.add_argument(
        "--threshold",
        type=_positive_float,
        default=5e-6,
        help="negativity below this counts as zero (default %(default)s, half a unit "
        "in the benchmark table's fifth decimal)",
    )
    sub.add_argument(
        "--g-tol", type=_positive_float, default=1e-3,
        help="tolerance of the crossing in g (default %(default)s)",
    )  # fmt: skip
    _add_common(sub)
    sub.set_defaults(func=cmd_find_zero)

    return parser


# built once: parsing does not change a parser
_PARSER = build_parser()
# finds --config before the one full parse; a _Parser, so a bare --config exits 3
_CONFIG_PARSER = _Parser(prog="rabi2q", add_help=False)
_CONFIG_PARSER.add_argument("--config")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = _CONFIG_PARSER.parse_known_args(argv)[0].config
        if config:
            # after the subcommand: precedence is flag, then config file, then default
            argv[1:1] = _load_config(config)
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"rabi2q: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"rabi2q: error: {exc}", file=sys.stderr)
        return 1
