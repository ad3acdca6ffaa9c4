"""Command-line front end: single-point reports, parameter sweeps in g,
the resonance energy benchmark table, and the negativity zero locator.

All quantities are in units of the qubit splitting (omega_a = 1); detuning
enters as the ratio omega_c / omega_a.  CSV output is deterministic:
fixed column order, floats at 10 significant digits, newline-separated.

Every command is a projection of ``tabulate``, which fills a ``Table`` over
a grid of g, a column at a time: the variational solution and its correction
run once per grid, the exact ground state a chunk of rows at a time, and
each column is read from them as whole arrays, the exact ones chunk by chunk.
The table stays column-major until it is written: ``render_rows`` formats
the CSV rows straight from its columns, and ``evaluate`` is its dict view.

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
from operator import add, attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import entangle, transform, variational
from .model import DEFAULT_TOL, ModelParams

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

    def _parse_optional(self, arg_string):
        # argparse takes only -N and -N.N for negative numbers, and -1e-3 for a
        # flag; no flag here starts with a digit or a dot, so a number is a value
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


class _Grid:
    """The stages of ``evaluate`` over a grid of g at one omega_c, each run once,
    when a column first needs it, and each reporting the rows where it failed.
    The variational solution and its correction are one call over the grid,
    the exact stage one chunk of rows at a time; a raise fails every row."""

    def __init__(self, omega_c, g: np.ndarray, tol, columns: tuple[str, ...]):
        self.omega_c, self.g, self.tol = omega_c, g, tol
        self.reads = {stage for column in columns for stage in COLUMNS[column][0]}
        self._floats: dict[str, list[float]] = {}
        self._exact = None  # (the values read off the exact stage, its errors per stage)

    @cached_property
    def solution(self) -> tuple[variational.VariationalSolution | None, dict[int, Exception]]:
        try:
            return variational.solve_grid(ModelParams(1.0, self.omega_c, self.g))
        except Exception as exc:
            return None, dict.fromkeys(range(self.g.size), exc)

    def floats(self, name: str) -> list[float]:
        """A field of the solution (``alpha``, ``levels.chi``, ...), one float per row."""
        if name not in self._floats:
            self._floats[name] = attrgetter(name)(self.solution[0]).tolist()
        return self._floats[name]

    @cached_property
    def delta_e(self) -> tuple[list[float], dict[int, Exception]]:
        """The correction at the rows the solve did not fail; it fails where that did."""
        solution, failed = self.solution
        solved = np.ones(self.g.size, dtype=bool)
        solved[list(failed)] = False
        rows = np.flatnonzero(solved)
        values = np.full(self.g.size, math.nan)
        try:
            values[rows], errors = transform.perturbation_correction_grid(
                solution.levels.at(rows), ModelParams(1.0, self.omega_c, self.g[rows])
            )
        except Exception as exc:
            errors = dict.fromkeys(range(rows.size), exc)
        return values.tolist(), {**failed, **{rows[k].item(): exc for k, exc in errors.items()}}

    def errors(self, stage: str, alive: list[int]) -> dict[int, Exception]:
        """The rows where a stage failed, with their exceptions: "var", "delta_e",
        or one of the exact stage, which runs at the rows ``alive`` if it has not."""
        if stage in ("var", "delta_e"):
            return (self.solution if stage == "var" else self.delta_e)[1]
        return self.exact(alive)[1].get(stage, {})

    def read(self, name: str) -> list:
        """A value read off the exact stage, one per row (None where none was): a
        per-row value of ``exact.GroundStateChunk``, "negativity" or "fidelity"."""
        return self._exact[0][name]

    def exact(self, rows: list[int]) -> tuple[dict[str, list], dict[str, dict[int, Exception]]]:
        """The exact stage at ``rows``: the ground state of each, a chunk of rows
        at a time (``exact.ground_state_chunks``), and what the columns read off
        it before the chunk is dropped: its per-row values, the negativity if
        "rho" is read, and the fidelity to the variational trial state if
        "fidelity" is (at the rows where the solve did not fail, so the
        variational stage runs first).  Errors of the solve are those of
        "exact", of the fidelity those of "fidelity".  Every row of ``rows``
        is solved, and each gets what it would get alone."""
        if self._exact is None:
            from .exact import GroundStateChunk, ground_state_chunks  # loads scipy.linalg

            reads = (*GroundStateChunk.ROW_VALUES, "negativity", "fidelity")
            values = {name: [None] * self.g.size for name in reads}
            errors = {"exact": {}, "fidelity": {}}
            g = self.g[rows].tolist()
            chunks = ground_state_chunks(1.0, self.omega_c, g, self.tol)
            try:
                for chunk in chunks:
                    errors["exact"].update((rows[i], exc) for i, exc in chunk.errors.items())
                    self._read(chunk, [rows[i] for i in chunk.rows], values, errors["fidelity"])
                    del chunk  # before the next one is solved
            except Exception as exc:  # fails the rows not settled yet
                for row in rows:
                    if values["energy"][row] is None:
                        errors["exact"].setdefault(row, exc)
            self._exact = values, errors
        return self._exact

    def _read(self, chunk, at: list[int], values: dict[str, list], failures: dict) -> None:
        """Read the exact columns off a chunk whose accepted rows are ``at``."""
        read = {name: getattr(chunk, name) for name in chunk.ROW_VALUES}
        if "rho" in self.reads:
            read["negativity"] = entangle.negativity_stacked(
                chunk.vectors, chunk.starts, chunk.n_max
            )
        if "fidelity" in self.reads:
            solution, failed = self.solution
            picked = [i for i, row in enumerate(at) if row not in failed]
            alpha, beta = (self.floats(name) if picked else [] for name in ("alpha", "beta"))
            fidelities, errors = variational.trial_fidelities(
                [alpha[at[i]] for i in picked], [beta[at[i]] for i in picked], chunk.vectors,
                [chunk.starts[i] for i in picked], [chunk.n_max[i] for i in picked],
            )  # fmt: skip
            read["fidelity"] = [None] * len(at)
            for j, i in enumerate(picked):
                read["fidelity"][i] = fidelities[j]
            failures.update((at[picked[j]], exc) for j, exc in errors.items())
        for name, field in read.items():
            column = values[name]
            for row, value in zip(at, field):
                column[row] = value


def _solution(name: str):
    """The column of one field of the variational solution or of its dressed levels."""
    return ("var",), lambda grid: grid.floats(name)


def _trial(name: str):
    """The column of the closed form ``entangle.<name>`` of the trial state, at
    the solution's alpha and beta: one call over the grid."""
    def cells(grid: _Grid) -> list[float]:
        solution = grid.solution[0]
        return getattr(entangle, name)(solution.alpha, solution.beta).tolist()

    return ("var",), cells


def _negativity_small_g(grid: _Grid) -> list[float]:
    with np.errstate(over="ignore"):  # g^2 past the float range is inf, as for a float
        return entangle.negativity_small_g(ModelParams(1.0, grid.omega_c, grid.g)).tolist()


# Output column -> (the stages its value needs, its values for the whole grid,
# value(grid), one per row).  A stage's failures end a row at the first column
# that needs it; "exact", "rho" and "fidelity" are the exact stage's.
COLUMNS = {
    "g": ((), lambda grid: grid.g.tolist()),
    "omega_c": ((), lambda grid: [grid.omega_c] * grid.g.size),
    "negativity_small_g": ((), _negativity_small_g),
    "error": ((), lambda grid: [""] * grid.g.size),
    "energy_exact": (("exact",), lambda grid: grid.read("energy")),
    "n_max_used": (("exact",), lambda grid: grid.read("n_max")),
    "eig_residual": (("exact",), lambda grid: grid.read("residual")),
    "negativity_exact": (("exact", "rho"), lambda grid: grid.read("negativity")),
    "energy_variational": _solution("energy"),
    "energy": _solution("energy"),  # the variational command's name
    "alpha": _solution("alpha"),
    "beta": _solution("beta"),
    "norm_sq": _solution("norm_sq"),
    "stat_residual": _solution("residual"),
    "negativity_approx": _trial("negativity_closed_form"),
    "concurrence_approx": _trial("concurrence_approx"),
    "fidelity": (("var", "exact", "fidelity"), lambda grid: grid.read("fidelity")),
    "energy_transform": _solution("levels.eps_minus"),
    **{
        name: _solution(f"levels.{name}")
        for name in ("chi", "eta", "mu", "lambda_minus", "lambda_plus", "eps_minus", "eps_zero",
                     "eps_plus")
    },  # fmt: skip
    "delta_e": (("var", "delta_e"), lambda grid: grid.delta_e[0]),
    "energy_corrected": (
        ("var", "delta_e"),
        lambda grid: list(map(add, grid.floats("levels.eps_minus"), grid.delta_e[0])),
    ),
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


class Table(NamedTuple):
    """A table over a grid of g, column-major: ``cells[k]`` holds the values of
    ``columns[k]``, one per row, or is None where no row reached that column.
    ``ends`` maps each row that ended to the position of the column it ended
    at (-1 for a row that is no parameter point) and its exception; the cells
    of an ended row from its position on are placeholders, not values.
    ``g`` is the coupling of each row, which a row at -1 keeps."""

    columns: tuple[str, ...]
    cells: list[list | None]
    ends: dict[int, tuple[int, Exception]]
    g: list[float]

    def ended(self, row: int) -> dict:
        """A row that ended, as a dict: the columns before its position (or g
        alone, at -1) and its failure as "error"."""
        position, exc = self.ends[row]
        if position < 0:
            view = {"g": self.g[row]}
        else:
            view = {c: cells[row] for c, cells in zip(self.columns[:position], self.cells)}
        view["error"] = _message(exc)
        return view

    def dicts(self) -> list[dict]:
        """The rows as dicts, ``evaluate``'s view; a row that ended is ``ended``'s."""
        if self.cells and len(self.ends) < len(self.g):
            rows = [dict(zip(self.columns, cells)) for cells in zip(*self.cells)]
        else:  # every row ended, or there are no columns
            rows = [{} for _ in self.g]
        for row in self.ends:
            rows[row] = self.ended(row)
        return rows


def _message(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def tabulate(omega_c: float, g, columns: tuple[str, ...], tol: float | None) -> Table:
    """The values of ``columns`` (keys of COLUMNS) at each coupling of the grid
    ``g`` at ``omega_c``, as a ``Table``: one row per coupling.

    Each stage runs at most once per grid, and only when a column needs it at
    a live row: the variational solution with its dressed levels and the
    perturbative correction as one call over the grid, the exact ground state
    one chunk of rows at a time, with what its columns read off each chunk
    before the chunk is dropped.  ``tol`` goes to the exact solver.  The table
    is filled one column at a time, each column read from the stages' arrays
    at once.

    A row ends at the first column whose stage failed there, or whose values
    raised, and the other rows go on: a row's values and its failure are
    those of its grid of one.  A negative g, for one, ends its row at -1 with
    the ValueError of ``ModelParams``.  If ``columns`` holds "error", each
    ended row is in ``ends`` with its column's position and its failure;
    otherwise, once the table is filled, the failure of the lowest failing
    row is raised.
    """
    g = np.asarray(g, dtype=float)
    coupling = (0.0 <= g) & (g < math.inf)
    ends = {}  # row -> (the position of the column it ended at, or -1, and the exception)
    if not (np.count_nonzero(coupling) == g.size and 0.0 < omega_c < math.inf):
        # a row that is no parameter point ends before the first column
        for row, g_row in enumerate(g.tolist()):
            try:
                ModelParams(1.0, omega_c, g_row)
            except ValueError as exc:
                ends[row] = (-1, exc)
    # the grid solves 0 in place of a g that is no coupling
    grid = _Grid(omega_c, np.where(coupling, g, 0.0) if ends else g, tol, columns)
    alive = [row for row in range(g.size) if row not in ends]
    table = []
    for position, column in enumerate(columns):
        for stage in COLUMNS[column][0]:
            errors = grid.errors(stage, alive) if alive else None
            if errors:
                for row, exc in errors.items():
                    ends.setdefault(row, (position, exc))
                alive = [row for row in alive if row not in ends]
        cells = None
        if alive:
            try:
                cells = COLUMNS[column][1](grid)
            except Exception as exc:  # at every live row
                ends.update(dict.fromkeys(alive, (position, exc)))
                alive = []
        table.append(cells)

    if ends and "error" not in columns:
        raise ends[min(ends)][1]
    return Table(tuple(columns), table, ends, g.tolist())


def evaluate(omega_c: float, g, columns: tuple[str, ...], tol: float | None) -> list[dict]:
    """``tabulate``'s table as one dict per row, each with its values of
    ``columns``; a row that ended keeps the columns before the one it ended
    at (or g alone, if it is no parameter point) and has its failure as
    "error": a negative g gives a row of g and the ValueError of
    ``ModelParams``."""
    return tabulate(omega_c, g, columns, tol).dicts()


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
    precision of the benchmark table.  Brent's method on
    log(negativity / threshold), which is close to linear in g there, finds g
    within ``g_tol / 2`` of the crossing, given a bracket ``[g_lo, g_hi]``
    that straddles it and a positive ``g_tol``; otherwise this raises.  A
    negativity of 0 counts as the smallest positive double, so the log stays
    finite.  ``tol`` goes to the exact solver.
    """
    @cache  # brentq evaluates the bracket ends again
    def excess(g: float) -> float:
        (row,) = evaluate(omega_c, [g], ("negativity_exact",), tol)
        return math.log(max(row["negativity_exact"], _TINIEST) / threshold)

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


_TINIEST = math.ulp(0.0)  # the smallest positive double


def _jsonable(value):
    if isinstance(value, float):  # JSON has no inf or NaN
        return float(f"{value:.10g}") if math.isfinite(value) else None
    return value


def _template(kinds) -> str:
    """The %-template of a CSV row whose values have these types: floats at 10
    significant digits, None empty, anything else as ``str`` prints it."""
    return ",".join(
        "%.10g" if issubclass(kind, float) else "%.0s" if kind is type(None) else "%s"
        for kind in kinds
    )


def _quoted(text: str) -> str:
    """A CSV cell as the csv module's minimal quoting writes it: quoted, with
    its quotes doubled, if it holds a comma, a quote or a line break."""
    if any(mark in text for mark in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _ended_line(table: Table, row: int) -> str:
    """The CSV line of a row that ended: its cells of ``Table.ended``, the others empty."""
    view = table.ended(row)
    cells = [view.get(column) for column in table.columns]
    cells = [_quoted(cell) if isinstance(cell, str) else cell for cell in cells]
    return _template(map(type, cells)) % tuple(cells)


def render_rows(table: Table, fmt: str) -> str:
    """``table`` as CSV (a header, then one line per row) or as a JSON list of
    its rows as dicts (``Table.dicts``); floats at 10 significant digits.

    The CSV lines are written from the table's columns: the rows that did not
    end are formatted by one %-template, made from the types of the columns,
    and a str column (the error) is quoted where it must be (``_quoted``).  A
    row that ended is written from its own cells, with the columns it lacks
    empty (``_ended_line``).  No dict is built per row.
    """
    if fmt == "json":
        payload = [
            {c: _jsonable(row[c]) for c in table.columns if c in row} for row in table.dicts()
        ]
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    ends, count = table.ends, len(table.g)
    lines = [",".join(table.columns)]
    live = iter(())  # the lines of the rows that did not end, in grid order
    if len(ends) < count:
        first = next(row for row in range(count) if row not in ends)
        kinds = [type(column[first]) for column in table.cells]
        columns = [
            [text and _quoted(text) for text in column] if kind is str and any(column) else column
            for kind, column in zip(kinds, table.cells)
        ]
        rows = zip(*columns)
        if ends:  # an ended row's cells from its position on are placeholders
            rows = (cells for row, cells in enumerate(rows) if row not in ends)
        live = map(_template(kinds).__mod__, rows)
    if ends:
        lines += [_ended_line(table, row) if row in ends else next(live) for row in range(count)]
    else:
        lines += live
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
    table = tabulate(opt.omega_c, [opt.g], opt.columns, getattr(opt, "tol", None))
    _write(render_rows(table, opt.format), opt.output)
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
    grid, *refs = map(list, zip(*REFERENCE_ENERGIES))
    computed = tabulate(1.0, grid, columns[1:4], opt.tol).cells
    mismatches = []
    for row, g in enumerate(grid):
        for name, column, ref in zip(columns[1:4], computed, refs):
            have, want = column[row], ref[row]
            if abs(have - want) > opt.ref_tol:
                mismatches.append(
                    f"g={g}: {name} computed {have:.7f} vs reference {want:.5f} "
                    f"(|diff|={abs(have - want):.2e} > {opt.ref_tol:g})"
                )
    cells = [grid, *([round(have, 5) for have in column] for column in computed), *refs]
    _write(render_rows(Table(columns, cells, {}, grid), opt.format), opt.output)
    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        return 2
    return 0


def cmd_sweep(opt: argparse.Namespace) -> int:
    if opt.g_min > opt.g_max:
        raise UsageError(f"g_min={opt.g_min} exceeds g_max={opt.g_max}")
    columns = sweep_columns(opt.methods, opt.outputs)
    table = tabulate(opt.omega_c, np.linspace(opt.g_min, opt.g_max, opt.steps), columns, opt.tol)
    _write(render_rows(table, opt.format), opt.output)
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
    columns = ("omega_c", "g_lo", "g_hi", "threshold", "g_zero")
    cells = [[opt.omega_c], [opt.g_min], [opt.g_max], [opt.threshold], [crossing]]
    _write(render_rows(Table(columns, cells, {}, [crossing]), opt.format), opt.output)
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
