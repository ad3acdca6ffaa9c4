"""The benchmark's workloads: seeded CLI arguments and checks of their output.

Each workload is one ``rabi2q`` command, repeated.  Seed 0 gives the grids
below exactly.  Any other seed shifts a sweep's grid up by a seeded fraction
(below ``SWEEP_SHIFT``) of one step, and both ends of the find-zero bracket up
by the same seeded amount (below ``BRACKET_SHIFT``), so the bracket keeps its
width, and so its number of bisections, and the crossing stays inside.  The
shifts are small so the work per call, the truncation ladders and the
failing rows stay close to seed 0's.

Checks read the command's CSV output.  Values there carry 10 significant
digits, so each comparison allows the rounding of the values it compares.
Rows with an error are counted, never checked and never a gate failure.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

import numpy as np

ALL_METHODS = "exact,variational,transform,corrected"
ALL_OUTPUTS = "energy,alpha,beta,fidelity,negativity_exact,negativity_approx"
SWEEP_SHIFT = 0.15  # of one grid step
BRACKET_SHIFT = 0.1  # in g, the same for both bracket ends
FIND_ZERO_BRACKET = (1.5, 3.5)
FIND_ZERO_SEED0 = 2.66552734375  # g_zero as seed 0 prints it (resonance, default threshold)
FIND_ZERO_G_TOL = 1e-3  # the command's default --g-tol
EQUIVALENCE_TOL = 1e-9


class GateError(Exception):
    """The program's output broke a correctness check."""


def _rounding(x: float) -> float:
    """Largest error of printing ``x`` at 10 significant digits."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 9) if x else 0.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _le(a: float, b: float, what: str) -> None:
    _require(a <= b + _rounding(a) + _rounding(b), f"{what}: {a!r} > {b!r}")


@dataclass(frozen=True)
class Sweep:
    name: str
    omega_c: float
    g_min: float
    g_max: float
    steps: int
    methods: str
    outputs: str

    @property
    def rows(self) -> int:
        """Rows one call attempts."""
        return self.steps

    def grid(self, seed: int) -> tuple[float, float]:
        step = (self.g_max - self.g_min) / (self.steps - 1)
        shift = 0.0 if seed == 0 else SWEEP_SHIFT * step * random.Random(f"{self.name}:{seed}").random()
        return self.g_min + shift, self.g_max + shift

    def argv(self, seed: int) -> list[str]:
        g_min, g_max = self.grid(seed)
        return [
            "sweep", "--omega-c", repr(self.omega_c), "--g-min", repr(g_min),
            "--g-max", repr(g_max), "--steps", str(self.steps),
            "--methods", self.methods, "--outputs", self.outputs,
        ]  # fmt: skip

    def check(self, seed: int, text: str) -> tuple[int, int]:
        """Gate one call's output; return (rows attempted, rows failed)."""
        rows = list(csv.DictReader(io.StringIO(text)))
        grid = np.linspace(*self.grid(seed), self.steps)
        _require(len(rows) == self.steps, f"{len(rows)} rows, expected {self.steps}")
        failed = 0
        for row, g in zip(rows, grid):
            _require(abs(float(row["g"]) - g) <= _rounding(g) + 1e-15, f"row g={row['g']} is not {g!r}")
            if row["error"]:
                failed += 1
                continue
            values = {k: float(v) for k, v in row.items() if k != "error"}
            self.check_row(values)
        return len(rows), failed

    def check_row(self, row: dict[str, float]) -> None:
        raise NotImplementedError


class PaperSweep(Sweep):
    def check_row(self, row):
        _le(row["energy_exact"], row["energy_variational"], f"g={row['g']}: exact above variational")
        _require(row["fidelity"] <= 1.0, f"g={row['g']}: fidelity {row['fidelity']!r} > 1")
        for key in ("negativity_exact", "negativity_approx"):
            _require(0.0 <= row[key] <= 0.5, f"g={row['g']}: {key} {row[key]!r} outside [0, 0.5]")


class DeepCoupling(Sweep):
    def check_row(self, row):
        g, e_exact = row["g"], row["energy_exact"]
        # omega_c a'a + g (a + a') Jz >= -g^2/omega_c and omega_a Jx >= -omega_a
        _le(-1.0 - g * g / self.omega_c, e_exact, f"g={g}: exact below the lower bound")
        _le(e_exact, row["energy_variational"], f"g={g}: exact above variational")


class ApproxSweep(Sweep):
    def check_row(self, row):
        a, b = row["energy_transform"], row["energy_variational"]
        _require(
            abs(a - b) <= EQUIVALENCE_TOL + _rounding(a) + _rounding(b),
            f"g={row['g']}: energy_transform {a!r} != energy_variational {b!r}",
        )


@dataclass(frozen=True)
class FindZero:
    name: str
    rows = 1  # one search, one result row

    def bracket(self, seed: int) -> tuple[float, float]:
        lo, hi = FIND_ZERO_BRACKET
        if seed == 0:
            return lo, hi
        shift = BRACKET_SHIFT * random.Random(f"{self.name}:{seed}").random()
        return lo + shift, hi + shift

    def argv(self, seed: int) -> list[str]:
        if seed == 0:
            return ["find-zero"]
        lo, hi = self.bracket(seed)
        return ["find-zero", "--g-min", repr(lo), "--g-max", repr(hi)]

    def check(self, seed: int, text: str) -> tuple[int, int]:
        (row,) = list(csv.DictReader(io.StringIO(text)))
        g_zero = float(row["g_zero"])
        _require(
            abs(g_zero - FIND_ZERO_SEED0) <= FIND_ZERO_G_TOL,
            f"g_zero {g_zero!r} is not within {FIND_ZERO_G_TOL:g} of {FIND_ZERO_SEED0}",
        )
        return 1, 0


WORKLOADS = {
    w.name: w
    for w in (
        PaperSweep("paper-sweep", 1.0, 0.0, 1.2, 241, ALL_METHODS, ALL_OUTPUTS),
        DeepCoupling("deep-coupling", 0.2, 0.2, 2.0, 10, ALL_METHODS, ALL_OUTPUTS),
        ApproxSweep(
            "approx-sweep", 1.0, 0.0, 5.0, 2001,
            "variational,transform,corrected", "energy,alpha,beta,negativity_approx",
        ),
        FindZero("zero-search"),
    )
}  # fmt: skip
