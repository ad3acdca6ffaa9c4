import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from rabi2q import FockTruncation, FockTruncationWarning, ModelParams, build_hamiltonian
from rabi2q import variational
from rabi2q.transform import dressed_levels
from rabi2q.variational import (
    energy_expectation,
    small_g_approx,
    solve,
    solve_grid,
    stationarity_residual,
    trial_state,
)

SQ2 = math.sqrt(2.0)
RESONANT = ModelParams(1.0, 1.0, 0.2)

# omega_c <= 0.3 has a window of g with two wells; g/omega_c reaches 100
WIDE_OMEGA_C = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0)
WIDE_G = np.linspace(0.0, 5.0, 501)


def profile_energy(alphas: np.ndarray, p: ModelParams) -> np.ndarray:
    """min over beta of <H> at each alpha: the lower eigenvalue of the beta quadratic form."""
    a = alphas * alphas * p.omega_c - 2.0 * alphas * p.g
    b_sq = 2.0 * p.omega_a**2 * np.exp(-alphas * alphas)
    return (a - np.sqrt(a * a + 2.0 * b_sq)) / 2.0


class TestEnergyExpectation:
    def test_a_value_does_not_depend_on_its_grid(self):
        # each element of an array result is the function at that element, as a
        # float and as a grid of one, bit for bit; the float formula with libm's
        # exp and hypot agrees to rounding
        rng = np.random.default_rng(3)
        alpha, beta, g = (rng.uniform(lo, hi, 2000) for lo, hi in ((0, 3), (-2, 0), (0, 3)))
        energy, residual = [], []
        for a, b, g_i in zip(alpha.tolist(), beta.tolist(), g.tolist()):
            e = 2.0 / (2.0 + b * b) * (
                a * a * 0.7 - 2.0 * a * g_i + SQ2 * b * 1.0 * math.exp(-a * a / 2.0)
            )
            big_a, big_b = a * a * 0.7 - 2.0 * a * g_i, SQ2 * 1.0 * math.exp(-a * a / 2.0)
            n_sq = 2.0 + b * b
            d_a = 2.0 * (2.0 * (a * 0.7 - g_i) - a * big_b * b) / n_sq
            d_b = 2.0 * (big_b * (2.0 - b * b) - 2.0 * big_a * b) / (n_sq * n_sq)
            energy.append(e)
            residual.append(math.hypot(d_a, d_b) / abs(e))
        for fn, reference in ((energy_expectation, energy), (stationarity_residual, residual)):
            values = fn(alpha, beta, ModelParams(1.0, 0.7, g)).tolist()
            floats = [
                fn(a, b, ModelParams(1.0, 0.7, g_i))
                for a, b, g_i in zip(alpha.tolist(), beta.tolist(), g.tolist())
            ]
            ones = [
                fn(alpha[i : i + 1], beta[i : i + 1], ModelParams(1.0, 0.7, g[i : i + 1])).item()
                for i in range(g.size)
            ]
            assert floats == values and ones == values
            np.testing.assert_allclose(values, reference, rtol=64 * np.finfo(float).eps, atol=0)

    def test_decoupled_ground_value(self):
        assert energy_expectation(0.0, -SQ2, ModelParams(1.0, 1.0, 0.0)) == pytest.approx(
            -1.0, abs=1e-14
        )

    def test_near_minimum_value(self):
        # direct substitution; the true minimum at g = 0.2 is -1.01013
        e = energy_expectation(0.1, -1.3930, RESONANT)
        assert e == pytest.approx(-1.0101255, abs=1e-6)
        assert abs(e - (-1.01013)) < 5e-6

    def test_zero_beta_reduces_to_displaced_oscillator(self):
        p = ModelParams(1.0, 1.0, 0.3)
        for alpha in (0.1, 0.3, 0.5):
            assert energy_expectation(alpha, 0.0, p) == pytest.approx(
                alpha * alpha - 2 * alpha * 0.3, abs=1e-14
            )
        assert energy_expectation(0.3, 0.0, p) == pytest.approx(-0.09, abs=1e-14)


class TestSolve:
    def test_decoupled(self):
        sol = solve(ModelParams(1.0, 1.0, 0.0))
        assert (sol.alpha, sol.beta, sol.energy) == (0.0, -SQ2, -1.0)

    @pytest.mark.parametrize("g,reference", [(0.2, -1.01013), (0.6, -1.10137)])
    def test_resonance_reference_energies(self, g, reference):
        assert abs(solve(ModelParams(1.0, 1.0, g)).energy - reference) < 2e-5

    def test_alpha_inside_root_selection_window(self):
        for g in (0.1, 0.5, 0.9, 1.2):
            for wc in (0.8, 1.0, 1.2):
                sol = solve(ModelParams(1.0, wc, g))
                assert 0.0 < sol.alpha < g / wc

    def test_stationarity_residuals_small(self):
        for g in np.arange(0.0, 1.25, 0.05):
            p = ModelParams(1.0, 1.0, float(g))
            sol = solve(p)
            assert stationarity_residual(sol.alpha, sol.beta, p) < 1e-14

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega_c", WIDE_OMEGA_C)
    def test_global_minimum_on_wide_grid(self, omega_c):
        fractions = np.linspace(0.0, 1.0, 4001)
        grid, errors = solve_grid(ModelParams(1.0, omega_c, WIDE_G))
        assert errors == {}
        for i, g in enumerate(WIDE_G.tolist()):
            p = ModelParams(1.0, omega_c, g)
            assert grid.energy[i] <= profile_energy(g / omega_c * fractions, p).min() + 1e-12
            assert stationarity_residual(grid.alpha[i], grid.beta[i], p) <= 1e-8

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "omega_c,g",
        [(0.2, 0.48), (0.05, 0.2), (0.05, 0.41), (1.0, 4.0), (0.1, 3.0), (0.1, 4.0), (0.05, 2.0)],
    )
    def test_regression_points(self, omega_c, g):
        # where a bounded minimizer lands in the metastable well, or rearranged
        # residuals divide by alpha beta or overflow exp(alpha^2 / 2)
        p = ModelParams(1.0, omega_c, g)
        sol = solve(p)
        assert sol.energy <= profile_energy(np.linspace(0.0, g / omega_c, 200001), p).min() + 1e-12
        assert stationarity_residual(sol.alpha, sol.beta, p) <= 1e-8

    @pytest.mark.parametrize(
        "omega_c,g,alpha,energy", [(0.2, 0.48, 2.36127, -1.15498), (0.05, 0.2, 0.20175, -1.01998)]
    )
    def test_global_well_chosen_over_metastable(self, omega_c, g, alpha, energy):
        sol = solve(ModelParams(1.0, omega_c, g))
        assert sol.alpha == pytest.approx(alpha, abs=1e-5)
        assert sol.energy == pytest.approx(energy, abs=1e-5)

    @pytest.mark.parametrize("omega_c,g", [(1.0, 0.0), (1.0, 0.4), (0.2, 0.48), (0.05, 2.0)])
    def test_carries_its_residual(self, omega_c, g):
        p = ModelParams(1.0, omega_c, g)
        sol = solve(p)
        assert sol.residual == stationarity_residual(sol.alpha, sol.beta, p)

    @pytest.mark.parametrize("omega_c,g", [(1e-160, 1.0), (1.0, 1e154)])
    def test_overflowing_profile_raises(self, omega_c, g):
        # the scan is all NaN at (1e-160, 1); the well's energy is -inf at (1, 1e154)
        with pytest.raises(RuntimeError, match="no well of finite energy"):
            solve(ModelParams(1.0, omega_c, g))

    def test_norm_sq(self):
        sol = solve(ModelParams(1.0, 1.0, 0.4))
        assert sol.norm_sq == pytest.approx(2.0 + sol.beta**2, abs=0.0)

    def test_beta_and_levels_are_one_closed_form(self):
        p = ModelParams(1.0, 0.2, 1.3)
        sol = solve(p)
        assert sol.levels.chi == sol.alpha
        assert sol.beta == sol.levels.lambda_minus
        assert sol.energy == energy_expectation(sol.alpha, sol.beta, p)

    @pytest.mark.parametrize(
        "omega_c,g", [(127520580.187, 77606893.9), (31754915.04, 26590690.999)]
    )
    def test_equivalence_check_is_relative(self, omega_c, g):
        # at |E| ~ 1e7 the two energy formulas differ by one ulp, above 1e-9
        sol = solve(ModelParams(1.0, omega_c, g))
        gap = abs(sol.levels.eps_minus - sol.energy)
        assert 1e-9 < gap <= 4e-16 * abs(sol.energy)

    def test_equivalence_violation_raises(self, monkeypatch):
        def shifted(alpha, beta, params, _fn=energy_expectation):
            return _fn(alpha, beta, params) * (1.0 + 2e-9)

        monkeypatch.setattr(variational, "energy_expectation", shifted)
        with pytest.raises(RuntimeError, match="equivalence violated"):
            solve(ModelParams(1.0, 1.0, 0.5))


def _bits(sol: variational.VariationalSolution, i=()) -> list[bytes]:
    """Every field of a solution (at index ``i`` of a grid), as the bytes of its float."""
    values = [sol.alpha, sol.energy, sol.residual]
    values += [getattr(sol.levels, f.name) for f in fields(sol.levels)]
    return [np.float64(np.asarray(v)[i]).tobytes() for v in values]


class TestSolveGrid:
    # g = 0, the two-well window at omega_c 0.1, tiny g down to 1e-250, the
    # omega_c 1e-5 sweep, and couplings without a finite well among good ones
    GRIDS = [
        (1.0, np.linspace(0.0, 5.0, 101)),
        (0.1, np.linspace(0.25, 0.45, 201)),
        (0.2, np.linspace(0.0, 2.0, 41)),
        (1.0, np.array([1e-250, 1e-200, 1e-155, 1e-100, 1e-20, 1e-6, 0.0, 0.4])),
        (1e-3, np.array([1e-250, 0.5])),
        (1e-5, np.linspace(1.0, 30.0, 30)),
        (1.0, np.array([0.5, 1e154, 2.0, 1e160])),
        (1e-160, np.array([0.0, 1.0, 2.0])),
    ]

    @pytest.mark.parametrize("omega_c,g", GRIDS)
    def test_grid_equals_points(self, omega_c, g):
        grid, errors = solve_grid(ModelParams(1.0, omega_c, g))
        for i, g_i in enumerate(g.tolist()):
            p = ModelParams(1.0, omega_c, g_i)
            if i in errors:
                with pytest.raises(RuntimeError) as excinfo:
                    solve(p)
                assert str(excinfo.value) == str(errors[i])
            else:
                assert _bits(grid, i) == _bits(solve(p))

    def test_failing_rows_leave_the_others_alone(self):
        g = np.array([0.5, 1e154, 2.0])
        grid, errors = solve_grid(ModelParams(1.0, 1.0, g))
        assert list(errors) == [1]
        assert "no well of finite energy" in str(errors[1])
        for i in (0, 2):
            assert _bits(grid, i) == _bits(solve(ModelParams(1.0, 1.0, float(g[i]))))

    def test_two_wells_per_row(self):
        # every coupling of this window has two wells, resolved in one bracketed_newton call
        g = np.linspace(0.25, 0.45, 201)
        calls = []

        def counted(f, xa, *ends, _fn=variational.bracketed_newton):
            calls.append(np.size(xa))
            return _fn(f, xa, *ends)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(variational, "bracketed_newton", counted)
            solve_grid(ModelParams(1.0, 0.1, g))
        assert len(calls) == 1 and calls[0] >= 2 * g.size

    # the two-well grid of test_cli's
    # test_approximate_sweep_prints_the_same_rows_as_csv_and_as_json, and the
    # deep-coupling bench grid, of one well per row
    @pytest.mark.parametrize("omega_c,g,two_well_rows", [
        (0.1, np.linspace(0.01, 0.6, 3001), 1036),
        (0.2, np.linspace(0.2, 2.0, 10), 0),
    ])  # fmt: skip
    def test_kept_root_is_the_one_of_lowest_energy(self, omega_c, g, two_well_rows):
        # solve_grid orders each coupling's roots by the profile; here every root
        # is found again and ordered by <H>, the lower alpha first among equals
        grid, errors = solve_grid(ModelParams(1.0, omega_c, g))
        assert not errors
        with np.errstate(all="ignore"):
            row, ends = variational._scan_brackets(1.0, omega_c, g, g / omega_c)
        roots = ends[1].copy()
        open_ = ends[3] != 0.0
        roots[open_] = TestBracketedNewton._roots(omega_c, g[row[open_]], ends[:, open_])
        on = ModelParams(1.0, omega_c, g[row])
        energy = energy_expectation(roots, dressed_levels(roots, on).lambda_minus, on)
        counts = np.bincount(row, minlength=g.size)
        assert counts.min() >= 1 and (counts >= 2).sum() == two_well_rows
        for i in range(g.size):
            alphas, energies = roots[row == i], energy[row == i]
            assert grid.alpha[i] == alphas[energies == energies.min()].min(), g[i]

    def test_does_not_import_scipy_optimize(self):
        src = str(Path(variational.__file__).resolve().parents[1])
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        probe = "import sys, rabi2q.variational; print('scipy.optimize' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "False\n"


def stationarity_slope(alpha, wa, wc, g):
    """f'(alpha) in the form ``solve_grid``'s docstring bounds:
    2 w_c + s (1 - 2 alpha w / R) - 4 alpha^2 w_a^2 exp(-alpha^2) / R."""
    a = alpha * alpha * wc - 2.0 * alpha * g
    r = np.sqrt(a * a + 4.0 * wa * wa * np.exp(-alpha * alpha))
    w = g - wc * alpha
    return 2.0 * wc + (r + a) * (1.0 - 2.0 * alpha * w / r) - 4.0 * alpha**2 * wa**2 * np.exp(
        -alpha * alpha
    ) / r


class TestOneWell:
    """Above omega_c = 2 omega_a / e the profile has one well, bracketed in closed form."""

    RATIOS = (2.0 / math.e + 1e-6, 1.0, 2.0, 10.0)

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("omega_a", [1.0, 0.3])
    def test_f_increases_from_below_zero_to_above(self, ratio, omega_a):
        wc = ratio * omega_a
        for g in np.geomspace(1e-3, 50.0, 40).tolist():
            alpha = np.linspace(0.0, g / wc, 4001)
            f = variational._stationarity(alpha, omega_a, wc, g)
            assert (np.diff(f) > 0.0).all(), g
            # s = 2B^2 / (R - A) does not increase
            a = alpha * alpha * wc - 2.0 * alpha * g
            b_sq = 2.0 * omega_a**2 * np.exp(-alpha * alpha)
            assert (np.diff(2.0 * b_sq / (np.sqrt(a * a + 2.0 * b_sq) - a)) <= 0.0).all(), g
            assert variational._stationarity(g / (omega_a + wc), omega_a, wc, g) <= 0.0
            # f(g/w_c) = alpha s >= 0, up to the rounding of 2 (alpha w_c - g) that
            # solve_grid clamps
            assert variational._stationarity(g / wc, omega_a, wc, g) >= -4.0 * np.spacing(g)

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_brackets_are_the_closed_form_one(self, ratio):
        # [g/(w_a + w_c), g/w_c] holds f < 0 at the left end and f >= 0 at the
        # right; at tiny g, where f at the left end rounds to >= 0, the bracket
        # is [0, g/w_c], with f(0) = -2g; g = 0 has none
        g = np.concatenate(([0.0, 1e-300, 1e-12, 1e-8, 1e-7], np.geomspace(1e-3, 50.0, 400)))
        top = g / ratio
        with np.errstate(divide="ignore", invalid="ignore"):
            row, (xa, xb, fa, fb) = variational._one_well_brackets(1.0, ratio, g, top)
        assert row.tolist() == list(range(1, g.size))
        g, top = g[row], top[row]
        assert (fa < 0.0).all() and (fb >= 0.0).all() and (xa <= xb).all()
        assert xb.tolist() == top.tolist()
        tiny = xa == 0.0
        assert tiny.any() and (g[tiny] < 1e-6).all()
        assert xa[~tiny].tolist() == (g[~tiny] / (1.0 + ratio)).tolist()
        assert fa[tiny].tolist() == (-2.0 * g[tiny]).tolist()
        assert fa.tolist() == variational._stationarity(xa, 1.0, ratio, g).tolist()
        f_right = variational._stationarity(xb, 1.0, ratio, g)
        assert fb.tolist() == np.where(f_right < 0.0, 0.0, f_right).tolist()

    @pytest.mark.parametrize("omega_c", [0.74, 1.0, 5.0, 1e20, 1e77])
    def test_an_overflowing_profile_has_no_bracket(self, omega_c):
        # where f at an end of [g/(w_a + w_c), g/w_c] is not finite, the 33-point
        # scan finds no sign change either, and the coupling has no finite well
        with np.errstate(all="ignore"):
            g = np.array([1e160, 1e200, 1e300, 1.7e308]) * max(1.0, omega_c)
            g = g[np.isfinite(g)]
            ends = variational._stationarity(np.stack((g / (1.0 + omega_c), g / omega_c)),
                                             1.0, omega_c, g)  # fmt: skip
            assert not np.isfinite(ends).all(axis=0).any()
            row, _ = variational._one_well_brackets(1.0, omega_c, g, g / omega_c)
            scan_row, _ = variational._scan_brackets(1.0, omega_c, g, g / omega_c)
        assert row.size == scan_row.size == 0
        _, errors = solve_grid(ModelParams(1.0, omega_c, g))
        assert sorted(errors) == list(range(g.size))
        assert all("no well of finite energy" in str(e) for e in errors.values())

    @pytest.mark.parametrize("omega_c", [0.74, 1.0, 5.0])
    def test_tiny_g_is_not_scanned(self, omega_c, monkeypatch):
        # each row is the one the 33-point scan solves, to an ulp of alpha; at
        # tiny g, alpha is g/(w_a + w_c) to an ulp, and E prints as -1 at 10
        # digits; the tiny g include the sweeps of 4 points to 1e-300 and of 9
        # points to 1e-8
        g = np.concatenate(([0.0, 5e-324], np.linspace(0.0, 1e-300, 4)[1:], [1e-200, 1e-12],
                            np.linspace(0.0, 1e-8, 9)[1:], [0.4]))  # fmt: skip
        params = ModelParams(1.0, omega_c, g)
        with monkeypatch.context() as mp:
            mp.setattr(variational, "_ONE_WELL", math.inf)  # every coupling scanned
            scanned, scan_errors = solve_grid(params)

        def no_scan(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(variational, "_scan_brackets", no_scan)
        grid, errors = solve_grid(params)
        assert errors == scan_errors == {}
        assert grid.energy.tolist() == scanned.energy.tolist()
        assert (np.abs(grid.alpha - scanned.alpha) <= np.spacing(scanned.alpha)).all()
        assert (grid.alpha[0], grid.energy[0]) == (0.0, -1.0)
        small = g[1:-1] / (1.0 + omega_c)
        assert (np.abs(grid.alpha[1:-1] - small) <= np.spacing(small)).all()
        assert {float("%.10g" % energy) for energy in grid.energy[:-1]} == {-1.0}

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_slope_is_f_prime_and_above_its_bound(self, ratio):
        rng = np.random.default_rng(11)
        g = rng.uniform(1e-3, 50.0, 2000)
        alpha = rng.uniform(0.0, 1.0, 2000) * g / ratio
        slope = stationarity_slope(alpha, 1.0, ratio, g)
        h = 1e-6 * np.maximum(alpha, 1e-3)
        f_plus, f_minus = (variational._stationarity(alpha + d, 1.0, ratio, g) for d in (h, -h))
        np.testing.assert_allclose((f_plus - f_minus) / (2.0 * h), slope, rtol=1e-6, atol=1e-9)
        assert (slope >= 2.0 * ratio - 4.0 / math.e).all()

    @pytest.mark.parametrize("omega_c", [0.74, 1.0, 5.0])
    def test_roots_are_the_scans_to_a_few_ulps(self, omega_c, monkeypatch):
        tiny = [1e-300, 1e-200, 1e-155, 1e-100, 1e-20, 1e-8]
        g = np.concatenate((tiny, np.linspace(0.0, 50.0, 2001), [1e150, 1e154]))
        params = ModelParams(1.0, omega_c, g)
        grid, errors = solve_grid(params)
        monkeypatch.setattr(variational, "_ONE_WELL", math.inf)  # every coupling scanned
        scanned, scan_errors = solve_grid(params)
        with np.errstate(all="ignore"):  # the scan finds no second well either
            row, _ = variational._scan_brackets(1.0, omega_c, g, g / omega_c)
        assert np.bincount(row).max() == 1
        assert {i: str(e) for i, e in errors.items()} == {
            i: str(e) for i, e in scan_errors.items()
        }
        # eps_- overflows at 1e150, so its row fails the equivalence check at a
        # root all the same; 1e154 has no well of finite energy
        assert list(errors) == [g.size - 2, g.size - 1]
        alpha, scan_alpha = grid.alpha[:-1], scanned.alpha[:-1]
        # each search stops within xtol = rtol = 1e-15 relative, some 4.5 ulps
        ulps = np.abs(alpha - scan_alpha) / np.spacing(scan_alpha)
        assert ulps.max() <= 8
        assert (ulps > 0).any()  # the two brackets are not the same search


def _brackets(omega_c, g):
    """``solve_grid``'s open brackets on a grid: each one's g, and its ends and
    f there as rows xa, xb, fa, fb."""
    with np.errstate(all="ignore"):
        one = omega_c > variational._ONE_WELL
        find = variational._one_well_brackets if one else variational._scan_brackets
        row, ends = find(1.0, omega_c, g, g / omega_c)
    open_ = ends[3] != 0.0
    return g[row[open_]], ends[:, open_]


def _newton_calls(omega_c, g):
    """``solve_grid`` on a grid, with the points of each iteration of its one
    ``bracketed_newton`` call, the brackets' indices and the ends it was given."""
    calls, real = [], variational.bracketed_newton

    def spy(f, xa, xb, fa, fb):
        def counted(x, k):
            calls.append((x.copy(), k.copy()))
            return f(x, k)

        calls.append((xa, xb))
        return real(counted, xa, xb, fa, fb)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variational, "bracketed_newton", spy)
        solution = solve_grid(ModelParams(1.0, omega_c, g))
    return solution, calls[0], calls[1:]


# the bench grids (approx-sweep, paper-sweep, deep-coupling) and the two-well grid
# of test_cli's test_approximate_sweep_prints_the_same_rows_as_csv_and_as_json
NEWTON_GRIDS = [
    (1.0, np.linspace(0.0, 5.0, 2001)),
    (1.0, np.linspace(0.0, 1.2, 241)),
    (0.2, np.linspace(0.2, 2.0, 10)),
    (0.1, np.linspace(0.01, 0.6, 3001)),
]


class TestBracketedNewton:
    """``bracketed_newton`` on the stationarity function, against
    ``scipy.optimize.brentq`` one bracket at a time."""

    @staticmethod
    def _roots(omega_c, g_open, ends):
        def f(x, k):
            return variational._stationarity(x, 1.0, omega_c, g_open[k], slope=True)

        return variational.bracketed_newton(f, *ends)

    @pytest.mark.parametrize("omega_c,g", NEWTON_GRIDS)
    def test_roots_are_brentqs_to_a_few_ulps(self, omega_c, g):
        g_open, ends = _brackets(omega_c, g)
        roots = self._roots(omega_c, g_open, ends)
        checked = 0
        for root, g_k, (xa, xb, _, _) in zip(roots.tolist(), g_open.tolist(), ends.T.tolist()):
            if root < 1e-10:
                continue
            reference = brentq(
                lambda x: float(variational._stationarity(x, 1.0, omega_c, g_k)),
                xa, xb, xtol=1e-300, rtol=1e-15,
            )  # fmt: skip
            assert abs(root - reference) <= 8 * math.ulp(reference), (g_k, root, reference)
            checked += 1
        assert checked >= 0.9 * g_open.size

    @pytest.mark.parametrize("omega_c,g", NEWTON_GRIDS)
    def test_f_at_the_roots_is_rounding(self, omega_c, g):
        # f's terms 2 alpha w_c, 2g and alpha s are at most about 2g in size
        g_open, ends = _brackets(omega_c, g)
        roots = self._roots(omega_c, g_open, ends)
        f = variational._stationarity(roots, 1.0, omega_c, g_open)
        assert (np.abs(f) <= 4.0 * np.finfo(float).eps * 2.0 * g_open).all()

    @pytest.mark.parametrize("omega_c,g", [NEWTON_GRIDS[0], NEWTON_GRIDS[1], NEWTON_GRIDS[3]])
    def test_given_end_values_are_not_evaluated_again(self, omega_c, g):
        _, (xa, xb), iterations = _newton_calls(omega_c, g)
        assert iterations
        for x, k in iterations:
            assert not ((x == xa[k]) | (x == xb[k])).any()

    @pytest.mark.parametrize(
        "omega_c,g,most",
        [
            (1.0, np.linspace(0.0, 5.0, 2001), 6),  # approx-sweep: 5
            # the one-well and two-well grids of test_cli's
            # test_approximate_sweep_prints_the_same_rows_as_csv_and_as_json
            (0.74, np.linspace(0.0, 50.0, 2001), 6),  # 5
            (5.0, np.linspace(0.0, 50.0, 2001), 6),  # 3
            (0.1, np.linspace(0.01, 0.6, 3001), 10),  # 8
        ],
    )
    def test_iterations(self, omega_c, g, most):
        # each iteration is one evaluation of f and f' on the open brackets
        _, _, iterations = _newton_calls(omega_c, g)
        assert 1 <= len(iterations) <= most

    def test_a_point_outside_the_bracket(self):
        # past an end by rounding it goes onto that end; further out, infinite
        # or NaN it goes to the midpoint
        x = np.array([1.25, 1.0 - 2**-53, 2.0 + 2**-51, 3.0, math.inf, -math.inf, math.nan])
        inside = variational._inside(x, np.ones(x.size), np.full(x.size, 2.0))
        assert inside.tolist() == [1.25, 1.0, 2.0, 1.5, 1.5, 1.5, 1.5]

    def test_a_bracket_that_does_not_converge_fails_its_row_alone(self, monkeypatch):
        # g = 0 has no bracket; at g = 30 f is 0 at g/w_c, whose root needs no
        # iteration; every other row needs more than one
        g = np.array([0.0, 0.4, 30.0, 1.2])
        grid, errors = solve_grid(ModelParams(1.0, 1.0, g))
        monkeypatch.setattr(variational, "_MAXITER", 1)
        capped, capped_errors = solve_grid(ModelParams(1.0, 1.0, g))
        assert errors == {} and list(capped_errors) == [1, 3]
        for i in (1, 3):
            assert str(capped_errors[i]) == (
                "no root of the stationarity condition found in a bracket "
                f"(omega_c=1.0, g={g[i].item()!r})"
            )
        for i in (0, 2):
            assert _bits(capped, i) == _bits(grid, i)

    def test_a_bracket_where_f_turns_nan_fails_its_row_alone(self, monkeypatch):
        # f is NaN inside one bracket, of the deeper well (alpha near 4.5) of
        # g = 0.45; the other well's root is found, but the row fails all the same
        g = np.linspace(0.25, 0.45, 21)
        grid, errors = solve_grid(ModelParams(1.0, 0.1, g))

        def poisoned(alpha, wa, wc, g_k, slope=False, _fn=variational._stationarity):
            out = _fn(alpha, wa, wc, g_k, slope)
            if slope:
                out[0][(alpha > 2.0) & (g_k == g[-1])] = math.nan
            return out

        monkeypatch.setattr(variational, "_stationarity", poisoned)
        spoiled, spoiled_errors = solve_grid(ModelParams(1.0, 0.1, g))
        assert errors == {} and list(spoiled_errors) == [g.size - 1]
        assert "no root of the stationarity condition" in str(spoiled_errors[g.size - 1])
        for i in range(g.size - 1):
            assert _bits(spoiled, i) == _bits(grid, i)


class TestSmallG:
    def test_zero_coupling(self):
        assert small_g_approx(ModelParams(1.0, 1.0, 0.0)) == (0.0, -SQ2)

    def test_resonance_values(self):
        alpha, beta = small_g_approx(RESONANT)
        assert alpha == pytest.approx(0.1, abs=1e-15)
        assert beta == pytest.approx(-SQ2 + 0.12 / (4 * SQ2), abs=1e-12)
        assert beta == pytest.approx(-1.39300, abs=1e-5)

    def test_detuned_alpha(self):
        alpha, _ = small_g_approx(ModelParams(1.0, 1.2, 0.3))
        assert alpha == pytest.approx(0.3 / 2.2, abs=1e-15)

    @pytest.mark.parametrize(
        "omega_c,g", [(1e-20, 1e-20), (1.0, 1e-6), (1.0, 1e-200), (1e-3, 1e-250)]
    )
    def test_tiny_alpha_is_resolved_relatively(self, omega_c, g):
        # at (1e-20, 1e-20) the root alpha ~ g/(w_a + w_c) = 1e-20 sits in a scan
        # bracket of width 1/32; below g ~ 1e-155 root-finding products underflow
        p = ModelParams(1.0, omega_c, g)
        sol = solve(p)
        assert sol.alpha == pytest.approx(small_g_approx(p)[0], rel=1e-12, abs=0.0)
        assert sol.residual <= 1e-15

    def test_alpha_error_scales_as_g_cubed(self):
        # |solve.alpha - g/(wa+wc)| / g^3 stays bounded as g -> 0
        ratios = []
        for g in (0.05, 0.025, 0.0125):
            sol = solve(ModelParams(1.0, 1.0, g))
            ratios.append(abs(sol.alpha - g / 2.0) / g**3)
        assert all(r < 0.2 for r in ratios)
        assert max(ratios) / min(ratios) < 1.1


class TestTrialState:
    def test_decoupled_state_is_lowest_jx_level(self):
        state = trial_state(0.0, -SQ2, FockTruncation(8))
        expected = np.zeros(27)
        expected[0], expected[1], expected[2] = 0.5, -SQ2 / 2.0, 0.5
        overlap = abs(state.coefficients @ expected)
        assert overlap == pytest.approx(1.0, abs=1e-14)

    def test_normalized(self):
        sol = solve(ModelParams(1.0, 1.0, 0.5))
        state = trial_state(sol.alpha, sol.beta, FockTruncation(40))
        assert np.linalg.norm(state.coefficients) == pytest.approx(1.0, abs=1e-12)

    def test_energy_matches_matrix_element(self):
        p = ModelParams(1.0, 1.0, 0.4)
        sol = solve(p)
        trunc = FockTruncation(48)
        state = trial_state(sol.alpha, sol.beta, trunc)
        h = build_hamiltonian(p, trunc)
        assert state.coefficients @ h @ state.coefficients == pytest.approx(
            sol.energy, abs=1e-9
        )

    def test_one_truncation_warning_per_trial_state(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trial_state(2.0, -0.5, FockTruncation(3))
        assert [w.category for w in caught] == [FockTruncationWarning]

    def test_formula_matches_matrix_element_on_random_inputs(self):
        # validates the closed form of <H> over the whole trial family
        rng = np.random.default_rng(2024)
        trunc = FockTruncation(60)
        for _ in range(50):
            alpha = rng.uniform(-1.0, 1.0)
            beta = rng.uniform(-2.0, 2.0)
            p = ModelParams(1.0, rng.uniform(0.8, 1.2), rng.uniform(0.0, 1.0))
            state = trial_state(alpha, beta, trunc)
            h = build_hamiltonian(p, trunc)
            assert state.coefficients @ h @ state.coefficients == pytest.approx(
                energy_expectation(alpha, beta, p), abs=1e-9
            )
