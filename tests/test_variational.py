import math
import os
import re
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
from rabi2q.variational import (
    energy_expectation,
    masked_brentq,
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
    def test_arrays_take_libm_exp_and_hypot(self):
        rng = np.random.default_rng(3)
        alpha, beta, g = (rng.uniform(lo, hi, 2000) for lo, hi in ((0, 3), (-2, 0), (0, 3)))
        p = ModelParams(1.0, 0.7, g)
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
        assert energy_expectation(alpha, beta, p).tolist() == energy
        assert stationarity_residual(alpha, beta, p).tolist() == residual

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
        # every coupling of this window has two wells, resolved in one masked Brent
        g = np.linspace(0.25, 0.45, 201)
        calls = []

        def counted(f, xa, xb, _fn=masked_brentq):
            calls.append(np.size(xa))
            return _fn(f, xa, xb)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(variational, "masked_brentq", counted)
            solve_grid(ModelParams(1.0, 0.1, g))
        assert len(calls) == 1 and calls[0] >= 2 * g.size

    def test_does_not_import_scipy_optimize(self):
        src = str(Path(variational.__file__).resolve().parents[1])
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        probe = "import sys, rabi2q.variational; print('scipy.optimize' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "False\n"


class TestMaskedBrentq:
    """``masked_brentq`` against ``scipy.optimize.brentq``, one bracket at a time."""

    @staticmethod
    def _functions(n, rng):
        # f_k(x) = h_k((x - c_k) / s_k) from five shapes, written with + - * / and
        # sqrt only, so f is the same float whether evaluated on an array or alone
        scale = 10.0 ** rng.integers(-300, 300, n)
        centre = rng.uniform(-1.0, 1.0, n) * scale
        shape = rng.integers(0, 5, n)

        def f(x, k):
            u = (x - centre[k]) / scale[k]
            return np.select(
                [shape[k] == 0, shape[k] == 1, shape[k] == 2, shape[k] == 3],
                [u, u / (1.0 + np.abs(u)) + u * u * u / 6.0, np.sign(u) * np.sqrt(np.abs(u)),
                 u * u * u + 0.1 * u],
                np.floor(8.0 * u) / 8.0,  # exactly 0 on [0, 1/8): hit mid-iteration
            )  # fmt: skip

        lo = centre - rng.uniform(0.01, 2.0, n) * scale
        hi = centre + rng.uniform(0.01, 2.0, n) * scale
        # f = 0 exactly at a bracket end
        lo[:20] = np.where(shape[:20] == 0, centre[:20], lo[:20])
        hi[20:40] = np.where(shape[20:40] == 0, centre[20:40], hi[20:40])
        return f, lo, hi

    def test_roots_equal_brentq_bit_for_bit(self):
        n = 1000
        f, lo, hi = self._functions(n, np.random.default_rng(7))
        roots = masked_brentq(f, lo, hi)
        steps = []
        for k in range(n):
            calls = []

            def one(x, k=k):
                calls.append(x)
                return float(f(np.array([x]), np.array([k]))[0])

            assert roots[k] == brentq(one, lo[k], hi[k], xtol=1e-15, rtol=1e-15), k
            steps.append(len(calls))
        assert len(set(steps)) > 10  # brackets converge after different numbers of steps
        assert min(steps) == 2  # an end that is a root

    def test_raises_where_brentq_raises(self, monkeypatch):
        def f(x, k):
            return x * x * x - 2.0

        for a, b, maxiter in [(3.0, 5.0, 100), (0.0, 4.1, 3)]:
            with pytest.raises((ValueError, RuntimeError)) as expected:
                brentq(lambda x: f(x, 0), a, b, xtol=1e-15, rtol=1e-15, maxiter=maxiter)
            monkeypatch.setattr(variational, "_MAXITER", maxiter)
            with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
                masked_brentq(f, np.array([0.0, a]), np.array([4.0, b]))


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
