import math
import warnings

import numpy as np
import pytest

from rabi2q import FockTruncation, FockTruncationWarning, ModelParams, build_hamiltonian
from rabi2q import variational
from rabi2q.variational import (
    energy_expectation,
    small_g_approx,
    solve,
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
        for g in WIDE_G:
            p = ModelParams(1.0, omega_c, float(g))
            sol = solve(p)
            assert sol.energy <= profile_energy(g / omega_c * fractions, p).min() + 1e-12
            assert stationarity_residual(sol.alpha, sol.beta, p) <= 1e-8

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
