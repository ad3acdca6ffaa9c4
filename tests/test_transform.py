import math
import warnings

import numpy as np
import pytest

from rabi2q import ModelParams
from rabi2q.model import FockTruncation, spin1_matrices
from rabi2q.transform import (
    PerturbationValidityWarning,
    dressed_levels,
    perturbation_correction,
    perturbation_correction_grid,
    perturbation_sum_over_states,
)
from rabi2q import variational
from rabi2q.variational import energy_expectation

SQ2 = math.sqrt(2.0)

WIDE_OMEGA_C = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0)
WIDE_G = np.linspace(0.0, 5.0, 501)
RESONANT = ModelParams(1.0, 1.0, 0.2)


def _levels(p):
    """The dressed levels at the variational alpha, as the variational solve carries them."""
    return variational.solve(p).levels


def _beta_condition_terms(lam, chi, p):
    """The three terms of d<H>/dbeta = 0 at alpha = chi: B beta^2 + 2 A beta - 2 B."""
    a = chi * chi * p.omega_c - 2.0 * chi * p.g
    b = SQ2 * p.omega_a * math.exp(-chi * chi / 2.0)
    return b * lam * lam, 2.0 * a * lam, -2.0 * b


def _dressed_vector(lam):
    """(|1> + lam |0> + |-1>) normalized, for the dressed-level weights."""
    if math.isinf(lam):
        return np.array([0.0, math.copysign(1.0, lam), 0.0])
    return np.array([1.0, lam, 1.0]) / math.sqrt(2.0 + lam * lam)


def _dressed_vectors(sol):
    """The minus, zero and plus dressed eigenvectors as columns."""
    zero = np.array([1.0, 0.0, -1.0]) / SQ2
    plus, minus = _dressed_vector(sol.lambda_plus), _dressed_vector(sol.lambda_minus)
    return np.column_stack([minus, zero, plus])


class TestDressedLevels:
    def test_zero_displacement_gives_bare_spectrum(self):
        sol = dressed_levels(0.0, ModelParams(1.0, 1.0, 0.5))
        assert sol.mu == 0.0
        assert sol.eps_minus == pytest.approx(-1.0, abs=1e-14)
        assert sol.eps_zero == 0.0
        assert sol.eps_plus == pytest.approx(1.0, abs=1e-14)
        assert sol.lambda_minus == pytest.approx(-SQ2, abs=1e-14)
        assert sol.lambda_plus == pytest.approx(SQ2, abs=1e-14)

    def test_against_dense_3x3_eigensolve(self):
        rng = np.random.default_rng(5)
        ops = spin1_matrices()
        jz2 = (ops.jz @ ops.jz).real
        for _ in range(25):
            chi = rng.uniform(-1.5, 1.5)
            p = ModelParams(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0, 1.5))
            sol = dressed_levels(chi, p)
            atom = sol.eta * p.omega_a * ops.jx.real - (
                2 * p.g * chi - p.omega_c * chi * chi
            ) * jz2
            eps, vecs = np.linalg.eigh(atom)
            np.testing.assert_allclose(
                [sol.eps_minus, sol.eps_zero, sol.eps_plus], eps, atol=1e-12
            )
            for closed, column in zip(_dressed_vectors(sol).T, vecs.T):
                assert abs(abs(closed @ column) - 1.0) < 1e-12

    def test_eigenvector_orthonormality(self):
        sol = dressed_levels(0.8, ModelParams(1.0, 1.0, 0.9))
        basis = _dressed_vectors(sol)
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-14)

    def test_level_ordering(self):
        for chi, g in [(0.2, 0.3), (0.7, 0.9), (1.1, 1.2)]:
            sol = dressed_levels(chi, ModelParams(1.0, 1.0, g))
            assert sol.eps_plus > sol.eps_zero > sol.eps_minus

    def test_lambda_product(self):
        for chi in (0.1, 0.5, 1.3):
            sol = dressed_levels(chi, ModelParams(1.0, 1.2, 0.8))
            assert sol.lambda_minus * sol.lambda_plus == pytest.approx(-2.0, rel=1e-12)
        rng = np.random.default_rng(11)
        for _ in range(40):
            chi = rng.uniform(-1.5, 1.5)
            p = ModelParams(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0, 1.5))
            sol = dressed_levels(chi, p)
            assert sol.lambda_minus * sol.lambda_plus == pytest.approx(-2.0, rel=1e-12)

    def test_lambda_pair_solves_the_beta_condition(self):
        # both lambdas are stationary points of <H> over beta at alpha = chi
        rng = np.random.default_rng(3)
        for _ in range(20):
            chi = rng.uniform(0.05, 1.0)
            p = ModelParams(1.0, rng.uniform(0.8, 1.2), rng.uniform(0.1, 1.0))
            sol = dressed_levels(chi, p)
            for lam in (sol.lambda_minus, sol.lambda_plus):
                terms = _beta_condition_terms(lam, chi, p)
                assert abs(sum(terms)) < 1e-14 * sum(abs(t) for t in terms)

    def test_lambda_minus_minimizes_the_trial_energy(self):
        sol = dressed_levels(0.1, RESONANT)
        assert sol.lambda_minus == pytest.approx(-1.3930547, abs=1e-6)
        grid = np.linspace(-3.0, 3.0, 600001)
        energies = [energy_expectation(0.1, b, RESONANT) for b in grid]
        assert grid[int(np.argmin(energies))] == pytest.approx(sol.lambda_minus, abs=2e-5)
        p = ModelParams(1.0, 1.0, 0.6)
        sol = dressed_levels(0.4, p)
        assert energy_expectation(0.4, sol.lambda_minus, p) < energy_expectation(
            0.4, sol.lambda_plus, p
        )

    @pytest.mark.parametrize("omega_c,g", [(1.0, 4.0), (0.05, 5.0), (1.2, 0.8), (1.0, 0.5)])
    def test_pairs_without_cancellation(self, omega_c, g):
        # the direct (mu - sqrt(4 + mu^2)) / sqrt2 cancels to 0.0 where beta ~ -1e-9,
        # and the direct lower beta root gives the product -1.99999977 at (1, 4), chi = 4
        p = ModelParams(1.0, omega_c, g)
        for chi in np.linspace(0.0, 37.0, 371):
            sol = dressed_levels(float(chi), p)
            assert sol.lambda_minus * sol.lambda_plus == pytest.approx(-2.0, rel=1e-14)
            terms = _beta_condition_terms(sol.lambda_minus, float(chi), p)
            assert abs(sum(terms)) < 1e-14 * sum(abs(t) for t in terms)
            c = sol.eta * p.omega_a
            assert sol.eps_minus * sol.eps_plus == pytest.approx(-c * c, rel=1e-14)

    @pytest.mark.parametrize("omega_c,g", [(1.0, 4.0), (0.05, 5.0)])
    def test_lambda_limits_once_exp_underflows(self, omega_c, g):
        p = ModelParams(1.0, omega_c, g)
        for chi in (38.0, 39.0, 40.0, 100.0):
            sol = dressed_levels(chi, p)
            if 2.0 * g * chi - omega_c * chi * chi < 0.0:  # the m=0 level is the lowest
                assert sol.lambda_minus == -math.inf and 0.0 <= sol.lambda_plus < 1e-300
            else:  # the displaced pair is the lowest
                assert -1e-300 < sol.lambda_minus <= 0.0 and sol.lambda_plus == math.inf

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega_c", (1e-5, 0.05, 0.2, 1.0, 2.0))
    def test_eps_minus_is_the_trial_energy_at_lambda_minus(self, omega_c):
        # one energy, two formulas: eps_- and <H>(chi, lambda_-), over the
        # wells' range [0, g/w_c], deep coupling and underflowed exp(-chi^2/2) included
        for g in (0.01, 0.3, 1.0, 5.0, 30.0):
            p = ModelParams(1.0, omega_c, g)
            for chi in np.linspace(0.0, g / omega_c, 101):
                sol = dressed_levels(float(chi), p)
                trial = energy_expectation(float(chi), sol.lambda_minus, p)
                assert abs(sol.eps_minus - trial) <= 1e-12 * abs(trial)

    @pytest.mark.filterwarnings("error")
    def test_no_division_by_vanishing_eta(self):
        p = ModelParams(1.0, 0.05, 5.0)
        for chi in (39.0, 40.0, 100.0):
            sol = dressed_levels(chi, p)
            d = 2.0 * p.g * chi - p.omega_c * chi * chi
            assert sol.eta == 0.0 and sol.mu == math.inf
            # no Jx coupling left: |-> meets the antisymmetric level, |+> is m=0
            assert sol.eps_minus == sol.eps_zero == pytest.approx(-d, rel=1e-15)
            assert sol.eps_plus == 0.0
            assert sol.lambda_minus == 0.0 and sol.lambda_plus == math.inf
            vec_minus, _, vec_plus = _dressed_vectors(sol).T
            np.testing.assert_array_equal(vec_plus, [0.0, 1.0, 0.0])
            np.testing.assert_array_equal(vec_minus, np.array([1.0, 0.0, 1.0]) / SQ2)


class TestVariationalLevels:
    @pytest.mark.parametrize("g,reference", [(0.8, -1.19965), (1.2, -1.62699)])
    def test_resonance_reference_energies(self, g, reference):
        assert abs(_levels(ModelParams(1.0, 1.0, g)).eps_minus - reference) < 2e-5

    def test_decoupled(self):
        sol = _levels(ModelParams(1.0, 1.0, 0.0))
        assert sol.chi == 0.0
        assert sol.eps_minus == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega_c", WIDE_OMEGA_C)
    def test_equivalence_check_holds_on_wide_grid(self, omega_c):
        p = ModelParams(1.0, omega_c, WIDE_G)
        var, errors = variational.solve_grid(p)
        assert errors == {}  # a row fails if eps_- departs from the trial energy
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerturbationValidityWarning)
            correction = perturbation_correction(var.levels, p)
        assert np.isfinite(correction).all() and (correction <= 0.0).all()

    def test_equivalence_with_variational(self):
        # chi = alpha, lambda_- = beta, eps_- = E_v
        for wc in (0.8, 1.0, 1.2):
            for g in (0.2, 0.7, 1.1):
                p = ModelParams(1.0, wc, g)
                var = variational.solve(p)
                sol = var.levels
                assert sol.chi == var.alpha
                assert sol.lambda_minus == var.beta
                assert abs(sol.eps_minus - var.energy) < 1e-9


class TestPerturbationCorrection:
    def test_arrays_take_libm_exp_and_pow(self):
        # numpy's SIMD exp and power differ from libm in the last bit on a few
        # percent of arguments; on an array each value is the float formula's
        rng = np.random.default_rng(1)
        chi, g, wc = rng.uniform(0.0, 3.0, 2000), rng.uniform(0.0, 3.0, 2000), 0.7
        p = ModelParams(1.0, wc, g)
        sol = dressed_levels(chi, p)
        assert sol.eta.tolist() == [math.exp(-c * c / 2.0) for c in chi.tolist()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerturbationValidityWarning)
            correction = perturbation_correction(sol, p)
        fields = (sol.chi, sol.n_minus_sq, sol.n_plus_sq, sol.eps_minus, sol.eps_zero, sol.eps_plus)
        assert correction.tolist() == [
            -(2.0 * c**4 / nm) * (2.0 * ep**2 / (nm * wc) + e0**2 / (npl * (2.0 * wc + ep - em)))
            for c, nm, npl, em, e0, ep in zip(*(f.tolist() for f in fields))
        ]

    @pytest.mark.parametrize("g,reference", [(0.6, -1.10403), (1.0, -1.39094)])
    def test_corrected_energy_reference(self, g, reference):
        p = ModelParams(1.0, 1.0, g)
        sol = _levels(p)
        corrected = sol.eps_minus + perturbation_correction(sol, p)
        assert abs(corrected - reference) < 2e-5

    def test_zero_displacement_gives_zero_shift(self):
        p = ModelParams(1.0, 1.0, 0.5)
        assert perturbation_correction(dressed_levels(0.0, p), p) == 0.0

    @pytest.mark.filterwarnings("ignore::rabi2q.transform.PerturbationValidityWarning")
    def test_correction_never_positive(self):
        for wc in (0.8, 1.0, 1.2):
            for g in np.arange(0.1, 1.25, 0.1):
                p = ModelParams(1.0, wc, float(g))
                sol = _levels(p)
                assert perturbation_correction(sol, p) <= 0.0

    def test_warns_outside_expansion_regime(self):
        p = ModelParams(1.0, 0.8, 1.1)
        sol = _levels(p)
        assert sol.chi >= 1.0
        message = rf"^chi={sol.chi:.4f} >= 1 is outside"
        with pytest.warns(PerturbationValidityWarning, match=message):
            perturbation_correction(sol, p)

    def test_one_warning_per_grid(self):
        # it counts the points with chi >= 1 and names their g range and largest chi
        p = ModelParams(1.0, 1.0, np.linspace(0.5, 3.0, 6))
        var, errors = variational.solve_grid(p)
        outside = var.alpha >= 1.0
        assert errors == {} and 1 < outside.sum() < 6
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            correction = perturbation_correction(var.levels, p)
        assert [w.category for w in caught] == [PerturbationValidityWarning]
        assert str(caught[0].message).startswith(
            f"{outside.sum()} of 6 points (g from {p.g[outside].min():g} to 3) have chi >= 1, "
            f"up to chi={var.alpha.max():.4f}; they are outside the expansion's stated regime"
        )
        for i, g in enumerate(p.g.tolist()):
            one = ModelParams(1.0, 1.0, g)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PerturbationValidityWarning)
                assert correction[i] == perturbation_correction(_levels(one), one)

    def test_grid_keeps_the_points_that_do_not_overflow(self):
        # chi^4 overflows at chi = 1e78 only; the float form raises there
        p = ModelParams(1.0, 1.0, np.array([0.3, 1e78, 0.6]))
        sol = dressed_levels(np.array([0.25, 1e78, 0.4]), p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PerturbationValidityWarning)
            values, errors = perturbation_correction_grid(sol, p)
            assert list(errors) == [1] and isinstance(errors[1], OverflowError)
            for i in (0, 2):
                one = ModelParams(1.0, 1.0, p.g[i].item())
                levels = dressed_levels(sol.chi[i].item(), one)
                assert values[i] == perturbation_correction(levels, one)
            with pytest.raises(OverflowError):
                perturbation_correction(sol.at(np.array([1])), ModelParams(1.0, 1.0, p.g[1:2]))

    def test_warning_as_error_fails_the_points_outside(self):
        p = ModelParams(1.0, 1.0, np.array([0.3, 1.5, 0.6]))
        sol = dressed_levels(np.array([0.25, 1.2, 0.4]), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, errors = perturbation_correction_grid(sol, p)
            with pytest.raises(PerturbationValidityWarning, match="^1 of 3 points"):
                perturbation_correction(sol, p)
        assert list(errors) == [1] and isinstance(errors[1], PerturbationValidityWarning)
        assert np.isfinite(values[[0, 2]]).all()

    def test_improves_on_uncorrected(self, exact_ground):
        # second-order shift tightens the dressed-level estimate
        for g in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2):
            p = ModelParams(1.0, 1.0, g)
            sol = _levels(p)
            e_exact = exact_ground(g).energy
            corrected = sol.eps_minus + perturbation_correction(sol, p)
            assert abs(corrected - e_exact) < abs(sol.eps_minus - e_exact)


class TestSumOverStatesOracle:
    def test_matches_closed_form_tightly(self):
        p = ModelParams(1.0, 1.0, 0.4)
        sol = _levels(p)
        closed = perturbation_correction(sol, p)
        summed = perturbation_sum_over_states(sol, p, FockTruncation(40))
        assert abs(closed - summed) < 1e-10

    @pytest.mark.parametrize(
        "wc,g", [(1.0, 0.2), (1.0, 0.6), (1.0, 0.8), (0.8, 0.5), (1.2, 0.5), (1.2, 0.9)]
    )
    def test_grid_agreement(self, wc, g):
        p = ModelParams(1.0, wc, g)
        sol = _levels(p)
        closed = perturbation_correction(sol, p)
        summed = perturbation_sum_over_states(sol, p, FockTruncation(40))
        assert abs(closed - summed) < 1e-9

    def test_zero_displacement(self):
        p = ModelParams(1.0, 1.0, 0.3)
        sol = dressed_levels(0.0, p)
        assert perturbation_sum_over_states(sol, p, FockTruncation(20)) == 0.0
