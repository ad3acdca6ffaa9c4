import math

import numpy as np
import pytest

from rabi2q import FockTruncation, ModelParams
from rabi2q.entangle import (
    concurrence_approx,
    negativity_closed_form,
    negativity_numerical,
    negativity_small_g,
    partial_transpose,
    reduced_density_from_joint,
    reduced_density_variational,
)
from rabi2q import variational
from rabi2q.cli import evaluate

SQ2 = math.sqrt(2.0)


def wootters_concurrence(rho: np.ndarray) -> float:
    """Independent spin-flip oracle: C = max(0, l1 - l2 - l3 - l4)."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    lam = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
    lam = np.sqrt(np.abs(np.sort(lam.real)[::-1]))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


class TestReducedFromJoint:
    def test_decoupled_ground_state_is_pure_gg(self, exact_ground):
        # both qubits in their lower energy level, a product state
        rho = reduced_density_from_joint(exact_ground(0.0).state)
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-12)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)

    def test_trace_and_positivity(self, exact_ground):
        rho = reduced_density_from_joint(exact_ground(0.8).state)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho)[0] > -1e-12
        assert np.max(np.abs(rho - rho.T)) < 1e-15

    def test_path_equivalence_with_closed_form(self):
        # tracing the materialized trial state must reproduce the closed form
        sol = variational.solve(ModelParams(1.0, 1.0, 0.3))
        state = variational.trial_state(sol.alpha, sol.beta, FockTruncation(64))
        from_joint = reduced_density_from_joint(state)
        closed = reduced_density_variational(sol.alpha, sol.beta)
        np.testing.assert_allclose(from_joint, closed, atol=1e-9)

    def test_exchange_symmetry(self, exact_ground):
        rho = reduced_density_from_joint(exact_ground(0.7).state)
        swapped = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        np.testing.assert_allclose(rho, swapped, atol=1e-14)

    def test_exact_state_is_x_shaped(self, exact_ground):
        # parity forbids coherences between the even and odd atomic sectors
        rho = reduced_density_from_joint(exact_ground(0.8).state)
        for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert abs(rho[i, j]) < 1e-12
            assert abs(rho[j, i]) < 1e-12

    def test_rejects_unnormalized_state(self):
        from rabi2q.exact import JointState

        bad = JointState(np.ones(3))
        with pytest.raises(ValueError, match="not normalized"):
            reduced_density_from_joint(bad)


# m = (+1, 0, -1) in the (ee, eg, ge, gg) basis, from |e/g> = (|up> +/- |dn>)/sqrt2
# per qubit; the singlet row is absent, it carries no weight in this model
TRIPLET_IN_QUBITS = np.array(
    [[0.5, 1.0 / SQ2, 0.5], [0.5, 0.0, -0.5], [0.5, 0.0, -0.5], [0.5, -1.0 / SQ2, 0.5]]
)


@pytest.mark.parametrize("omega_c,g", [(1.0, 0.4), (0.2, 2.0), (0.1, 2.0)])
def test_reduced_density_equals_the_product_basis_partial_trace(exact_ground, omega_c, g):
    # reference: trace the field out of the product-basis view, level by level
    exact = exact_ground(g, omega_c).state
    sol = variational.solve(ModelParams(1.0, omega_c, g))
    trial = variational.trial_state(sol.alpha, sol.beta, FockTruncation(exact.n_max))
    for state in (exact, trial):
        by_level = state.coefficients.reshape(-1, 3)
        reference = TRIPLET_IN_QUBITS @ (by_level.T @ by_level) @ TRIPLET_IN_QUBITS.T
        np.testing.assert_allclose(reduced_density_from_joint(state), reference, rtol=0, atol=1e-15)


class TestReducedVariational:
    def test_decoupled_point_is_pure_gg(self):
        rho = reduced_density_variational(0.0, -SQ2)
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-14)
        state = variational.trial_state(0.0, -SQ2, FockTruncation(8))
        np.testing.assert_allclose(
            reduced_density_from_joint(state), rho, atol=1e-14
        )

    def test_unit_trace_identically(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rho = reduced_density_variational(rng.uniform(-2, 2), rng.uniform(-3, 3))
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            rho = reduced_density_variational(rng.uniform(-2, 2), rng.uniform(-3, 3))
            assert np.linalg.eigvalsh(rho)[0] > -1e-14


class TestPartialTranspose:
    def test_trace_preserved(self):
        rho = reduced_density_variational(0.4, -1.1)
        for qubit in (0, 1):
            assert np.trace(partial_transpose(rho, qubit)) == pytest.approx(1.0, abs=1e-14)

    def test_qubit_choice_immaterial(self):
        # exchange symmetry makes both partial transposes agree
        rho = reduced_density_variational(0.6, -0.9)
        np.testing.assert_allclose(
            partial_transpose(rho, 0), partial_transpose(rho, 1), atol=1e-15
        )

    def test_invalid_qubit(self):
        with pytest.raises(ValueError):
            partial_transpose(reduced_density_variational(0.1, -1.4), qubit=2)


class TestNegativityNumerical:
    def test_product_state_unentangled(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        rho1 = a @ a.T / np.trace(a @ a.T)
        rho2 = b @ b.T / np.trace(b @ b.T)
        result = negativity_numerical(np.kron(rho1, rho2))
        assert result < 1e-12

    def test_bell_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / SQ2
        rho = np.outer(psi, psi)
        result = negativity_numerical(rho)
        assert result == pytest.approx(0.5, abs=1e-12)
        assert np.sum(np.linalg.eigvalsh(partial_transpose(rho)) < 0.0) == 1

    def test_deep_ultrastrong_negativity_is_numerically_zero(self):
        # at g = 2.6 the exact-state negativity has decayed below 1e-5
        (row,) = evaluate(1.0, [2.6], ("negativity_exact",), 1e-10)
        value = row["negativity_exact"]
        assert 0.0 <= value < 1e-5


class TestNegativityClosedForm:
    def test_decoupled_point(self):
        assert negativity_closed_form(0.0, -SQ2) == 0.0

    def test_near_solution_value(self):
        assert negativity_closed_form(0.1, -1.3930) == pytest.approx(0.00253, abs=1e-5)

    def test_matches_numerical_partial_transpose(self):
        # on the trial family's reachable domain (the minimizing weight has
        # beta^2 <= 2), the closed form equals the partial-transpose value
        rng = np.random.default_rng(404)
        for _ in range(100):
            alpha = rng.uniform(-1.5, 1.5)
            beta = rng.uniform(-SQ2, SQ2)
            rho = reduced_density_variational(alpha, beta)
            numeric = negativity_numerical(rho)
            assert abs(numeric - negativity_closed_form(alpha, beta)) < 1e-12
            # at most one eigenvalue of the partial transpose goes negative
            assert np.sum(np.linalg.eigvalsh(partial_transpose(rho)) < 0.0) <= 1

    def test_beyond_root_range_other_channel_opens(self):
        # for beta^2 > 2 (unreachable by the minimizing root) the other
        # partially transposed eigenvalue turns negative, at (beta^2 - 2)
        # / (2 (2 + beta^2)); the clamped closed form reads zero there
        rng = np.random.default_rng(405)
        for _ in range(25):
            alpha = rng.uniform(-1.5, 1.5)
            beta = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 3.0)
            numeric = negativity_numerical(reduced_density_variational(alpha, beta))
            expected = (beta**2 - 2.0) / (2.0 * (2.0 + beta**2))
            assert numeric == pytest.approx(expected, abs=1e-12)
            assert negativity_closed_form(alpha, beta) == 0.0


class TestNegativitySmallG:
    def test_zero_coupling(self):
        assert negativity_small_g(ModelParams(1.0, 1.0, 0.0)) == 0.0

    def test_resonance_value(self):
        assert negativity_small_g(ModelParams(1.0, 1.0, 0.2)) == pytest.approx(
            0.0025, abs=1e-15
        )

    def test_detuned_value(self):
        assert negativity_small_g(ModelParams(1.0, 1.2, 0.1)) == pytest.approx(
            1.2 * 0.01 / (4.0 * 4.84), abs=1e-15
        )
        assert negativity_small_g(ModelParams(1.0, 1.2, 0.1)) == pytest.approx(
            6.198e-4, abs=1e-6
        )


class TestConcurrence:
    def test_decoupled_point(self):
        assert concurrence_approx(0.0, -SQ2) == 0.0

    def test_twice_negativity(self):
        sol = variational.solve(ModelParams(1.0, 1.0, 0.2))
        c = concurrence_approx(sol.alpha, sol.beta)
        assert c == 2.0 * negativity_closed_form(sol.alpha, sol.beta)
        assert c == pytest.approx(0.00506, abs=2e-4)
        assert concurrence_approx(0.1, -1.3930) == pytest.approx(0.0050625, abs=1e-6)

    @pytest.mark.parametrize("g", [0.1, 0.3, 0.5])
    def test_against_wootters_oracle(self, g):
        # the oracle's nonsymmetric eigensolve is good to ~1e-9
        sol = variational.solve(ModelParams(1.0, 1.0, g))
        rho = reduced_density_variational(sol.alpha, sol.beta)
        assert concurrence_approx(sol.alpha, sol.beta) == pytest.approx(
            wootters_concurrence(rho), abs=1e-8
        )

    def test_exact_state_diagnostic(self, exact_ground):
        # exploratory: for the exact state, negativity <= concurrence holds;
        # near-equality with 2N is only guaranteed for the trial family
        for g in (0.2, 0.5):
            rho = reduced_density_from_joint(exact_ground(g).state)
            n = negativity_numerical(rho)
            c = wootters_concurrence(rho)
            assert n <= c + 1e-12
            assert c == pytest.approx(2.0 * n, rel=0.05)


class TestExactStateNegativity:
    def test_zero_at_zero_coupling(self, exact_ground):
        rho = reduced_density_from_joint(exact_ground(0.0).state)
        assert negativity_numerical(rho) < 1e-12

    def test_monotone_onset(self, exact_ground):
        values = []
        for g in np.arange(0.1, 1.0, 0.1):
            rho = reduced_density_from_joint(exact_ground(round(float(g), 2)).state)
            values.append(negativity_numerical(rho))
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_quadratic_onset_ratio(self, exact_ground):
        value = negativity_numerical(reduced_density_from_joint(exact_ground(0.1).state))
        assert value / 0.01 == pytest.approx(1.0 / 16.0, rel=0.02)
