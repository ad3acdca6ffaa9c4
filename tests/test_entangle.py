import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rabi2q import FockTruncation, ModelParams, ground_state
from rabi2q.entangle import (
    concurrence_approx,
    negativity_closed_form,
    negativity_numerical,
    negativity_small_g,
    negativity_stacked,
    negativity_x_state,
    partial_transpose,
    reduced_density_from_joint,
    reduced_density_variational,
)
from rabi2q import variational
from rabi2q.cli import evaluate
from rabi2q.exact import ground_state_at
from rabi2q.model import JointState, runs, sector_size

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
        from rabi2q.model import JointState

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


class TestNegativityXState:
    @pytest.mark.parametrize(
        "omega_c,g_min,g_max,steps",
        [(1.0, 0.0, 1.2, 241),  # the paper's window
         (0.2, 0.2, 2.0, 10),  # deep coupling
         (1.0, 1.5, 3.5, 200),  # the default find-zero bracket
         (0.1, 0.2, 4.6, 25)],  # small omega_c, alpha up to 46
    )  # fmt: skip
    def test_matches_the_partial_transpose_on_exact_states(self, omega_c, g_min, g_max, steps):
        for g in np.linspace(g_min, g_max, steps):
            state = ground_state(ModelParams(1.0, omega_c, float(g))).state
            rho = reduced_density_from_joint(state)
            assert abs(negativity_x_state(rho) - negativity_numerical(rho)) <= 1e-15

    def test_both_channels_on_the_trial_family(self):
        # beta^2 < 2 opens the |r14| - r22 channel, beta^2 > 2 the other one
        rng = np.random.default_rng(406)
        for _ in range(200):
            alpha, beta = rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0)
            rho = reduced_density_variational(alpha, beta)
            assert negativity_x_state(rho) == pytest.approx(negativity_numerical(rho), abs=1e-15)

    def test_bell_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / SQ2
        assert negativity_x_state(np.outer(psi, psi)) == pytest.approx(0.5, abs=1e-15)


class TestNegativityStacked:
    @staticmethod
    def per_row(vectors, starts, n_max):
        """The reference: each vector's negativity through its own reduced density matrix."""
        return [
            negativity_x_state(reduced_density_from_joint(JointState(
                vectors[start : start + sector_size(n, odd=True)]
            )))
            for start, n in zip(starts, n_max)
        ]  # fmt: skip

    def test_runs_broken_by_a_dropped_row_and_a_new_n_max_keep_their_bits(self):
        # rows 0-2 and 4-6 share n_max = 20, rows 7-9 have 26; row 3 is dropped
        g = [0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 1.0, 1.1, 1.2]
        n_max = [20] * 7 + [26] * 3
        vectors = np.concatenate([
            ground_state_at(ModelParams(1.0, 1.0, g_k), n).state.amplitudes
            for g_k, n in zip(g, n_max)
        ])  # fmt: skip
        sizes = [sector_size(n, odd=True) for n in n_max]
        starts = [sum(sizes[:k]) for k in range(len(g))]
        kept = [0, 1, 2, 4, 5, 6, 7, 8, 9]
        starts, n_max = [starts[k] for k in kept], [n_max[k] for k in kept]
        assert runs(n_max) == [(0, 6), (6, 9)]  # row 3's gap lies inside the first run
        values = negativity_stacked(vectors, starts, n_max)
        reference = self.per_row(vectors, starts, n_max)
        assert np.array(values).tobytes() == np.array(reference).tobytes()
        assert min(values) > 0.0

    def test_unit_vectors_of_every_small_truncation_keep_their_bits(self):
        # runs of three at each n_max from 0 to 60, with strided S, |0> and D
        # slices of every length, and one row alone at 61
        rng = np.random.default_rng(25)
        n_max = [n for n in range(61) for _ in range(3)] + [61]
        parts = []
        for n in n_max:
            v = rng.standard_normal(sector_size(n, odd=True))
            parts.append(v / np.linalg.norm(v))
        starts = np.cumsum([0] + [part.size for part in parts[:-1]]).tolist()
        vectors = np.concatenate(parts)
        values = negativity_stacked(vectors, starts, n_max)
        reference = self.per_row(vectors, starts, n_max)
        assert np.array(values).tobytes() == np.array(reference).tobytes()


class TestNegativityClosedForm:
    def test_decoupled_point(self):
        assert negativity_closed_form(0.0, -SQ2) == 0.0

    def test_near_solution_value(self):
        assert negativity_closed_form(0.1, -1.3930) == pytest.approx(0.00253, abs=1e-5)

    @pytest.mark.parametrize("g", [1e-5, 1.58e-4, 1e-3, 0.05])
    def test_small_g_keeps_its_digits(self, g):
        # both terms of the numerator are near 2 at small g; the reference is
        # the form at the same (alpha, beta), evaluated to 50 digits
        var = variational.solve(ModelParams(1.0, 1.0, g))
        with localcontext() as ctx:
            ctx.prec = 50
            a, b = Decimal(var.alpha), Decimal(var.beta)
            exact = (2 * (-2 * a * a).exp() - b * b) / (2 * (2 + b * b))
            value = negativity_closed_form(var.alpha, var.beta)
            assert abs(Decimal(value) - exact) <= Decimal("1e-14") * exact
        assert concurrence_approx(var.alpha, var.beta) == 2.0 * value

    def test_non_finite_beta_gives_nan(self):
        for beta in (math.nan, math.inf, -math.inf):
            assert math.isnan(negativity_closed_form(0.1, beta))

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


def _closed_form_per_row(alpha: float, beta: float) -> float:
    """The closed form one (alpha, beta) at a time, with libm's exp and expm1,
    as ``negativity_closed_form`` computed it before it took arrays."""
    e_minus_1 = math.expm1(-2.0 * alpha * alpha)
    if e_minus_1 >= -0.5 and math.isfinite(beta):
        n, d = beta.as_integer_ratio()
        numerator = 2.0 * e_minus_1 + (2 * d * d - n * n) / (d * d)
    else:
        numerator = 2.0 * math.exp(-2.0 * alpha * alpha) - beta * beta
    return max(numerator / (2.0 * (2.0 + beta * beta)), 0.0)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.dtype == np.float64
        and np.array_equal(got, want, equal_nan=True)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


class TestNegativityClosedFormOverArrays:
    """The array form against the per-row one, bit for bit, sign bits included."""

    @pytest.mark.parametrize("omega_c", np.linspace(0.05, 5.0, 7).tolist())
    def test_variational_grids(self, omega_c):
        solution, _ = variational.solve_grid(ModelParams(1.0, omega_c, np.linspace(0.0, 5.0, 2001)))
        alpha, beta = solution.alpha, solution.beta
        want = list(map(_closed_form_per_row, alpha.tolist(), beta.tolist()))
        value = negativity_closed_form(alpha, beta)
        assert _same_bits(value, want)
        assert _same_bits(concurrence_approx(alpha, beta), [2.0 * w for w in want])

    def test_random_pairs(self):
        # |alpha| below about 0.59 takes the exact 2 - beta^2: a fifth of these
        rng = np.random.default_rng(2024)
        alpha, beta = rng.uniform(-3.0, 3.0, (2, 200_000))
        want = list(map(_closed_form_per_row, alpha.tolist(), beta.tolist()))
        assert _same_bits(negativity_closed_form(alpha, beta), want)
        assert np.count_nonzero(np.expm1(-2.0 * alpha * alpha) >= -0.5) > 30_000

    def test_across_the_end_of_expm1(self):
        # expm1 is called only where -2 alpha^2 >= -1, at |alpha| <= sqrt(1/2)
        # to rounding: past it the exp branch is taken either way
        edge = np.sqrt(0.5)
        alpha = np.concatenate([edge + np.spacing(edge) * np.arange(-40, 41), [-edge, 0.7, 0.71]])
        beta = np.resize([-1.3, -0.2, 0.0, 1.1], alpha.size)
        assert math.expm1(-1.0) < -0.5
        want = list(map(_closed_form_per_row, alpha.tolist(), beta.tolist()))
        assert _same_bits(negativity_closed_form(alpha, beta), want)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.0, -SQ2), (-0.0, 0.0), (0.0, 0.0), (0.0, -0.0), (0.1, math.nan), (0.1, -math.nan),
         (2.0, math.nan), (0.0, math.inf), (0.0, -math.inf), (2.0, math.inf), (math.nan, 0.3),
         (math.inf, -1.2), (0.3, 2.5), (1e-200, 1.0), (1e200, 1e-200)],
    )  # fmt: skip
    def test_edge_points_as_floats_and_as_arrays(self, alpha, beta):
        want = _closed_form_per_row(alpha, beta)
        value = negativity_closed_form(alpha, beta)
        assert type(value) is float and _same_bits(value, want)
        assert _same_bits(negativity_closed_form(np.array([alpha, 0.2]), np.array([beta, -1.3])),
                          [want, _closed_form_per_row(0.2, -1.3)])  # fmt: skip

    def test_integer_ratio_overflow_raises_as_before(self):
        # 2 - beta^2 past the float range: the exact branch raises as the per-row form did
        with pytest.raises(OverflowError, match="integer division result too large"):
            _closed_form_per_row(0.0, 1e200)
        with pytest.raises(OverflowError, match="integer division result too large"):
            negativity_closed_form(np.array([0.1, 0.0]), np.array([-1.0, 1e200]))


class TestNegativitySmallG:
    def test_zero_coupling(self):
        assert negativity_small_g(ModelParams(1.0, 1.0, 0.0)) == 0.0

    def test_resonance_value(self):
        assert negativity_small_g(ModelParams(1.0, 1.0, 0.2)) == pytest.approx(
            0.0025, abs=1e-15
        )

    def test_huge_omega_c_keeps_the_law(self):
        # (omega_a + omega_c)^2 alone overflows past omega_c ~ 1.3e154
        value = negativity_small_g(ModelParams(1.0, 1e200, np.array([0.0, 1e100, 1e200])))
        assert value.tolist() == pytest.approx([0.0, 0.25, 2.5e199], rel=1e-15)

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
