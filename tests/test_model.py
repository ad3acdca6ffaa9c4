import math
import warnings

import numpy as np
import pytest

from rabi2q.model import (
    FockTruncation,
    FockTruncationWarning,
    ModelParams,
    annihilation_matrix,
    build_hamiltonian,
    coherent_state_vector,
    parity_operator,
    sector_hamiltonian,
    spin1_matrices,
)

SQ2 = math.sqrt(2.0)


class TestSpin1:
    def test_jz_is_diagonal(self):
        ops = spin1_matrices()
        assert np.array_equal(ops.jz, np.diag([1.0, 0.0, -1.0]))

    def test_jx_on_m0(self):
        ops = spin1_matrices()
        m0 = np.array([0.0, 1.0, 0.0])
        expected = np.array([1.0, 0.0, 1.0]) / SQ2
        np.testing.assert_allclose(ops.jx @ m0, expected, atol=1e-15)

    def test_commutators(self):
        ops = spin1_matrices()
        jx, jy, jz = ops.jx, ops.jy, ops.jz
        np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-15)
        np.testing.assert_allclose(jy @ jz - jz @ jy, 1j * jx, atol=1e-15)
        np.testing.assert_allclose(jz @ jx - jx @ jz, 1j * jy, atol=1e-15)

    def test_casimir(self):
        ops = spin1_matrices()
        total = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
        np.testing.assert_allclose(total, 2.0 * np.eye(3), atol=1e-15)

    def test_hermiticity_structure(self):
        ops = spin1_matrices()
        assert np.array_equal(ops.jx, ops.jx.T)
        assert np.array_equal(ops.jz, ops.jz.T)
        np.testing.assert_allclose(ops.jy, ops.jy.conj().T, atol=1e-15)
        assert np.all(ops.jy.real == 0)


class TestAnnihilation:
    def test_two_levels(self):
        a = annihilation_matrix(FockTruncation(1))
        assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])

    def test_number_operator(self):
        a = annihilation_matrix(FockTruncation(3))
        np.testing.assert_allclose(a.T @ a, np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-15)

    def test_quadrature_entries(self):
        a = annihilation_matrix(FockTruncation(2))
        x = a + a.T
        expected = np.array(
            [[0.0, 1.0, 0.0], [1.0, 0.0, SQ2], [0.0, SQ2, 0.0]]
        )
        np.testing.assert_allclose(x, expected, atol=1e-15)


class TestHamiltonian:
    def test_decoupled_limit(self):
        h = build_hamiltonian(ModelParams(1.0, 1.0, 0.0), FockTruncation(10))
        assert abs(np.linalg.eigvalsh(h)[0] + 1.0) < 1e-12

    def test_resonance_reference_energy(self):
        # lowest eigenvalue at g = 0.4 against the five-decimal benchmark
        h = build_hamiltonian(ModelParams(1.0, 1.0, 0.4), FockTruncation(64))
        assert abs(np.linalg.eigvalsh(h)[0] - (-1.04256)) < 2e-5

    def test_hand_assembled_6x6(self):
        s = 1.0 / SQ2
        g = 0.5
        expected = np.array(
            [
                [0.0, s, 0.0, g, 0.0, 0.0],
                [s, 0.0, s, 0.0, 0.0, 0.0],
                [0.0, s, 0.0, 0.0, 0.0, -g],
                [g, 0.0, 0.0, 1.0, s, 0.0],
                [0.0, 0.0, 0.0, s, 1.0, s],
                [0.0, 0.0, -g, 0.0, s, 1.0],
            ]
        )
        h = build_hamiltonian(ModelParams(1.0, 1.0, 0.5), FockTruncation(1))
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_exactly_symmetric(self):
        h = build_hamiltonian(ModelParams(1.0, 1.2, 0.7), FockTruncation(20))
        assert np.max(np.abs(h - h.T)) == 0.0

    def test_block_tridiagonal_in_fock_index(self):
        h = build_hamiltonian(ModelParams(1.0, 1.0, 0.9), FockTruncation(6))
        blocks = h.reshape(7, 3, 7, 3)
        for n in range(7):
            for m in range(7):
                if abs(n - m) >= 2:
                    assert np.all(blocks[n, :, m, :] == 0.0)

    def test_rejects_nonfinite_parameters(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, float("nan"))
        with pytest.raises(ValueError):
            ModelParams(float("inf"), 1.0, 0.1)
        with pytest.raises(ValueError):
            ModelParams(1.0, -1.0, 0.1)

    def test_parity_commutes_exactly(self):
        trunc = FockTruncation(9)
        h = build_hamiltonian(ModelParams(1.0, 1.1, 0.8), trunc)
        p = parity_operator(trunc)
        assert np.max(np.abs(h @ p - p @ h)) == 0.0

    def test_parity_is_involution(self):
        p = parity_operator(FockTruncation(5))
        np.testing.assert_allclose(p @ p, np.eye(18), atol=1e-15)
        assert np.array_equal(p, p.T)


class TestSectorHamiltonian:
    @staticmethod
    def dense(band):
        dim = band.shape[1]
        h = np.zeros((dim, dim))
        for k in range(3):
            i = np.arange(max(dim - k, 0))
            h[i + k, i] = h[i, i + k] = band[k, i]
        return h

    @pytest.mark.parametrize("n_max", [0, 1, 2, 7, 24])
    @pytest.mark.parametrize("odd", [True, False])
    def test_band_is_projected_hamiltonian(self, n_max, odd):
        params = ModelParams(0.9, 1.3, 0.7)
        trunc = FockTruncation(n_max)
        band, embedding = sector_hamiltonian(params, trunc, odd)
        u = np.column_stack([embedding.embed(e) for e in np.eye(band.shape[1])])
        projected = u.T @ build_hamiltonian(params, trunc) @ u
        # 1e-14 absolute, plus the rounding of 1/sqrt(2) in u on entries ~ omega_c * n
        np.testing.assert_allclose(projected, self.dense(band), rtol=1e-15, atol=1e-14)
        np.testing.assert_allclose(u.T @ u, np.eye(band.shape[1]), atol=1e-15)
        # the embedded vectors span the parity eigenspace of the right sign
        p = parity_operator(trunc)
        assert np.array_equal(p @ u, -u if odd else u)

    def test_sectors_partition_the_space(self):
        trunc = FockTruncation(9)
        params = ModelParams(1.0, 1.0, 0.5)
        columns = []
        for odd in (True, False):
            band, embedding = sector_hamiltonian(params, trunc, odd)
            columns += [embedding.embed(e) for e in np.eye(band.shape[1])]
        u = np.column_stack(columns)
        assert u.shape == (trunc.dim, trunc.dim)
        np.testing.assert_allclose(u.T @ u, np.eye(trunc.dim), atol=1e-15)

    def test_hand_assembled_odd_band(self):
        # n_max = 2, odd sector: S0, |0>0, D1, S2, |0>2
        g = 0.5
        band, _ = sector_hamiltonian(ModelParams(0.8, 1.0, g), FockTruncation(2), odd=True)
        expected = np.array(
            [
                [0.0, 0.0, 1.0, 2.0, 2.0],
                [0.8, 0.0, g * SQ2, 0.8, 0.0],
                [g, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(band, expected, atol=1e-15)


class TestCoherentState:
    def test_vacuum(self):
        v = coherent_state_vector(0.0, FockTruncation(6))
        assert np.array_equal(v, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_poisson_norm(self):
        v = coherent_state_vector(0.5, FockTruncation(20))
        assert abs(v @ v - 1.0) < 1e-12

    def test_opposite_amplitude_overlap(self):
        # <a|-a> = exp(-2 a^2)
        trunc = FockTruncation(30)
        v = coherent_state_vector(0.3, trunc)
        w = coherent_state_vector(-0.3, trunc)
        assert abs(v @ w - math.exp(-0.18)) < 1e-12
        assert abs(v @ w - 0.83527) < 1e-5

    def test_truncation_warning_reports_deficit(self):
        with pytest.warns(FockTruncationWarning, match="loses norm"):
            coherent_state_vector(2.0, FockTruncation(3))

    @pytest.mark.filterwarnings("ignore::rabi2q.model.FockTruncationWarning")
    def test_displacement_expectation_converges(self):
        # <a|(a + a')|a> -> 2a as the truncation grows
        errs = []
        for n_max in (4, 8, 16):
            trunc = FockTruncation(n_max)
            v = coherent_state_vector(0.5, trunc)
            a = annihilation_matrix(trunc)
            errs.append(abs(v @ (a + a.T) @ v - 1.0))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-12

    @pytest.mark.parametrize("amplitude", [-30.0, -7.5, 0.9, 12.0, 30.0])
    def test_moderate_amplitude_is_the_plain_recurrence(self, amplitude):
        n_levels = int(amplitude * amplitude + 12 * abs(amplitude) + 20)
        expected = np.zeros(n_levels)
        expected[0] = math.exp(-amplitude * amplitude / 2.0)
        for n in range(1, n_levels):
            expected[n] = expected[n - 1] * amplitude / math.sqrt(n)
        v = coherent_state_vector(amplitude, FockTruncation(n_levels - 1))
        np.testing.assert_allclose(v, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("amplitude,n_max", [(44.0, 2304), (-44.0, 2304), (60.0, 4096), (100.0, 12000)])
    def test_large_amplitude_matches_poisson_weights(self, amplitude, n_max):
        # exp(-amplitude^2 / 2) underflows here; the vector must not vanish
        with warnings.catch_warnings():
            warnings.simplefilter("error", FockTruncationWarning)
            v = coherent_state_vector(amplitude, FockTruncation(n_max))
        assert abs(1.0 - v @ v) < 1e-14
        n = np.arange(n_max + 1)
        a2 = amplitude * amplitude
        log_weight = -a2 + n * math.log(a2) - np.array([math.lgamma(k + 1.0) for k in n])
        bulk = log_weight > math.log(1e-30)
        np.testing.assert_allclose(v[bulk] ** 2, np.exp(log_weight[bulk]), rtol=1e-9)
        # the sign of amplitude^n
        assert np.all(np.sign(v[bulk]) == np.sign(amplitude) ** n[bulk])

    def test_large_amplitude_truncation_warning(self):
        # the peak, n = 1936, lies past the truncation
        with pytest.warns(FockTruncationWarning, match="loses norm"):
            v = coherent_state_vector(44.0, FockTruncation(1000))
        assert v.shape == (1001,)
