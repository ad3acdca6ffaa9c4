import itertools
import math
import warnings

import numpy as np
import pytest

from rabi2q.model import (
    COHERENT_DEFICIT_TOL,
    FockTruncation,
    FockTruncationWarning,
    ModelParams,
    annihilation_matrix,
    build_hamiltonian,
    coherent_state_vector,
    embed,
    parity_operator,
    row_dots,
    runs,
    sd_slot,
    sector_bands,
    sector_hamiltonian,
    sector_size,
    sector_slices,
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
        band = sector_hamiltonian(params, trunc, odd)
        u = np.column_stack([embed(e, n_max, odd) for e in np.eye(band.shape[1])])
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
            band = sector_hamiltonian(params, trunc, odd)
            columns += [embed(e, trunc.n_max, odd) for e in np.eye(band.shape[1])]
        u = np.column_stack(columns)
        assert u.shape == (3 * trunc.n_levels, 3 * trunc.n_levels)
        np.testing.assert_allclose(u.T @ u, np.eye(3 * trunc.n_levels), atol=1e-15)

    def test_hand_assembled_odd_band(self):
        # n_max = 2, odd sector: S0, |0>0, D1, S2, |0>2
        g = 0.5
        band = sector_hamiltonian(ModelParams(0.8, 1.0, g), FockTruncation(2), odd=True)
        expected = np.array(
            [
                [0.0, 0.0, 1.0, 2.0, 2.0],
                [0.8, 0.0, g * SQ2, 0.8, 0.0],
                [g, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(band, expected, atol=1e-15)

    @staticmethod
    def assembled(params, trunc, odd):
        """The band written slot by slot from the photon numbers, as built before patterns."""
        s, z, d = sector_slices(odd)
        n = np.arange(trunc.n_levels)
        coupling = params.g * np.sqrt((n + 1) % trunc.n_levels)  # none above n_max
        paired, single = slice(1 - odd, None, 2), slice(odd, None, 2)
        band = np.zeros((3, sector_size(trunc.n_max, odd)))
        band[0, s] = band[0, z] = params.omega_c * n[paired]
        band[0, d] = params.omega_c * n[single]
        band[1, s] = params.omega_a
        band[1, d] = coupling[single]
        band[2, s] = coupling[paired]
        return band

    @pytest.mark.parametrize("omega_a,omega_c,g", [(1.0, 1.0, 0.0), (0.8, 0.3, 1.7), (1.0, 0.1, 4.6)])
    def test_band_is_the_assembled_band_bit_for_bit(self, omega_a, omega_c, g):
        # larger truncations first, so each smaller one is sliced from a
        # pattern built past it and must still get its own zero corner
        params = ModelParams(omega_a, omega_c, g)
        for n_max in [4096, 1000, 517, *range(300, -1, -1), 301, 2, 1, 0]:
            for odd in (True, False):
                trunc = FockTruncation(n_max)
                band, reference = sector_hamiltonian(params, trunc, odd), self.assembled(params, trunc, odd)
                assert np.array_equal(band, reference), (n_max, odd)
                assert band.tobytes() == reference.tobytes(), (n_max, odd)


class TestSectorBands:
    """Several rows' sector bands side by side, parity-major (``sector_bands``)."""

    # runs of one n_max broken by single rows, n_max 0 and 1 among them
    N_MAX = [0, 0, 1, 4, 4, 4, 1, 7, 7, 0, 20, 3, 3]
    RUNS = [(0, 2), (2, 3), (3, 6), (6, 7), (7, 9), (9, 10), (10, 11), (11, 13)]

    @pytest.mark.parametrize("parities", [(True, False), (False, True), (True,), (False,)])
    def test_each_block_is_its_rows_one_block_stack(self, parities):
        count = len(self.N_MAX)
        g = np.linspace(0.0, 2.4, count).tolist()
        stack = sector_bands(0.9, 0.7, g, self.N_MAX, parities)
        assert stack.runs == runs(self.N_MAX) == self.RUNS
        assert len(stack.bounds) == len(parities) * count + 1 == len(stack.sizes) + 1
        for p, odd in enumerate(parities):  # every block of parities[0] first
            for k, (g_k, n) in enumerate(zip(g, self.N_MAX)):
                block = p * count + k
                columns = slice(stack.bounds[block], stack.bounds[block + 1])
                alone = sector_bands(0.9, 0.7, [g_k], [n], (odd,))
                band = sector_hamiltonian(ModelParams(0.9, 0.7, g_k), FockTruncation(n), odd)
                assert stack.band[:, columns].tobytes() == alone.band.tobytes() == band.tobytes()
                assert alone.bounds == [0, stack.sizes[block]]
                assert stack.sizes[block] == sector_size(n, odd)

    def test_runs_break_at_a_new_n_max(self):
        assert runs([2, 2, 2, 5, 5]) == [(0, 3), (3, 5)]
        assert runs([2, 5, 2]) == [(0, 1), (1, 2), (2, 3)]
        assert runs([]) == []


class TestSectorLayout:
    """The one home of each piece of the odd sector's layout."""

    @pytest.mark.parametrize("rows", [1, 2, 17])
    def test_row_dots_are_each_rows_dot_bit_for_bit(self, rows):
        # contiguous rows, as inverse iteration's norms take them, and the
        # strided S, |0> and D columns of the rows that negativity_stacked reads
        rng = np.random.default_rng(rows)
        for n_max in (0, 1, 7, 40):
            size = sector_size(n_max, True)
            a = rng.standard_normal((rows, size)) * rng.uniform(0.1, 10.0, (rows, 1))
            b = rng.standard_normal((rows, size))
            pairs = [(a, a), (a, b)]
            for k, j in itertools.product(sector_slices(odd=True), repeat=2):
                if a[:, k].shape == a[:, j].shape:
                    pairs.append((a[:, k], a[:, j]))
            for x, y in pairs:
                dots = row_dots(x, y)
                assert dots.shape == (rows,)
                assert dots.tobytes() == b"".join(x[i].dot(y[i]).tobytes() for i in range(rows))

    def test_one_row_is_the_stacked_matmuls_row(self):
        # a run of one row takes its ddot directly: the bits of the stacked matmul
        rng = np.random.default_rng(5)
        for size in range(202):
            for step_a, step_b in itertools.product((1, 2, 3), repeat=2):
                a = rng.standard_normal((1, size * step_a))[:, ::step_a]
                b = rng.standard_normal((1, size * step_b))[:, ::step_b]
                stacked = np.matmul(a[:, None, :], b[:, :, None]).ravel()
                assert row_dots(a, b).tobytes() == stacked.tobytes(), (size, step_a, step_b)

    @pytest.mark.parametrize("n_max", range(41))
    def test_sd_slot_is_each_levels_s_or_d_amplitude(self, n_max):
        vec = np.arange(float(sector_size(n_max, True)))
        s, _, d = sector_slices(odd=True)
        levels = np.arange(n_max + 1)
        expected = [vec[s][n // 2] if n % 2 == 0 else vec[d][n // 2] for n in levels]
        assert vec[sd_slot(levels)].tolist() == expected
        assert [vec[sd_slot(n)] for n in range(n_max + 1)] == expected


def assert_poisson_weights(v, amplitude):
    """|v_n|^2 matches the Poisson weight wherever that exceeds 1e-30, with sign amplitude^n."""
    n = np.arange(v.size)
    a2 = amplitude * amplitude
    log_weight = -a2 + n * math.log(a2) - np.array([math.lgamma(k + 1.0) for k in n])
    bulk = log_weight > math.log(1e-30)
    np.testing.assert_allclose(v[bulk] ** 2, np.exp(log_weight[bulk]), rtol=1e-9)
    assert np.all(np.sign(v[bulk]) == np.sign(amplitude) ** n[bulk])


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
        assert_poisson_weights(v, amplitude)

    @pytest.mark.parametrize("amplitude", [37.0, -37.6, 37.64, -37.66, 38.0])
    def test_no_seam_at_the_anchor_switch(self, amplitude):
        # v_0 = exp(-amplitude^2 / 2) leaves the normal floats between 37.64 and 37.66
        n_max = math.ceil(amplitude * amplitude + 8 * abs(amplitude) + 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FockTruncationWarning)
            v = coherent_state_vector(amplitude, FockTruncation(n_max))
        assert abs(1.0 - v @ v) < COHERENT_DEFICIT_TOL
        assert_poisson_weights(v, amplitude)

    @pytest.mark.parametrize("amplitude", [0.7, 30.0, 37.7, 44.01])
    def test_negative_amplitude_flips_odd_components(self, amplitude):
        # 37.7 and 44.01 put the peak anchor at an odd level (1421, 1937)
        trunc = FockTruncation(math.ceil(amplitude * amplitude + 8 * amplitude + 16))
        v = coherent_state_vector(amplitude, trunc)
        signs = (-1.0) ** np.arange(trunc.n_levels)
        assert np.array_equal(coherent_state_vector(-amplitude, trunc), signs * v)

    def test_large_amplitude_truncation_warning(self):
        # the peak, n = 1936, lies past the truncation
        with pytest.warns(FockTruncationWarning, match="loses norm"):
            v = coherent_state_vector(44.0, FockTruncation(1000))
        assert v.shape == (1001,)
