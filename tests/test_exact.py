import numpy as np
import pytest
import scipy.linalg

from rabi2q import (
    FockTruncation,
    ModelParams,
    build_hamiltonian,
    fidelity,
    ground_state,
    parity_operator,
)
from rabi2q import exact, model, variational
from rabi2q.exact import ground_state_at
from rabi2q.model import make_state


def _odd_weight(state):
    p = parity_operator(FockTruncation(state.n_max))
    return 0.5 * (1.0 - state.coefficients @ p @ state.coefficients)


def test_decoupled_energy_is_minus_omega_a():
    result = ground_state(ModelParams(1.0, 1.0, 0.0))
    assert abs(result.energy + 1.0) < 1e-12


@pytest.mark.parametrize("g,reference", [(1.0, -1.38986), (1.2, -1.68602)])
def test_resonance_reference_energies(g, reference, exact_ground):
    assert abs(exact_ground(g).energy - reference) < 2e-5


def test_eigen_residual_bound(exact_ground):
    for g in (0.3, 0.8, 1.2):
        r = exact_ground(g)
        assert r.residual <= 1e-9 * (abs(r.energy) + 1.0 * r.n_max_used)


def test_truncation_monotonicity():
    # nested subspaces: the ground energy cannot rise with more levels
    params = ModelParams(1.0, 1.0, 1.0)
    energies = [ground_state_at(params, n).energy for n in (8, 16, 32, 64, 128)]
    for lo, hi in zip(energies, energies[1:]):
        assert hi <= lo + 1e-12


def test_convergence_gap_below_tol(exact_ground):
    r = exact_ground(0.6)
    assert r.convergence_gap < 1e-10


def test_parity_purity(exact_ground):
    # deep coupling included: the parity branches are degenerate to rounding
    # there, and a full-space solve returns a mixture of them
    for omega_c, g in ((1.0, 0.2), (1.0, 0.7), (1.0, 1.2), (1.0, 4.0), (0.5, 2.0), (0.2, 2.0)):
        state = exact_ground(g, omega_c).state
        p = parity_operator(FockTruncation(state.n_max))
        expectation = state.coefficients @ p @ state.coefficients
        # the ground state sits in the odd sector; even-sector weight ~ 0
        weight_even = state.coefficients @ ((np.eye(p.shape[0]) + p) / 2) @ state.coefficients
        assert expectation < -1.0 + 1e-10
        assert weight_even < 1e-10


@pytest.mark.parametrize("omega_c", [0.2, 1.0, 2.0])
def test_decoupled_ground_state_is_gg_vacuum(omega_c):
    # g = 0: Jx = -1 (both qubits in |g>) times the field vacuum, with the
    # largest coefficient (on m = 0) positive
    state = ground_state(ModelParams(1.0, omega_c, 0.0)).state
    expected = np.zeros_like(state.coefficients)
    expected[:3] = [-0.5, 0.5 * np.sqrt(2.0), -0.5]
    np.testing.assert_allclose(state.coefficients, expected, atol=1e-12)


def test_parity_splitting_field(exact_ground):
    # well separated at g = 0.5; exponentially small but resolved at g = 3
    weak, deep = exact_ground(0.5), exact_ground(3.0)
    at_weak = ground_state_at(ModelParams(1.0, 1.0, 0.5), weak.n_max_used)
    assert weak.parity_splitting == at_weak.parity_splitting
    assert weak.parity_splitting > 0.5
    assert 0.0 < deep.parity_splitting < 1e-6
    # the splitting is then the excited gap: the first excitation is even
    assert deep.parity_splitting == pytest.approx(deep.excited_gap, abs=1e-15)


def test_even_sector_below_odd_raises(monkeypatch):
    # swapping the sectors makes the "odd" solve land above the other one
    swapped = lambda params, trunc, odd: model.sector_hamiltonian(params, trunc, not odd)
    monkeypatch.setattr(exact, "sector_hamiltonian", swapped)
    with pytest.raises(RuntimeError, match="even-sector ground energy"):
        ground_state(ModelParams(1.0, 1.0, 0.5))


def test_variational_energy_upper_bounds_exact(exact_ground):
    # the last three: two wells at omega_c 0.2, and deep coupling
    points = ((1.0, 0.1), (1.0, 0.4), (1.0, 0.8), (1.0, 1.2), (0.2, 0.48), (0.5, 2.0), (1.0, 4.0))
    for omega_c, g in points:
        e_var = variational.solve(ModelParams(1.0, omega_c, g)).energy
        assert e_var >= exact_ground(g, omega_c).energy - 1e-12


def test_sign_convention(exact_ground):
    coeff = exact_ground(0.5).state.coefficients
    assert coeff[np.argmax(np.abs(coeff))] > 0


def test_deep_coupling_returns_lowest_pair_with_gap_diagnostic(exact_ground):
    # parity branches approach degeneracy; no symmetrization is attempted
    result = exact_ground(3.0)
    assert 0.0 < result.excited_gap < 1e-6
    assert np.linalg.norm(result.state.coefficients) == pytest.approx(1.0, abs=1e-12)


def test_hard_cap_raises(monkeypatch):
    # alpha = g / omega_c = 10 needs about 200 Fock levels; the cap allows 64
    monkeypatch.setattr(exact, "N_MAX_CAP", 64)
    with pytest.raises(RuntimeError, match="not converged"):
        ground_state(ModelParams(1.0, 0.2, 2.0), tol=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("omega_c,g", [(1e-300, 1e5), (1.0, 1e200)])
def test_overflowing_size_reaches_the_cap(monkeypatch, omega_c, g):
    # alpha^2 + 8 alpha + 16 is inf here, so the size is capped before it is rounded
    monkeypatch.setattr(exact, "N_MAX_CAP", 64)
    with pytest.raises(RuntimeError, match="not converged"):
        ground_state(ModelParams(1.0, omega_c, g), tol=1e-10)


@pytest.mark.parametrize(
    "omega_c,g", [(1e-14, 1e-14), (1e-16, 1e-16), (1e-18, 0.0), (1e-20, 1e-20)]
)
def test_unresolvable_odd_gap_raises(omega_c, g):
    # E1_odd - E0 is about 2 omega_c: within 100 of inverse iteration's
    # smallest shift offsets the gap is not resolved from rounding (or rounds to 0)
    with pytest.raises(RuntimeError, match="too small to resolve"):
        ground_state(ModelParams(1.0, omega_c, g))


def _assert_decoupled_ground_state(omega_c, g=0.0):
    # g = 0: the vacuum times the Jx ground state, (S_0 - |0>_0) / sqrt2
    result = ground_state(ModelParams(1.0, omega_c, g))
    s, z, _ = model.sector_slices(odd=True)
    expected = np.zeros(result.state.amplitudes.size)
    expected[s][0], expected[z][0] = 1.0, -1.0
    assert fidelity(result.state, make_state(expected, result.n_max_used)) >= 1.0 - 1e-13


def test_small_omega_c_matches_the_decoupled_state():
    for omega_c in (1e-6, 1e-9):
        _assert_decoupled_ground_state(omega_c)


@pytest.mark.parametrize("omega_c,g", [(1e-10, 0.0), (1e-11, 0.0), (1e-12, 0.0), (4.5e-13, 0.0)])
def test_resolvable_odd_gap_gives_the_decoupled_state(omega_c, g):
    # below omega_c = 5e-6 inverse iteration shifts by 1e-5 of the gap, or by
    # its floor, so at g = 0 gaps down to 4e-13 are resolved; at 4.5e-13,
    # 1e-5 of the gap rounds away in E0 - offset, and only the floor keeps
    # the shift below the eigenvalue
    _assert_decoupled_ground_state(omega_c, g)


@pytest.mark.parametrize("omega_c,g", [(1e-7, 1e-7), (1e-9, 1e-12), (3e-12, 1e-12)])
def test_coupled_tiny_gap_is_refused(omega_c, g):
    # at g > 0 a gap below 1e-6 of the band lets rounding mix more than
    # about 2e-10 of the next level into the ground vector
    with pytest.raises(RuntimeError, match="too small to resolve"):
        ground_state(ModelParams(1.0, omega_c, g))


@pytest.mark.parametrize("n_max", range(13))
def test_joint_state_n_max_round_trips(n_max):
    size = model.sector_size(FockTruncation(n_max), odd=True)
    assert model.JointState(np.ones(size)).n_max == n_max


def test_input_validation():
    with pytest.raises(ValueError):
        ground_state(ModelParams(1.0, 1.0, 0.5), tol=0.0)
    with pytest.raises(ValueError):
        ground_state(ModelParams(1.0, 1.0, 0.5), tol=float("nan"))


class TestFidelity:
    def test_self_overlap(self, exact_ground):
        state = exact_ground(0.3).state
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        # n_max = 1, odd sector: S0, |0>0, D1
        v = np.zeros(3)
        w = np.zeros(3)
        v[0] = 1.0
        w[2] = 1.0
        assert fidelity(make_state(v, 1), make_state(w, 1)) == 0.0

    def test_sign_insensitive(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=6)
        a = make_state(v, 3)
        b = make_state(-v, 3)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self, exact_ground):
        a = exact_ground(0.2).state
        small = make_state(np.ones(3), 1)
        with pytest.raises(ValueError, match="different truncations"):
            fidelity(a, small)

    def test_variational_fidelity_reference(self, exact_ground):
        # resonance, g = 0.4: overlap above 0.999
        result = exact_ground(0.4)
        sol = variational.solve(ModelParams(1.0, 1.0, 0.4))
        trial = variational.trial_state(sol.alpha, sol.beta, FockTruncation(result.state.n_max))
        assert fidelity(trial, result.state) > 0.999


@pytest.mark.parametrize("omega_c,g", [(1.0, 0.4), (0.2, 2.0), (0.1, 2.0)])
def test_fidelity_equals_the_product_basis_overlap(exact_ground, omega_c, g):
    state = exact_ground(g, omega_c).state
    sol = variational.solve(ModelParams(1.0, omega_c, g))
    trial = variational.trial_state(sol.alpha, sol.beta, FockTruncation(state.n_max))
    reference = abs(trial.coefficients @ state.coefficients)
    assert fidelity(trial, state) == pytest.approx(reference, rel=0, abs=1e-15)


def test_ground_state_at_matches_dense_solve():
    params = ModelParams(1.0, 0.9, 0.6)
    rung = ground_state_at(params, 24)
    h = build_hamiltonian(params, FockTruncation(24))
    vals = np.linalg.eigvalsh(h)
    assert rung.energy == pytest.approx(vals[0], abs=1e-12)
    assert rung.excited_gap == pytest.approx(vals[1] - vals[0], abs=1e-10)
    assert np.linalg.norm(rung.state.coefficients) == pytest.approx(1.0, abs=1e-12)


SPECTRUM_POINTS = [
    (1.0, 0.0, 16), (1.0, 0.6, 24), (2.0, 0.7, 8), (1.0, 3.0, 64), (0.5, 2.0, 64), (0.2, 2.0, 128)
]


@pytest.mark.parametrize("omega_c,g,n_max", SPECTRUM_POINTS)
def test_ground_state_at_matches_dense_spectrum(omega_c, g, n_max):
    # dense reference: H on the eigenspaces of the parity operator
    params = ModelParams(1.0, omega_c, g)
    trunc = FockTruncation(n_max)
    h = build_hamiltonian(params, trunc)
    signs, q = np.linalg.eigh(parity_operator(trunc))
    odd, odd_vectors = np.linalg.eigh(q[:, signs < 0].T @ h @ q[:, signs < 0])
    even = np.linalg.eigvalsh(q[:, signs > 0].T @ h @ q[:, signs > 0])
    full = np.linalg.eigvalsh(h)

    rung = ground_state_at(params, n_max)
    energy, state, gap = rung.energy, rung.state, rung.excited_gap
    assert energy == pytest.approx(odd[0], abs=1e-12)
    assert energy + rung.parity_splitting == pytest.approx(even[0], abs=1e-12)
    assert gap == pytest.approx(max(0.0, min(odd[1], even[0]) - odd[0]), abs=1e-10)
    assert _odd_weight(state) >= 1.0 - 1e-12
    v = state.coefficients
    assert abs(v @ (q[:, signs < 0] @ odd_vectors[:, 0])) >= 1.0 - 1e-12
    assert rung.residual == pytest.approx(np.linalg.norm(h @ v - energy * v), abs=1e-14)
    # the full spectrum is the union of the sectors
    assert min(energy, even[0]) == pytest.approx(full[0], abs=1e-12)
    if rung.parity_splitting >= 0.0:
        assert energy == pytest.approx(full[0], abs=1e-12)
        assert gap == pytest.approx(full[1] - full[0], abs=1e-10)


@pytest.mark.parametrize("omega_c,g,n_max", SPECTRUM_POINTS)
def test_even_sector_fields_equal_the_eager_eigenvalues(omega_c, g, n_max):
    # read on demand, the splitting and the gap are the values both sectors'
    # eigenvalues gave when they were solved with every solve, bit for bit
    params, trunc = ModelParams(1.0, omega_c, g), FockTruncation(n_max)
    energy, odd_1 = exact._lowest_eigenvalues(model.sector_hamiltonian(params, trunc, True), 2)
    even_0 = exact._lowest_eigenvalues(model.sector_hamiltonian(params, trunc, False), 1)[0]
    rung = ground_state_at(params, n_max)
    assert rung.energy == float(energy)
    assert rung.parity_splitting == float(even_0) - float(energy)
    assert rung.excited_gap == max(0.0, min(float(odd_1), float(even_0)) - float(energy))


def test_even_sector_certificate_agrees_with_its_eigenvalue():
    # one Cholesky factorisation of the even band less E0 - 1e-12 (|E0| + 1)
    # succeeds exactly where the even sector's lowest eigenvalue lies above
    # that, from truncations far too small, where it can lie below E0, up to
    # the sized one
    below = 0
    for omega_c in (0.2, 0.5, 1.0, 2.0):
        for g in (0.0, 0.5, 1.0, 2.0, 3.0):
            alpha = g / omega_c
            sized = int(np.ceil(alpha * alpha + 8 * alpha + 16))
            for n_max in sorted({4, 8, *np.geomspace(4, sized, 6).astype(int).tolist()}):
                result = ground_state_at(ModelParams(1.0, omega_c, g), n_max)
                floor = -1e-12 * (abs(result.energy) + 1.0)
                certified = exact._even_sector_lies_above(result)
                assert certified == (result.parity_splitting >= floor), (omega_c, g, n_max)
                below += result.parity_splitting < 0.0
    assert below >= 1


def test_inverse_iteration_needs_the_lowest_eigenvalue():
    # H - shift is positive definite only below the spectrum: given the
    # second eigenvalue, the Cholesky factorisation fails instead of
    # returning that eigenvalue's vector
    band = model.sector_hamiltonian(ModelParams(1.0, 1.0, 0.4), FockTruncation(20), odd=True)
    lowest, second = exact._lowest_eigenvalues(band, 2)
    start, scale = np.ones(band.shape[1]), np.abs(band).max()
    vec = exact._inverse_iteration(band, lowest, start, second - lowest, scale)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(np.linalg.LinAlgError, match="not the lowest"):
        exact._inverse_iteration(band, second, start, second - lowest, scale)


@pytest.mark.parametrize("omega_c,g", [(1.0, 0.0), (1.0, 0.4), (1.0, 3.5), (0.5, 2.0), (0.2, 2.0)])
def test_ladder_equals_standalone_converged_rung(omega_c, g):
    # ground_state returns the accepted ground_state_at solve itself
    params = ModelParams(1.0, omega_c, g)
    result = ground_state(params)
    rung = ground_state_at(params, result.n_max_used)
    assert result.energy == rung.energy
    assert result.state.n_max == rung.state.n_max == result.n_max_used
    assert np.array_equal(result.state.coefficients, rung.state.coefficients)
    assert result.excited_gap == rung.excited_gap
    assert result.residual == rung.residual
    assert result.parity_splitting == rung.parity_splitting


def test_solve_work_counts(monkeypatch):
    # one solve: the odd sector's eigenvalues once, no even-sector eigensolve,
    # and one inverse iteration; the even sector is solved once, on the first
    # read of the splitting, and never again
    odd_bands, solves, iterations = [], [], []  # the bands themselves, so no id is reused
    real_sector, real_solve, real_iterate = (
        exact.sector_hamiltonian, exact._lowest_eigenvalues, exact._inverse_iteration
    )

    def sector(params, trunc, odd):
        band = real_sector(params, trunc, odd)
        if odd:
            odd_bands.append(band)
        return band

    def solve(band, count):
        solves.append(any(band is odd_band for odd_band in odd_bands))
        return real_solve(band, count)

    def iterate(*args):
        iterations.append(args)
        return real_iterate(*args)

    monkeypatch.setattr(exact, "sector_hamiltonian", sector)
    monkeypatch.setattr(exact, "_lowest_eigenvalues", solve)
    monkeypatch.setattr(exact, "_inverse_iteration", iterate)
    result = ground_state_at(ModelParams(1.0, 1.0, 0.4), 20)
    assert result.n_max_used == 20
    assert solves == [True]
    assert len(iterations) == 1
    splitting = result.parity_splitting
    assert solves == [True, False]
    assert result.parity_splitting == splitting
    assert result.excited_gap > 0.0
    assert solves == [True, False]
    assert len(iterations) == 1


def _record_sizes(monkeypatch):
    """The n_max of every ground_state_at call ground_state makes."""
    sizes, real = [], exact.ground_state_at

    def solve(params, n_max):
        sizes.append(n_max)
        return real(params, n_max)

    monkeypatch.setattr(exact, "ground_state_at", solve)
    return sizes


def test_sized_first_truncation_is_accepted(monkeypatch):
    # alpha = 0.4: ceil(0.16 + 3.2 + 16) = 20 levels, certified at once
    sizes = _record_sizes(monkeypatch)
    result = ground_state(ModelParams(1.0, 1.0, 0.4))
    assert sizes == [20] and result.n_max_used == 20
    assert result.convergence_gap < 1e-10


def test_truncation_grows_by_a_quarter_up_to_the_cap(monkeypatch):
    # a tolerance no solve meets: 20, 25, 32, 40, then the cap, never above
    sizes = _record_sizes(monkeypatch)
    monkeypatch.setattr(exact, "N_MAX_CAP", 45)
    with pytest.raises(RuntimeError, match="not converged"):
        ground_state(ModelParams(1.0, 1.0, 0.4), tol=1e-300)
    assert sizes == [20, 25, 32, 40, 45]


@pytest.mark.parametrize("omega_c,g,n_max", [(1.0, 1.0, 8), (0.5, 1.0, 10), (2.0, 0.7, 6), (0.2, 1.0, 40)])
def test_error_estimate_is_the_padded_residual(omega_c, g, n_max):
    # dense reference: the zero-padded vector's residual in H one level up,
    # over the odd sector's own gap
    params = ModelParams(1.0, omega_c, g)
    result = ground_state_at(params, n_max)
    h = build_hamiltonian(params, FockTruncation(n_max + 1))
    v = np.pad(result.state.coefficients, (0, 3))
    residual = np.linalg.norm(h @ v - result.energy * v)
    assert residual > 1e-6
    trunc = FockTruncation(n_max)
    signs, q = np.linalg.eigh(parity_operator(trunc))
    odd = np.linalg.eigvalsh(q[:, signs < 0].T @ build_hamiltonian(params, trunc) @ q[:, signs < 0])
    assert result.convergence_gap == pytest.approx(residual**2 / (odd[1] - odd[0]), rel=1e-9)


def test_error_estimate_certifies_the_truncation():
    # Kato-Temple estimate against the error to a much larger truncation,
    # over truncations from far too small up to the sized one (alpha <= 40)
    tol, compared = 1e-10, 0
    for omega_c in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
        for g in np.linspace(0.0, min(5.0, 40.0 * omega_c), 7)[1:]:
            params = ModelParams(1.0, omega_c, g)
            alpha = g / omega_c
            reference = ground_state_at(params, int(alpha * alpha + 20 * alpha + 200)).energy
            sized = int(np.ceil(alpha * alpha + 8 * alpha + 16))
            for n_max in np.unique(np.geomspace(8, sized, 12).astype(int)):
                result = ground_state_at(params, int(n_max))
                error = result.energy - reference
                assert not (result.convergence_gap < tol and error > tol), (omega_c, g, n_max)
                if 1e-12 * abs(reference) < error < 1e-3:
                    compared += 1
                    assert result.convergence_gap >= error, (omega_c, g, n_max)
    assert compared >= 50


@pytest.mark.parametrize("g", [4.4, 5.0])
def test_small_omega_c_deep_coupling_converges(g):
    # alpha = 44 and 50 need more than 2048 Fock levels
    params = ModelParams(1.0, 0.1, g)
    result = ground_state(params)
    assert result.n_max_used <= 4096
    reference = ground_state_at(params, result.n_max_used + 1024)
    assert result.energy == pytest.approx(reference.energy, rel=1e-12)


@pytest.mark.parametrize(
    "omega_c,g,n_max", [(1.0, 0.0, 16), (1.0, 0.4, 32), (1.0, 3.5, 128), (0.2, 2.0, 512)]
)
@pytest.mark.parametrize("odd", [True, False])
@pytest.mark.parametrize("count", [1, 2])
def test_lowest_eigenvalues_equal_eig_banded(omega_c, g, n_max, odd, count):
    band = model.sector_hamiltonian(ModelParams(1.0, omega_c, g), FockTruncation(n_max), odd)
    # Fortran order, which LAPACK could overwrite in place
    band = np.asfortranarray(band)
    before = band.copy()
    values = exact._lowest_eigenvalues(band, count)
    reference = scipy.linalg.eig_banded(
        band, lower=True, eigvals_only=True, select="i", select_range=(0, count - 1)
    )
    assert np.array_equal(values, reference)
    # inverse iteration reuses the odd band after its eigenvalues are taken
    assert np.array_equal(band, before)
