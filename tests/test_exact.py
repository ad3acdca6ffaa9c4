import re

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
from rabi2q import cli, exact, model, variational
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
    def swapped(omega_a, omega_c, g, n_max, parities):
        stack = model.sector_bands(omega_a, omega_c, g, n_max, tuple(not odd for odd in parities))
        return stack._replace(start=np.where(stack.start == 0.0, 1.0, stack.start))  # 0 nowhere

    monkeypatch.setattr(exact, "sector_bands", swapped)
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
    # the sized one; all the truncations at one omega_c are one stacked solve
    below = 0
    for omega_c in (0.2, 0.5, 1.0, 2.0):
        points = []
        for g in (0.0, 0.5, 1.0, 2.0, 3.0):
            alpha = g / omega_c
            sized = int(np.ceil(alpha * alpha + 8 * alpha + 16))
            for n_max in sorted({4, 8, *np.geomspace(4, sized, 6).astype(int).tolist()}):
                points.append((g, n_max))
        solve = exact._solve_chunk(1.0, omega_c, *map(list, zip(*points)))
        for k, (g, n_max) in enumerate(points):
            result = ground_state_at(ModelParams(1.0, omega_c, g), n_max)
            floor = -1e-12 * (abs(result.energy) + 1.0)
            certified = k not in solve.even_below
            assert certified == (result.parity_splitting >= floor), (omega_c, g, n_max)
            if not certified:
                assert solve.even_below[k] == result.even_energy
            below += result.parity_splitting < 0.0
    assert below >= 1


def test_inverse_iteration_needs_the_lowest_eigenvalue(monkeypatch):
    # H - shift is positive definite only below the spectrum: given the
    # second eigenvalue, the Cholesky factorisation fails instead of
    # returning that eigenvalue's vector
    params = ModelParams(1.0, 1.0, 0.4)
    vec = ground_state_at(params, 20).state.amplitudes
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-15)
    real = exact._lowest_eigenvalues
    monkeypatch.setattr(exact, "_lowest_eigenvalues", lambda band, count: real(band, 3)[1:])
    with pytest.raises(np.linalg.LinAlgError, match="not the lowest"):
        ground_state_at(params, 20)


def test_band_scale_is_the_largest_band_entry():
    points = [(1.0, 1.0, 0.0), (1.0, 1.0, 0.4), (0.8, 0.3, 1.7), (1.0, 1e-10, 2e-10),
              (1.0, 1.0, 1e200), (1.0, 1e-300, 1e5), (2.0, 0.1, 4.6)]  # fmt: skip
    for omega_a, omega_c, g in points:
        for n_max in (0, 1, 2, 7, 20, 45, 513, 4096):
            trunc = FockTruncation(n_max)
            band = model.sector_hamiltonian(ModelParams(omega_a, omega_c, g), trunc, True)
            assert exact._band_scale(omega_a, omega_c, g, n_max) == band.max(), (omega_c, g, n_max)


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
    # one solve: one stacked band of both sectors, the odd sector's
    # eigenvalues once, no even-sector eigensolve, and one Cholesky
    # factorisation for both inverse iteration and the even sector's
    # certificate; the even sector is solved once, on the first read of the
    # splitting, and never again
    stacks, solves, factorisations = [], [], []
    real_bands, real_solve, real_cholesky = (
        exact.sector_bands, exact._lowest_eigenvalues, exact._cholesky
    )

    def bands(*args):
        stacks.append(real_bands(*args))
        return stacks[-1]

    def solve(band, count):
        solves.append(any(np.shares_memory(band, stack.band) for stack in stacks))
        return real_solve(band, count)

    def factor(*args):
        factorisations.append(args)
        return real_cholesky(*args)

    monkeypatch.setattr(exact, "sector_bands", bands)
    monkeypatch.setattr(exact, "_lowest_eigenvalues", solve)
    monkeypatch.setattr(exact, "_cholesky", factor)
    result = ground_state_at(ModelParams(1.0, 1.0, 0.4), 20)
    assert result.n_max_used == 20
    assert len(stacks) == 1 and stacks[0].bounds == [0, 32, 63]  # the odd block, then the even
    assert solves == [True]
    assert len(factorisations) == 1
    splitting = result.parity_splitting
    assert solves == [True, False]
    assert result.parity_splitting == splitting
    assert result.excited_gap > 0.0
    assert solves == [True, False]
    assert len(factorisations) == 1


def _record_sizes(monkeypatch):
    """The n_max of every solve ground_state makes."""
    sizes, real = [], exact._solve_chunk

    def solve(omega_a, omega_c, g, n_max):
        sizes.extend(n_max)
        return real(omega_a, omega_c, g, n_max)

    monkeypatch.setattr(exact, "_solve_chunk", solve)
    return sizes


def test_sized_first_truncation_is_accepted(monkeypatch):
    # alpha = 0.4: ceil(0.16 + 3.2 + 16) = 20 levels, certified at once
    sizes = _record_sizes(monkeypatch)
    result = ground_state(ModelParams(1.0, 1.0, 0.4))
    assert sizes == [20] and result.n_max_used == 20
    assert result.convergence_gap < 1e-10


def test_truncation_grows_by_a_quarter_up_to_the_cap(monkeypatch):
    # a tolerance no solve meets: 49, 62, then the cap, never above; at g = 3
    # the estimate falls from 3e-18 to 2e-28 and on, and reaches its rounding
    # floor near 3e-38 only at 78 levels, so it never stalls below the cap
    sizes = _record_sizes(monkeypatch)
    monkeypatch.setattr(exact, "N_MAX_CAP", 70)
    with pytest.raises(RuntimeError, match="not converged to 1e-300 by n_max=70"):
        ground_state(ModelParams(1.0, 1.0, 3.0), tol=1e-300)
    assert sizes == [49, 62, 70]


@pytest.mark.parametrize("scale", [1e40, 1e150])
def test_estimate_on_its_rounding_floor_ends_the_ladder(monkeypatch, scale):
    # omega_c = g = s is the alpha = 1 problem scaled by s; the estimate falls
    # at 25 and 32 levels, then sits on a floor about 2e-39 s: at 50 levels it
    # is not below half of its value at 40, and the row ends there
    sizes = _record_sizes(monkeypatch)
    with pytest.raises(RuntimeError, match="estimate stalls at n_max=50") as error:
        ground_state(ModelParams(1.0, scale, scale))
    assert sizes == [25, 32, 40, 50]
    floor = float(re.search(r"--tol this point can meet is above (\S+) ", str(error.value))[1])
    assert 1e-39 * scale < floor < 1e-38 * scale
    # a tolerance above the floor is met, on the truncation where it was read
    assert ground_state(ModelParams(1.0, scale, scale), tol=1.01 * floor).n_max_used == 40


@pytest.mark.parametrize("scale,n_max,energy", [(1.0, [25], -1.389855187), (1e20, [25, 32], -1e20)])
def test_estimates_that_keep_falling_keep_their_ladder(monkeypatch, scale, n_max, energy):
    # at s = 1e20 the qubit splitting is lost next to g^2 / omega_c = s
    sizes = _record_sizes(monkeypatch)
    result = ground_state(ModelParams(1.0, scale, scale))
    assert sizes == n_max and result.n_max_used == n_max[-1]
    assert result.energy == pytest.approx(energy, rel=1e-9)


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


class TestChunks:
    """The exact stage of a grid: rows solved a chunk at a time on one stacked band."""

    COLUMNS = ("g", "energy_exact", "n_max_used", "eig_residual", "negativity_exact", "fidelity",
               "error")  # fmt: skip

    @staticmethod
    def _rows(omega_c, g, tol=1e-10):
        """Each row of the grid as (energy, n_max, residual, estimate, vector bytes),
        or its error."""
        rows = {}
        for chunk in exact.ground_state_chunks(1.0, omega_c, list(g), tol):
            for i, k in enumerate(chunk.rows):
                size = model.sector_size(FockTruncation(chunk.n_max[i]), odd=True)
                vector = chunk.vectors[chunk.starts[i] : chunk.starts[i] + size]
                rows[k] = (chunk.energy[i], chunk.n_max[i], chunk.residual[i],
                           chunk.convergence_gap[i], vector.tobytes())  # fmt: skip
            rows.update((k, str(exc)) for k, exc in chunk.errors.items())
        return [rows[k] for k in range(len(g))]

    @staticmethod
    def _alone(omega_c, g, tol=1e-10):
        try:
            result = ground_state(ModelParams(1.0, omega_c, g), tol=tol)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            return str(exc)
        return (result.energy, result.n_max_used, result.residual, result.convergence_gap,
                result.state.amplitudes.tobytes())  # fmt: skip

    def test_grid_rows_equal_single_rows_across_chunk_boundaries(self, monkeypatch):
        # at a cap of 40 levels a chunk holds 62 odd-sector entries: one or two
        # of these rows, which all converge below the cap
        monkeypatch.setattr(exact, "N_MAX_CAP", 40)
        g = np.linspace(0.0, 1.0, 11).tolist()
        assert self._rows(1.0, g) == [self._alone(1.0, g_k) for g_k in g]
        rows = cli.evaluate(1.0, g, self.COLUMNS, 1e-10)
        assert [row["error"] for row in rows] == [""] * len(g)
        assert rows == [cli.evaluate(1.0, [g_k], self.COLUMNS, 1e-10)[0] for g_k in g]

    def test_a_row_failing_in_mid_chunk_leaves_its_neighbours_alone(self, monkeypatch):
        # at g = 0 the estimate is 0, so those rows meet any tolerance, while
        # the row between them climbs until its estimate stalls on its
        # rounding floor (1e-40 at 25 levels), and fails there
        monkeypatch.setattr(exact, "N_MAX_CAP", 40)
        g = [0.0, 0.4, 0.0]
        rows = self._rows(1.0, g, tol=1e-300)
        assert rows == [self._alone(1.0, g_k, tol=1e-300) for g_k in g]
        assert rows[1].startswith("ground state error estimate stalls at n_max=32")

    def test_mixed_chunk_of_resolved_and_unresolved_gaps(self):
        # omega_c = 1e-10: at g = 0 the decoupled state is resolved, at g > 0
        # the odd-sector gap of 2e-10 is not; all three rows are one chunk
        g = [0.0, 1e-10, 2e-10]
        rows = cli.evaluate(1e-10, g, self.COLUMNS, 1e-10)
        assert rows[0]["error"] == ""
        assert rows[0] == cli.evaluate(1e-10, [0.0], self.COLUMNS, 1e-10)[0]
        for row, n_max in zip(rows[1:], (25, 36)):
            assert row == {"g": row["g"], "error": (
                "RuntimeError: odd-sector gap 2.000e-10 is too small to resolve the ground vector "
                f"at n_max={n_max} (omega_a=1.0, omega_c=1e-10, g={row['g']})"
            )}  # fmt: skip
        assert self._rows(1e-10, g) == [self._alone(1e-10, g_k) for g_k in g]

    def test_huge_g_row_between_ordinary_rows(self):
        g = [0.4, 1e200, 0.8]
        rows = cli.evaluate(1.0, g, self.COLUMNS, 1e-10)
        assert rows[1]["error"].startswith("RuntimeError: ground state not converged")
        for k in (0, 2):
            assert rows[k]["error"] == ""
            assert rows[k] == cli.evaluate(1.0, [g[k]], self.COLUMNS, 1e-10)[0]
        assert self._rows(1.0, g) == [self._alone(1.0, g_k) for g_k in g]

    def test_even_band_failing_its_certificate_fails_that_row_alone(self, monkeypatch):
        # the even band of the middle row is pushed 10 below, so its even
        # sector lies below its odd one; the rows around it share its chunk
        real = exact.sector_bands

        def bands(omega_a, omega_c, g, n_max, parities):
            stack = real(omega_a, omega_c, g, n_max, parities)
            for k, g_k in enumerate(g):
                if g_k == 0.6 and parities == (True, False):
                    stack.band[0, stack.bounds[2 * k + 1] : stack.bounds[2 * k + 2]] -= 10.0
            return stack

        expected = self._rows(1.0, [0.4, 0.6, 0.8])
        monkeypatch.setattr(exact, "sector_bands", bands)
        rows = self._rows(1.0, [0.4, 0.6, 0.8])
        assert rows[0::2] == expected[0::2]
        assert rows[1].startswith("even-sector ground energy lies ")
        assert rows[1].endswith(
            "below the odd-sector one at n_max=22 (omega_a=1.0, omega_c=1.0, g=0.6)"
        )

    def test_a_chunk_that_raises_fails_the_row_that_raised(self, monkeypatch):
        # a numpy warning made an error fails the whole solve of a chunk: its
        # rows are solved again one at a time, and only that row fails
        real = exact._solve_chunk

        def solve(omega_a, omega_c, g, n_max):
            if 0.6 in g:
                raise RuntimeWarning("overflow encountered in multiply")
            return real(omega_a, omega_c, g, n_max)

        expected = self._rows(1.0, [0.4, 0.6, 0.8])
        monkeypatch.setattr(exact, "_solve_chunk", solve)
        rows = self._rows(1.0, [0.4, 0.6, 0.8])
        assert rows[0::2] == expected[0::2]
        assert rows[1] == "overflow encountered in multiply"

    @pytest.mark.parametrize("cap", [40, 256, 4096])
    def test_no_chunk_holds_more_than_one_capped_solve(self, monkeypatch, cap):
        monkeypatch.setattr(exact, "N_MAX_CAP", cap)
        limit = model.sector_size(FockTruncation(cap), odd=True)
        chunks, real = [], exact._solve_chunk

        def solve(omega_a, omega_c, g, n_max):
            chunks.append([model.sector_size(FockTruncation(n), odd=True) for n in n_max])
            return real(omega_a, omega_c, g, n_max)

        monkeypatch.setattr(exact, "_solve_chunk", solve)
        for omega_c, g in ((1.0, np.linspace(0.0, 1.2, 241)), (0.2, np.linspace(0.2, 2.0, 10))):
            for _ in exact.ground_state_chunks(1.0, omega_c, g.tolist(), 1e-10):
                pass
        assert len(chunks) > 2 and max(map(sum, chunks)) <= limit
