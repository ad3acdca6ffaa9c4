"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import time

import numpy as np

from rabi2q import FockTruncation, ModelParams, fidelity, ground_state
from rabi2q import transform, variational
from rabi2q.cli import REFERENCE_ENERGIES, locate_negativity_zero
from rabi2q.entangle import (
    negativity_closed_form,
    negativity_numerical,
    reduced_density_from_joint,
    reduced_density_variational,
)

NEGATIVITY_FLOOR = 5e-6  # half a unit in the benchmark table's fifth decimal


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def corrected_energy(params: ModelParams) -> tuple[float, float]:
    sol = variational.solve(params).levels
    return sol.eps_minus, sol.eps_minus + transform.perturbation_correction(sol, params)


def test_criterion_1_reference_table_regression():
    # 18 values at resonance within 2e-5, computed fresh, under 10 s
    start = time.perf_counter()
    worst = 0.0
    for g, ref_exact, ref_dressed, ref_corrected in REFERENCE_ENERGIES:
        params = ModelParams(1.0, 1.0, g)
        e_exact = ground_state(params).energy
        e_dressed, e_corrected = corrected_energy(params)
        for have, want in [(e_exact, ref_exact), (e_dressed, ref_dressed),
                           (e_corrected, ref_corrected)]:
            worst = max(worst, abs(have - want))
    elapsed = time.perf_counter() - start
    ok = worst < 2e-5 and elapsed < 10.0
    report(1, ok, f"max |diff| = {worst:.2e} (tol 2e-5), runtime {elapsed:.2f}s (< 10s)")
    assert worst < 2e-5
    assert elapsed < 10.0


def test_criterion_2_variational_error_band_at_half_coupling(exact_ground):
    params = ModelParams(1.0, 1.0, 0.5)
    e_exact = exact_ground(0.5).energy
    e_var = variational.solve(params).energy
    _, e_corr = corrected_energy(params)
    rel_var = abs(e_var - e_exact) / abs(e_exact)
    rel_corr = abs(e_corr - e_exact) / abs(e_exact)
    ok = 0.0005 <= rel_var <= 0.002 and rel_corr < 2e-5
    report(2, ok, f"variational error {rel_var:.3%} in [0.05%, 0.2%]; "
                  f"corrected error {rel_corr:.5%} < 0.002%")
    assert 0.0005 <= rel_var <= 0.002
    assert rel_corr < 2e-5


def test_criterion_3_fidelity_above_0p999(exact_ground):
    worst = 1.0
    for g in (0.1, 0.2, 0.3, 0.4, 0.5):
        result = exact_ground(g)
        sol = variational.solve(ModelParams(1.0, 1.0, g))
        trial = variational.trial_state(sol.alpha, sol.beta, FockTruncation(result.state.n_max))
        worst = min(worst, fidelity(trial, result.state))
    ok = worst > 0.999
    report(3, ok, f"min fidelity over g in 0.1..0.5 = {worst:.6f} (> 0.999)")
    assert worst > 0.999


def test_criterion_4_detuned_regime(exact_ground):
    worst = 0.0
    for g in np.arange(0.1, 0.85, 0.1):
        g = round(float(g), 2)
        e_exact = exact_ground(g, 1.2).energy
        e_var = variational.solve(ModelParams(1.0, 1.2, g)).energy
        worst = max(worst, abs(e_var - e_exact) / abs(e_exact))
    ok = worst < 0.005
    report(4, ok, f"max relative error at omega_c = 1.2, g <= 0.8: {worst:.3%} (< 0.5%)")
    assert worst < 0.005


def test_criterion_5_small_g_negativity_law(exact_ground):
    value = negativity_numerical(reduced_density_from_joint(exact_ground(0.02).state))
    ratio = value / 0.02**2
    ok = abs(ratio - 1.0 / 16.0) < 0.01 / 16.0
    report(5, ok, f"negativity/g^2 at g=0.02 is {ratio:.6f} vs 1/16 = {1/16:.6f} (1%)")
    assert abs(ratio - 1.0 / 16.0) < 0.01 / 16.0


def test_criterion_6_negativity_zero_crossing_and_maximum(exact_ground):
    crossing = locate_negativity_zero(
        1.0, g_lo=1.5, g_hi=3.5, threshold=NEGATIVITY_FLOOR, g_tol=1e-3, tol=1e-10
    )
    stays_zero = all(
        negativity_numerical(reduced_density_from_joint(exact_ground(g).state))
        < NEGATIVITY_FLOOR
        for g in (2.8, 3.0, 3.5)
    )
    grid = [round(float(g), 2) for g in np.arange(0.7, 1.32, 0.02)]
    values = [
        negativity_numerical(reduced_density_from_joint(exact_ground(g).state))
        for g in grid
    ]
    g_max = grid[int(np.argmax(values))]
    ok = 2.5 <= crossing <= 2.7 and stays_zero and 0.85 <= g_max <= 1.15
    report(6, ok, f"numerical zero (< {NEGATIVITY_FLOOR:g}) at g = {crossing:.3f} "
                  f"(2.6 +/- 0.1), stays zero beyond: {stays_zero}; "
                  f"maximum at g = {g_max:.2f} (1.0 +/- 0.15)")
    assert 2.5 <= crossing <= 2.7
    assert stays_zero
    assert 0.85 <= g_max <= 1.15


def test_criterion_7_method_equivalence_grid():
    worst = 0.0
    for omega_c in (0.8, 1.0, 1.2):
        for g in np.linspace(0.06, 1.2, 20):
            params = ModelParams(1.0, omega_c, float(g))
            var = variational.solve(params)
            sol = var.levels
            worst = max(
                worst,
                abs(sol.chi - var.alpha),
                abs(sol.lambda_minus - var.beta),
                abs(sol.eps_minus - var.energy),
            )
    ok = worst < 1e-9
    report(7, ok, f"max |(chi, lambda_-, eps_-) - (alpha, beta, E_v)| = {worst:.2e} "
                  f"over 20x3 grid (tol 1e-9)")
    assert worst < 1e-9


def test_criterion_8_oracle_suites(exact_ground):
    # closed-form negativity vs numerical partial transpose on 100 random
    # points of the trial family's reachable domain (beta^2 <= 2)
    rng = np.random.default_rng(88)
    worst_neg = 0.0
    for _ in range(100):
        alpha = rng.uniform(-1.5, 1.5)
        beta = rng.uniform(-np.sqrt(2.0), np.sqrt(2.0))
        numeric = negativity_numerical(reduced_density_variational(alpha, beta))
        worst_neg = max(worst_neg, abs(numeric - negativity_closed_form(alpha, beta)))

    # closed-form correction vs sum over states at 6 grid points
    worst_pert = 0.0
    for omega_c, g in [(1.0, 0.2), (1.0, 0.5), (1.0, 0.8), (0.8, 0.4), (1.2, 0.4), (1.2, 0.9)]:
        params = ModelParams(1.0, omega_c, g)
        sol = variational.solve(params).levels
        closed = transform.perturbation_correction(sol, params)
        summed = transform.perturbation_sum_over_states(sol, params, FockTruncation(40))
        worst_pert = max(worst_pert, abs(closed - summed))

    # energy formula vs matrix element on random trial states
    worst_energy = 0.0
    trunc = FockTruncation(60)
    from rabi2q.model import build_hamiltonian

    for _ in range(30):
        alpha = rng.uniform(-1.0, 1.0)
        beta = rng.uniform(-2.0, 2.0)
        params = ModelParams(1.0, rng.uniform(0.8, 1.2), rng.uniform(0.0, 1.0))
        state = variational.trial_state(alpha, beta, trunc)
        h = build_hamiltonian(params, trunc)
        worst_energy = max(
            worst_energy,
            abs(state.coefficients @ h @ state.coefficients
                - variational.energy_expectation(alpha, beta, params)),
        )

    # truncation-error estimate of the accepted exact solve
    worst_gap = max(
        ground_state(ModelParams(1.0, wc, g)).convergence_gap
        for wc, g in [(1.0, 0.4), (1.0, 1.2), (1.2, 0.6)]
    )

    # variational upper bound across the tested grid
    bound_holds = True
    for omega_c in (0.8, 1.0, 1.2):
        for g in (0.1, 0.4, 0.8, 1.2):
            e_var = variational.solve(ModelParams(1.0, omega_c, g)).energy
            bound_holds &= e_var >= exact_ground(g, omega_c).energy - 1e-12

    ok = (worst_neg < 1e-12 and worst_pert < 1e-9 and worst_energy < 1e-9
          and worst_gap < 1e-10 and bound_holds)
    report(8, ok, f"negativity oracle {worst_neg:.1e} (1e-12); "
                  f"perturbation oracle {worst_pert:.1e} (1e-9); "
                  f"energy oracle {worst_energy:.1e} (1e-9); "
                  f"truncation-error estimate {worst_gap:.1e} (1e-10); "
                  f"E_v >= E_g everywhere: {bound_holds}")
    assert worst_neg < 1e-12
    assert worst_pert < 1e-9
    assert worst_energy < 1e-9
    assert worst_gap < 1e-10
    assert bound_holds
