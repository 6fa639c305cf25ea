"""Acceptance suite: one test per acceptance criterion.

Each test prints a PASS line with its headline numbers once its
assertions hold; run with ``pytest -s tests/test_acceptance.py`` to see
them. The optimized grid is computed once and shared.
"""
import math

import numpy as np
import pytest

from helpers_mc import counts_match, sample_cell, sample_pair11
from mdiqds import bounds
from mdiqds.channel import SystemParams
from mdiqds.models import run_model, run_smb1, run_sob
from mdiqds.montecarlo import (
    BOUND_IDS,
    simulate_forging,
    simulate_repudiation,
    validate_bound,
)
from mdiqds.optimize import (
    REFERENCE_VECTOR,
    config_from_vector,
    coordinate_descent,
    optimize_models,
    qds_search_space,
    rate_objective,
)
from reference_chain import expected_tables

EPSILON = 1e-5
SEED = 1
GRID_DISTANCES = (10.0, 50.0, 100.0, 150.0)
GRID_PULSES = (1e12, 1e14)
REFERENCE_CFG = config_from_vector(REFERENCE_VECTOR)


def params_at(distance_km: float, n_pulses: float) -> SystemParams:
    return SystemParams(distance_km=distance_km, n_pulses=n_pulses)


@pytest.fixture(scope="module")
def optimized_grid():
    """Fully optimized rates for every model on the acceptance grid."""
    grid = {}
    for n_pulses in GRID_PULSES:
        warm = None
        for distance in GRID_DISTANCES:
            results = optimize_models(params_at(distance, n_pulses),
                                      seed=SEED, starts=1, initial=warm)
            grid[(n_pulses, distance)] = results
            feasible = [r for r in results.values() if r.feasible]
            if feasible:
                cfg = max(feasible, key=lambda r: r.rate).config
                warm = (cfg.a_s, cfg.a_d1, cfg.p_as, cfg.p_ad1, cfg.p_z)
    return grid


@pytest.fixture(scope="module")
def reference_sweep():
    """Unoptimized reference-configuration sweep for the security audit."""
    records = []
    for n_pulses in (1e12, 1e14):
        for distance in np.arange(10.0, 300.0, 20.0):
            for model in ("sob", "smb1", "smb2"):
                records.append(run_model(model, params_at(float(distance), n_pulses),
                                         REFERENCE_CFG))
    return records


def test_criterion_1_model_ordering(optimized_grid):
    """Cross-model rate orderings on the fully optimized grid."""
    checked = 0
    for n_pulses in GRID_PULSES:
        feasible_sob = [d for d in GRID_DISTANCES
                        if optimized_grid[(n_pulses, d)]["sob"].feasible]
        largest_feasible = max(feasible_sob) if feasible_sob else None
        for distance in GRID_DISTANCES:
            res = optimized_grid[(n_pulses, distance)]
            r_sob, r_smb1, r_smb2 = (res[m].rate for m in ("sob", "smb1", "smb2"))
            assert r_smb1 >= r_smb2, (n_pulses, distance)
            if res["sob"].feasible:
                assert r_smb1 >= r_sob, (n_pulses, distance)
                if distance != largest_feasible:
                    assert r_smb2 >= r_sob, (n_pulses, distance)
            checked += 1
    print(f"\nACCEPTANCE 1 PASS: orderings hold on {checked} optimized grid points")


def test_criterion_2_sob_flatness():
    """Rate behaviour versus the pulse count at 150 km."""
    pulse_grid = (1e13, 1e14, 1e15, 1e16)
    optimized = optimize_models(params_at(150.0, pulse_grid[0]), seed=2, starts=1)
    rates = {}
    for model in ("sob", "smb1", "smb2"):
        cfg = optimized[model].config
        assert optimized[model].feasible, model
        rates[model] = [run_model(model, params_at(150.0, n), cfg).rate
                        for n in pulse_grid]
    assert len(set(rates["sob"])) == 1  # exact equality
    for model in ("smb1", "smb2"):
        assert all(a <= b for a, b in zip(rates[model], rates[model][1:])), model
    print(f"\nACCEPTANCE 2 PASS: R_sob constant at {rates['sob'][0]:.4e}; "
          f"smb1 {rates['smb1'][0]:.3e}->{rates['smb1'][-1]:.3e} and "
          f"smb2 {rates['smb2'][0]:.3e}->{rates['smb2'][-1]:.3e} non-decreasing")


def test_criterion_3_terminal_equivalence():
    """Both models sign exactly one bit at the sign-one-bit range limit."""
    n_pulses = 1e12

    def sob_feasible(distance: float) -> bool:
        return run_sob(params_at(distance, n_pulses), REFERENCE_CFG).feasible

    lo, hi = 10.0, 400.0
    assert sob_feasible(lo) and not sob_feasible(hi)
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if sob_feasible(mid):
            lo = mid
        else:
            hi = mid
    terminal = params_at(lo, n_pulses)
    r_sob = run_sob(terminal, REFERENCE_CFG)
    r_smb1 = run_smb1(terminal, REFERENCE_CFG)
    assert r_sob.feasible and r_smb1.feasible
    ratio = r_smb1.rate / r_sob.rate
    assert 1.0 <= ratio <= 2.0
    assert 1.0 <= r_smb1.n_bits < 2.0  # signs exactly one bit
    assert int(r_sob.n_bits) == 1
    print(f"\nACCEPTANCE 3 PASS: cutoff {lo:.2f} km, R_smb1/R_sob = {ratio:.4f}, "
          f"smb1 n_bits = {r_smb1.n_bits:.4f}")


def test_criterion_4_security_audit(optimized_grid, reference_sweep):
    """Independent recomputation of every emitted feasible record."""
    records = [res[m] for res in optimized_grid.values() for m in res]
    records += reference_sweep
    audited = 0
    for r in records:
        if not r.feasible:
            continue
        assert 0.0 < r.s_a < r.s_v < 0.5, r.model
        assert r.p_e > r.s_v, r.model
        eps_n = sum(v for _, v in r.eps_n_terms)
        eps_e = sum(v for _, v in r.eps_e_terms)
        p_rob = 2.0 * 1e-12
        p_rep = 2.0 * math.exp(-0.25 * (r.s_v - r.s_a) ** 2 * r.length)
        p_f = math.exp(-2.0 * (r.length / 2.0) * (r.p_e - r.s_v) ** 2)
        p_forge = p_f + 1e-12 + 1e-12 + eps_n + eps_e
        assert p_rob == pytest.approx(r.p_robust, rel=1e-9)
        assert p_rep == pytest.approx(r.p_repudiation, rel=1e-9)
        assert p_forge == pytest.approx(r.p_forge, rel=1e-9)
        assert max(p_rob, p_rep, p_forge) <= EPSILON * (1 + 1e-9)
        audited += 1
    assert audited >= 40
    print(f"\nACCEPTANCE 4 PASS: {audited} feasible records re-verified, 0 violations")


def test_criterion_5_bound_coverage():
    """Monte Carlo coverage of the five deviation bounds and two attacks."""
    eps, trials = 0.01, 100_000
    freqs = {}
    for bound_id in BOUND_IDS:
        stats = validate_bound(bound_id, eps=eps, trials=trials, seed=31)
        assert stats.frequency <= eps, bound_id
        assert stats.wilson99_upper <= 1.5 * eps, bound_id
        freqs[bound_id] = stats.frequency
    for batch in range(20):
        rep = simulate_repudiation(2000, 0.05, 0.15, 20_000, seed=500 + batch)
        assert rep.frequency <= rep.bound
    forged = 0
    for batch in range(20):
        forge = simulate_forging(200, 0.3, 0.25, 20_000, seed=700 + batch)
        assert forge.frequency <= forge.bound
        forged += forge.successes
    assert forged > 0  # the forging batches are not vacuous
    worst = max(freqs.values())
    print(f"\nACCEPTANCE 5 PASS: worst bound violation frequency {worst:.4f} "
          f"<= {eps}; 20/20 repudiation and forging batches below their bounds")


def test_criterion_6_numerical_identities():
    """Inverse-entropy identity, frozen scalar examples, channel oracle."""
    for p in np.linspace(0.0, 0.5, 501):
        assert abs(bounds.inverse_binary_entropy(bounds.binary_entropy(p)) - p) <= 1e-10

    e12 = 1e-12
    frozen = [
        ("H2(0.11)", bounds.binary_entropy(0.11), 0.49991, 1e-5),
        ("H2inv(0.49991)", bounds.inverse_binary_entropy(0.49991), 0.11, 1e-4),
        ("g(1e6)", bounds.hoeffding_delta(1e6, e12), 7433.9, 0.5),
        ("gamma_frac", bounds.serfling_fraction_gamma(1000, 1000, e12), 0.0832, 1e-3),
        ("gamma_count", bounds.serfling_count_gamma(1e6, 1e6, e12), 5256.5, 1.0),
        ("lambda", bounds.sampling_lambda(1e6, 5e5, e12), 1858.5, 1.0),
        ("penalty", bounds.test_sample_penalty(1e4, 1e3, e12), 0.1288, 1e-3),
    ]
    for name, got, expected, tol in frozen:
        assert abs(got - expected) <= tol, name

    rng = np.random.default_rng(61)
    samples = 300_000
    cells = 0
    for distance in (0.0, 50.0, 100.0):
        p = params_at(distance, 1e12)
        tallies = expected_tables(p, REFERENCE_CFG)
        eta = p.arm_transmittance
        for i, a in enumerate(REFERENCE_CFG.intensities):
            for j, b in enumerate(REFERENCE_CFG.intensities):
                succ, errs = sample_cell(rng, a, b, eta, p.p_dc, p.e_d, samples)
                y_exp = tallies.counts_z[i, j] / tallies.pulses_z[i, j]
                e_exp = tallies.errors_z[i, j] / tallies.pulses_z[i, j]
                assert counts_match(succ, y_exp, samples), (distance, i, j)
                assert counts_match(errs, e_exp, samples), (distance, i, j)
                cells += 1
        succ11, err11 = sample_pair11(rng, eta, p.p_dc, p.e_d, samples)
        assert counts_match(succ11, tallies.y11, samples)
        assert counts_match(err11, tallies.y11 * tallies.e11_rate, samples)
    print(f"\nACCEPTANCE 6 PASS: identity grid, {len(frozen)} frozen scalars, "
          f"{cells} oracle cells at 3 distances within 3 sigma")


def test_criterion_7_optimizer_sanity(optimized_grid):
    """Optimized rates dominate the reference configuration; seeded reruns agree."""
    points = 0
    for (n_pulses, distance), results in optimized_grid.items():
        for model, result in results.items():
            reference = run_model(model, params_at(distance, n_pulses), REFERENCE_CFG)
            assert result.rate >= reference.rate, (model, n_pulses, distance)
        points += 1
    # bit-identical trajectories from a fixed start
    params = params_at(100.0, 1e12)
    a = coordinate_descent(rate_objective(params, "smb1"), qds_search_space())
    b = coordinate_descent(rate_objective(params, "smb1"), qds_search_space())
    assert a == b
    again = optimize_models(params, seed=SEED, starts=1)
    for model, result in optimize_models(params, seed=SEED, starts=1).items():
        assert result.rate == again[model].rate
        assert result.config == again[model].config
    print(f"\nACCEPTANCE 7 PASS: optimized >= reference at {points} grid points x 3 "
          f"models; trajectories reproducible")
