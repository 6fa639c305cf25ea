"""Pipeline tests for the three estimation models."""
import functools
import hashlib
import math
import sys

import numpy as np
import pytest

from mdiqds import channel, models, security
from mdiqds.channel import IntensityConfig, SystemParams, pulse_statistics
from mdiqds.cli import record_dict, render_csv
from mdiqds.optimize import REFERENCE_VECTOR, config_from_vector, qds_search_space
from mdiqds.security import SecurityBudget
import reference_chain
from test_channel import numpy_pair_statistics

EPS12 = 1e-12
NEAR_ONE = 1.0 - 1e-15

CFG = IntensityConfig.symmetric(a_s=0.4, a_d1=0.05, p_as=1 / 3, p_ad1=1 / 3, p_z=0.5)
# configuration with enough weight on the signal pair for the x-derived route
CFG_SMB2 = IntensityConfig.symmetric(a_s=0.3, a_d1=0.05, p_as=0.95, p_ad1=0.03, p_z=0.9)


def evaluation(params, cfg, budget=None, x_derived=False):
    """The record an smb evaluation builds: smb2's if x_derived, else smb1's."""
    return models._evaluation("smb2" if x_derived else "smb1", params, cfg, budget)


def full_chain(pipe, length):
    """The full chain's verdict at L: the feasible of outcome_at's result.

    rate and n_bits are the caller's and enter no verdict, so any do.
    """
    return pipe.outcome_at(length, 0.0, 0.0).feasible


class TestEstimateEZ1:
    def test_no_errors_vanishing_confidence(self):
        m_z1, e_z1 = reference_chain.estimate_e_z1(1e6, 1e6, 0.0, NEAR_ONE)
        assert m_z1 <= 1.0  # only the ceiling survives
        assert e_z1 <= 1e-6

    def test_cap_at_n_z1(self):
        m_z1, e_z1 = reference_chain.estimate_e_z1(1e4, 10.0, 1e6, EPS12)
        assert m_z1 == 1e4
        assert e_z1 == 1.0

    def test_known_value(self):
        m_z1, e_z1 = reference_chain.estimate_e_z1(1e6, 1e6, 2e4, EPS12)
        assert m_z1 == 25257.0
        assert e_z1 == pytest.approx(0.025257, rel=1e-9)
        _, e_terms = models.eps_ledgers(SecurityBudget(eps_sf=EPS12), x_derived=False)
        assert e_terms[2] == ("z-error sampling step", EPS12)

    def test_requires_x_sample(self):
        with pytest.raises(ValueError):
            reference_chain.estimate_e_z1(1e4, 0.0, 10.0, EPS12)


class TestProjectToKeep:
    def test_vanishing_confidence_is_exact_scaling(self):
        n_l1, e_l1, feasible = reference_chain.project_to_keep(5e5, 0.02, 1e6, 100_000, NEAR_ONE)
        assert n_l1 == pytest.approx(5e5 * 5e4 / 1e6, rel=1e-6)
        assert e_l1 == pytest.approx(0.02, abs=1e-6)
        assert feasible

    def test_full_population_sample(self):
        n_l1, _, _ = reference_chain.project_to_keep(5e5, 0.02, 1e6, 2_000_000, NEAR_ONE)
        assert n_l1 == pytest.approx(5e5, rel=1e-6)

    def test_known_values(self):
        n_l1, e_l1, _ = reference_chain.project_to_keep(5e5, 0.02, 1e6, 100_000, EPS12)
        assert n_l1 == pytest.approx(24189.9151635299, rel=1e-10)
        assert e_l1 == pytest.approx(0.0433130219442579, rel=1e-10)

    def test_floor_marks_infeasible(self):
        _, _, feasible = reference_chain.project_to_keep(10.0, 0.02, 1e6, 100, EPS12)
        assert not feasible

    def test_half_block_clamp(self):
        n_l1, _, _ = reference_chain.project_to_keep(1e6, 0.0, 1e6, 1000, NEAR_ONE)
        assert n_l1 <= 500.0

    def test_length_domain(self):
        with pytest.raises(ValueError):
            reference_chain.project_to_keep(5e5, 0.02, 1e6, 3_000_000, EPS12)


class TestSinglePhotonPopulations:
    def test_known_value(self):
        params = SystemParams(distance_km=10.0, n_pulses=1e10 / (0.5 * 0.5 * (1 / 3) ** 2))
        cfg = IntensityConfig.symmetric(a_s=0.25, a_d1=0.05, p_as=1 / 3, p_ad1=1 / 3, p_z=0.5)
        counts = reference_chain.pulse_counts(pulse_statistics(params, cfg), params.n_pulses)
        assert counts.z_signal_pulses == pytest.approx(1e10, rel=1e-9)
        lo, _ = reference_chain.single_photon_populations(counts, cfg, EPS12)
        assert lo == pytest.approx(3031909914.125, rel=1e-9)
        n_terms, _ = models.eps_ledgers(SecurityBudget(eps_sf=EPS12), x_derived=True)
        assert dict(n_terms)["single-photon populations"] == pytest.approx(9 * EPS12)

    def test_vanishing_confidence_poisson_weights(self):
        params = SystemParams(distance_km=10.0, n_pulses=1e12)
        tallies = reference_chain.expected_tables(params, CFG)
        counts = reference_chain.pulse_counts(pulse_statistics(params, CFG), params.n_pulses)
        lo, hi = reference_chain.single_photon_populations(counts, CFG, NEAR_ONE)
        a = CFG.a_s
        assert lo == pytest.approx(2 * a * math.exp(-2 * a) * tallies.pulses_z[0, 0], rel=1e-6)
        manual = sum((ai + bj) * math.exp(-ai - bj) * tallies.pulses_x[i, j]
                     for i, ai in enumerate(CFG.intensities)
                     for j, bj in enumerate(CFG.intensities))
        assert hi == pytest.approx(manual, rel=1e-6)

    def test_near_vacuum_lower_bound_infeasible(self):
        # fluctuation swamps the near-vacuum single-photon population
        cfg = IntensityConfig.symmetric(a_s=0.002, a_d1=0.0015, a_d2=0.001,
                                        p_as=1 / 3, p_ad1=1 / 3, p_z=0.5)
        params = SystemParams(distance_km=10.0, n_pulses=1e7)
        counts = reference_chain.pulse_counts(pulse_statistics(params, cfg), params.n_pulses)
        lo, _ = reference_chain.single_photon_populations(counts, cfg, EPS12)
        assert lo <= 0.0
        assert not models.run_smb2(params, cfg).feasible


class TestEstimateNZ1FromX:
    def test_zero_sample(self):
        assert reference_chain.estimate_n_z1_from_x(0.0, 1e8, 1e8, EPS12) == 0.0

    def test_vanishing_confidence_proportional(self):
        got = reference_chain.estimate_n_z1_from_x(1e6, 2e8, 1e8, NEAR_ONE)
        assert got == pytest.approx(2e6, rel=1e-6)

    def test_known_value(self):
        got = reference_chain.estimate_n_z1_from_x(1e6, 1e8, 1e8, EPS12)
        assert got == pytest.approx(947434.782039605, rel=1e-10)

    def test_population_domain(self):
        with pytest.raises(ValueError):
            reference_chain.estimate_n_z1_from_x(1e6, 1e8, 0.0, EPS12)


class TestRunners:
    def test_far_distance_infeasible(self):
        params = SystemParams(distance_km=400.0, n_pulses=1e12)
        for model in models.MODELS:
            result = models.run_model(model, params, CFG)
            assert not result.feasible
            assert result.rate == 0.0

    def test_rate_bit_identity(self):
        params = SystemParams(distance_km=50.0, n_pulses=1e12)
        for model, cfg in (("sob", CFG), ("smb1", CFG), ("smb2", CFG_SMB2)):
            r = models.run_model(model, params, cfg)
            assert r.feasible, (model, r.reason)
            assert r.rate * r.n_pulses == pytest.approx(r.n_bits, rel=1e-12)
            assert r.n_l1 <= r.length / 2
            assert 0.0 <= r.e_l1 <= 1.0
            assert r.p_e >= r.s_v

    def test_smb_rate_formula(self):
        params = SystemParams(distance_km=50.0, n_pulses=1e12)
        r = models.run_smb1(params, CFG)
        assert r.n_bits == pytest.approx(models.signed_bits(r.n_pool, r.length), rel=1e-12)
        assert models.signed_bits(2.0 * r.length, r.length) == 1.0

    def test_sob_flat_in_pulse_count(self):
        results = [models.run_sob(SystemParams(distance_km=50.0, n_pulses=n), CFG)
                   for n in (1e12, 1e13, 1e14)]
        assert all(r.feasible for r in results)
        assert len({r.block_size for r in results}) == 1
        assert len({r.rate for r in results}) == 1

    def test_sob_block_is_minimal(self):
        params = SystemParams(distance_km=50.0, n_pulses=1e12)
        r = models.run_sob(params, CFG)
        smaller = models.run_sob(SystemParams(distance_km=50.0, n_pulses=r.block_size - 1), CFG)
        assert not smaller.feasible

    def test_sob_below_smb1(self):
        params = SystemParams(distance_km=50.0, n_pulses=1e12)
        assert models.run_sob(params, CFG).rate <= models.run_smb1(params, CFG).rate

    def test_smb2_below_smb1_same_config(self):
        params = SystemParams(distance_km=50.0, n_pulses=1e12)
        r1 = models.run_smb1(params, CFG_SMB2)
        r2 = models.run_smb2(params, CFG_SMB2)
        assert r2.feasible
        assert r2.rate <= r1.rate

    def test_smb2_starved_x_basis_infeasible(self):
        cfg = IntensityConfig.symmetric(a_s=0.4, a_d1=0.05, p_as=1 / 3,
                                        p_ad1=1 / 3, p_z=0.999)
        params = SystemParams(distance_km=50.0, n_pulses=1e9)
        result = models.run_smb2(params, cfg)
        assert not result.feasible

    def test_solver_boundary_recheck(self):
        """Returned length is feasible while length - 2 is not."""
        params = SystemParams(distance_km=100.0, n_pulses=1e14)
        r = models.run_smb1(params, CFG)
        pipe = models._build_pipeline(evaluation(params, CFG), 1e14)
        assert full_chain(pipe, r.length)
        assert not full_chain(pipe, r.length - 2)

    def test_epsilon_monotone_length(self):
        params = SystemParams(distance_km=100.0, n_pulses=1e14)
        lengths = [models.run_smb1(params, CFG, SecurityBudget(epsilon=eps)).length
                   for eps in (1e-3, 1e-5, 1e-7)]
        assert lengths[0] <= lengths[1] <= lengths[2]

    def test_budget_ledger_audit(self):
        params = SystemParams(distance_km=50.0, n_pulses=1e12)
        r = models.run_smb1(params, CFG)
        # direct route: z-cell gates + fluctuation + projection
        assert models._ledger_total(r.eps_n_terms) == pytest.approx(5 * EPS12)
        # error route: m_X1 + n_X1 (with x gates) + sampling + projection
        assert models._ledger_total(r.eps_e_terms) == pytest.approx((1 + 28 + 1 + 1) * EPS12)

    def test_smb2_ledger_includes_population_terms(self):
        params = SystemParams(distance_km=50.0, n_pulses=1e12)
        r = models.run_smb2(params, CFG_SMB2)
        labels = [name for name, _ in r.eps_n_terms]
        assert "single-photon populations" in labels
        assert "x-to-z count transfer" in labels
        assert models._ledger_total(r.eps_n_terms) == pytest.approx((28 + 9 + 1 + 1) * EPS12)

    def test_unknown_model_rejected(self):
        params = SystemParams(distance_km=50.0, n_pulses=1e12)
        with pytest.raises(ValueError):
            models.run_model("bb84", params, CFG)

    def test_invariants_over_random_configs(self):
        """Every feasible result satisfies the structural invariants."""
        rng = __import__("numpy").random.default_rng(202)
        budget = SecurityBudget()
        feasible_seen = 0
        for _ in range(25):
            a_d1 = float(rng.uniform(0.01, 0.3))
            a_s = float(rng.uniform(a_d1 + 1e-3, 1.0))
            p_as = float(rng.uniform(0.05, 0.9))
            p_ad1 = float(rng.uniform(0.01, 0.95 - p_as))
            p_z = float(rng.uniform(0.05, 0.95))
            cfg = IntensityConfig.symmetric(a_s=a_s, a_d1=a_d1, p_as=p_as,
                                            p_ad1=p_ad1, p_z=p_z)
            distance = float(rng.uniform(0.0, 200.0))
            n_pulses = float(10 ** rng.uniform(10, 14))
            params = SystemParams(distance_km=distance, n_pulses=n_pulses)
            for model in models.MODELS:
                r = models.run_model(model, params, cfg, budget)
                if not r.feasible:
                    continue
                feasible_seen += 1
                assert r.rate * r.n_pulses == pytest.approx(r.n_bits, rel=1e-12)
                assert 0.0 < r.s_a < r.s_v < 0.5
                assert r.p_e > r.s_v
                assert max(r.p_robust, r.p_repudiation, r.p_forge) <= budget.epsilon * (1 + 1e-9)
                assert r.n_l1 <= r.length / 2
                assert 0.0 <= r.e_l1 <= 1.0
        assert feasible_seen >= 20

    def test_feasibility_monotone_over_random_configs(self):
        """The searches assume monotone feasibility in N_s and in L."""
        rng = np.random.default_rng(7)
        space = qds_search_space()
        lo, hi = np.asarray(space.lower), np.asarray(space.upper)
        n_pulses = 1e13
        curves = 0
        for _ in range(25):
            cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
            params = SystemParams(distance_km=float(rng.uniform(0.0, 150.0)),
                                  n_pulses=n_pulses)
            sob = models._evaluation("sob", params, cfg, None)
            grid = np.geomspace(1024, n_pulses, 40).astype(int)
            flags = [models._sob_block(sob, int(n)) is not None for n in grid]
            assert flags == sorted(flags)
            curves += 1
            for x_derived in (False, True):
                pipe = models._build_pipeline(evaluation(params, cfg, None, x_derived),
                                              n_pulses)
                if isinstance(pipe, str):
                    continue
                cap = models._even_floor(pipe.n_pool / 2.0)
                grid = sorted({models._even_floor(v) for v in np.geomspace(2, cap, 60)})
                flags = [pipe.feasible_at(L) for L in grid]
                assert flags == sorted(flags)
                assert flags == [full_chain(pipe, L) for L in grid]
                curves += 1
        assert curves >= 60

    def test_smb_feasibility_switches_once_in_length(self):
        """The floored L solve is exact only if smb feasibility is monotone in L.

        Over seeded smb1/smb2 pipelines (varied link, pulse count and
        budget), feasibility over log-spaced half-lengths and a window
        around the cold answer switches at most once, from infeasible to
        feasible, and exactly at that answer.
        """
        rng = np.random.default_rng(579)
        space = qds_search_space()
        lo, hi = np.asarray(space.lower), np.asarray(space.upper)
        seen = {"solved": 0, "no length": 0}
        for _ in range(120):
            cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
            params = SystemParams(distance_km=float(rng.uniform(0.0, 250.0)),
                                  n_pulses=float(10 ** rng.uniform(9.0, 17.0)),
                                  e_d=float(rng.uniform(0.0, 0.05)),
                                  p_dc=float(10 ** rng.uniform(-9.0, -5.0)))
            budget = SecurityBudget(epsilon=float(10 ** rng.uniform(-10.0, -2.0)),
                                    eps_pe=float(10 ** rng.uniform(-15.0, -9.0)),
                                    eps_sf=float(10 ** rng.uniform(-15.0, -9.0)))
            x_derived = bool(rng.uniform() < 0.5)
            pipe = models._build_pipeline(evaluation(params, cfg, budget, x_derived),
                                          params.n_pulses)
            if isinstance(pipe, str):
                continue
            l_max = models._even_floor(pipe.n_pool / 2.0)
            if l_max < 2:
                continue
            answer = security.solve_signature_length(pipe.margin_at, l_max)
            k_max = l_max // 2
            halves = {int(k) for k in np.geomspace(1, k_max, 400)}
            if answer is not None:
                halves.update(range(max(1, answer // 2 - 500),
                                    min(k_max, answer // 2 + 500) + 1))
            halves = sorted(halves)
            flags = [pipe.feasible_at(2 * k) for k in halves]
            assert flags == sorted(flags)
            first = next((2 * k for k, ok in zip(halves, flags) if ok), None)
            assert first == answer
            seen["solved" if answer is not None else "no length"] += 1
        assert min(seen.values()) >= 15, seen

    def test_max_feasible_distance_grows_with_pulse_count(self):
        def max_feasible(n_pulses: float) -> float:
            best = 0.0
            for d in range(60, 301, 30):
                r = models.run_smb1(SystemParams(distance_km=float(d),
                                                 n_pulses=n_pulses), CFG)
                if r.feasible:
                    best = float(d)
            return best

        reaches = [max_feasible(n) for n in (1e12, 1e14, 1e16)]
        assert reaches[0] <= reaches[1] <= reaches[2]
        assert reaches[0] < reaches[2]


def test_rate_times_pulses_within_two_ulp_of_n_bits():
    """RateResult's R*N == n_bits holds to 2 ulp, not exactly."""
    cfg = config_from_vector(REFERENCE_VECTOR)
    feasible = {model: 0 for model in models.MODELS}
    for distance in range(0, 301, 25):
        for n_pulses in (1e11, 1e12, 1e13, 1e14, 1e15, 1e16):
            params = SystemParams(distance_km=float(distance), n_pulses=n_pulses)
            for model in models.MODELS:
                r = models.run_model(model, params, cfg)
                if r.feasible:
                    feasible[model] += 1
                    assert abs(r.rate * r.n_pulses - r.n_bits) <= 2 * math.ulp(r.n_bits)
    assert feasible["sob"] > 0 and feasible["smb1"] > 0


# SHA-256 of the rendered records below (comment lines dropped, so that a
# version bump alone does not move it). A change meant to leave the
# numbers alone must leave this digest alone.
ENGINE_OUTPUT_SHA256 = "ba1a3d33d337847746024029064e67feb1fafb677c9adca38bd95763c0d03977"


def test_engine_output_pinned():
    records = []
    for cfg in (config_from_vector(REFERENCE_VECTOR), CFG_SMB2):
        for distance in (0.0, 50.0, 100.0, 150.0):
            for n_pulses in (1e12, 1e14):
                params = SystemParams(distance_km=distance, n_pulses=n_pulses)
                for model in models.MODELS:
                    records.append(record_dict(models.run_model(model, params, cfg), cfg))
    assert {r["model"] for r in records if r["feasible"]} == set(models.MODELS)
    text = render_csv(records, 0, False)
    body = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == ENGINE_OUTPUT_SHA256


def _neumaier_sum(values, start=0):
    """Compensated float sum, as builtin sum() computes it from Python 3.12 on."""
    total, compensation = start, 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def test_engine_output_independent_of_builtin_sum(monkeypatch):
    """The pinned output holds whichever float sum() the interpreter has.

    The pair-statistics cache is emptied before and after, so the channel's
    cells, exact closed forms that need no sum, are formed while sum() is
    patched, and no cell formed then outlives the test.
    """
    for name, module in list(sys.modules.items()):
        if name == "mdiqds" or name.startswith("mdiqds."):
            monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    channel._pair_statistics.cache_clear()
    try:
        test_engine_output_pinned()
    finally:
        channel._pair_statistics.cache_clear()


# fields that follow the integer L or N_s a search lands on, which the
# rounding of the channel cells may move by a few pulses
_SEARCH_FLOATS = ("rate", "n_bits", "block_size")


def test_engine_within_rounding_of_numpy_channel_tables(monkeypatch):
    """The closed-form channel moves no length, feasibility or reason.

    Every result of a grid over configurations, distances, pulse counts and
    models is compared with the one computed from numpy's channel tables,
    the photon-number double sums taken to convergence:
    L, feasibility and reason are equal, rate/n_bits/block_size within
    1e-11 and every other float within 1e-9 relative. (P_rep amplifies a
    cell's rounding through an exponential; it moves most.)
    """
    rng = np.random.default_rng(13)
    space = qds_search_space()
    lo, hi = np.asarray(space.lower), np.asarray(space.upper)
    cfgs = [config_from_vector(REFERENCE_VECTOR)] + [
        config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
        for _ in range(6)]
    points = [(SystemParams(distance_km=float(d), n_pulses=n), cfg, model)
              for cfg in cfgs for d in range(0, 301, 10) for n in (1e11, 1e13, 1e15)
              for model in models.MODELS]

    def run_all():
        channel._pair_statistics.cache_clear()
        return [models.run_model(model, params, cfg) for params, cfg, model in points]

    plain = run_all()
    monkeypatch.setattr(channel, "_pair_statistics",
                        functools.lru_cache(maxsize=512)(numpy_pair_statistics))
    tables = run_all()
    assert sum(r.feasible for r in plain) > 0.2 * len(points)
    for got, want in zip(plain, tables):
        assert (got.length, got.feasible, got.reason) == (want.length, want.feasible,
                                                          want.reason)
        for name, g, w in zip(models.RateResult._fields, got, want):
            if isinstance(w, float) or (name == "block_size" and w is not None):
                rel = 1e-11 if name in _SEARCH_FLOATS else 1e-9
                assert g == pytest.approx(w, rel=rel, abs=0.0), (name, got, want)
            else:
                assert g == w, name


def test_feasible_results_carry_the_models_ledger():
    """Every feasible result holds its model's eps_ledgers, totalled left to right."""
    budget = SecurityBudget(eps_sf=1e-10, eps_pe=1e-11)
    eps = budget.eps_sf
    rng = np.random.default_rng(5)
    space = qds_search_space()
    lo, hi = np.asarray(space.lower), np.asarray(space.upper)
    feasible = {model: 0 for model in models.MODELS}
    for _ in range(8):
        cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
        for distance in (0.0, 50.0, 100.0):
            params = SystemParams(distance_km=distance, n_pulses=1e13)
            for model in models.MODELS:
                r = models.run_model(model, params, cfg, budget)
                if not r.feasible:
                    continue
                feasible[model] += 1
                n_terms, e_terms = models.eps_ledgers(budget, model == "smb2")
                assert (r.eps_n_terms, r.eps_e_terms) == (n_terms, e_terms)
                # each decoy estimate spends its gates plus its own fluctuation
                gated = dict(r.eps_n_terms)
                if model == "smb2":
                    assert gated["x-cell exposures"] == 27 * eps
                    assert gated["n_X1 fluctuation"] == eps
                else:
                    assert gated["z-cell exposure"] == 3 * eps
                    assert gated["n_Z1 fluctuation"] == eps
                assert dict(r.eps_e_terms)["n_X1 estimate"] == pytest.approx(27 * eps + eps)
                assert dict(r.eps_e_terms)["m_X1 estimate"] == eps
    assert min(feasible.values()) > 0, feasible


@pytest.mark.parametrize("model", models.MODELS)
def test_probes_build_no_tables_and_one_outcome(model, monkeypatch):
    """A rate evaluation builds one RateResult: in outcome_at if feasible, else in _infeasible.

    Its probes decide feasibility from the scaled record's scalars alone:
    they call neither outcome_at nor the RateResult constructor, and an
    infeasible evaluation, floored out or not, calls no outcome_at.
    """
    calls, built = [], []
    outcome_at = models._Pipeline.outcome_at

    def counting_outcome_at(self, length, *args):
        calls.append(length)
        return outcome_at(self, length, *args)

    class CountingResult(models.RateResult):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            built.append(len(calls))  # the outcome_at calls made so far
            return super().__new__(cls, *args, **kwargs)

    cfg = CFG_SMB2 if model == "smb2" else CFG
    near = SystemParams(distance_km=50.0, n_pulses=1e12)
    exact = models.run_model(model, near, cfg)
    monkeypatch.setattr(models._Pipeline, "outcome_at", counting_outcome_at)
    monkeypatch.setattr(models, "RateResult", CountingResult)
    cases = [(near, 0.0, True), (near, exact.rate, False),
             (SystemParams(distance_km=200.0, n_pulses=1e12), 0.0, False)]
    for params, floor, feasible in cases:
        calls.clear()
        built.clear()
        result = models.run_model(model, params, cfg, floor=floor)
        assert type(result) is CountingResult and result.feasible is feasible
        if feasible:
            assert result == exact
            assert calls == [result.length] and built == [1]
        else:
            assert calls == [] and built == [0]


def test_sob_builds_one_pipeline_per_block_probe(monkeypatch):
    """run_sob reuses the block its search proved feasible."""
    calls = {"builds": 0, "probes": 0}
    build, search = models._build_pipeline, models.smallest_feasible

    def counting_build(*args, **kwargs):
        calls["builds"] += 1
        return build(*args, **kwargs)

    def counting_search(feasible, start, cap, stop=None):
        def probe(n):
            calls["probes"] += 1
            return feasible(n)
        return search(probe, start, cap, stop)

    monkeypatch.setattr(models, "_build_pipeline", counting_build)
    monkeypatch.setattr(models, "smallest_feasible", counting_search)
    result = models.run_sob(SystemParams(distance_km=50.0, n_pulses=1e12), CFG)
    assert result.feasible
    assert calls["probes"] > 10
    assert calls["builds"] == calls["probes"]


def test_failed_projection_skips_security_chain(monkeypatch):
    """margin_at answers -inf, and feasible_at False, on a failed keep-block
    projection at once."""
    params = SystemParams(distance_km=50.0, n_pulses=1e12)
    pipe = models._build_pipeline(evaluation(params, CFG), params.n_pulses)
    assert not reference_chain.project_to_keep(pipe.n_z1, pipe.e_z1, pipe.z_signal, 2,
                                               SecurityBudget().eps_sf)[2]
    calls = []
    eve = models.eve_error_rate

    def counting_eve(*args):
        calls.append(args)
        return eve(*args)

    monkeypatch.setattr(models, "eve_error_rate", counting_eve)
    assert pipe.margin_at(2) == -math.inf
    assert pipe.feasible_at(2) is False
    assert calls == []
    # the full chain, which outcome_at still runs, agrees
    assert not full_chain(pipe, 2)
    assert len(calls) == 1


def test_sweep_decides_most_length_probes_without_inverting_h2(sweep_pass):
    """The entropy-space screen replaces most inversions and no decision.

    Each probe the screen decides costs no inverse H2; what is left is
    its fallbacks and one outcome_at per feasible result (17,029
    inversions per pass without the screen and 1,978 with it when it
    landed). The pipeline builds and the optimizer's evaluations are
    those of the unscreened search, so the screen changed no verdict the
    searches acted on. Since the pooling stopped re-running winners whose
    exact result a descent holds, a pass made 13,536 builds (13,864
    before) and 1,917 inversions; on the exact closed-form channel cells
    it makes 13,546 builds and 1,923 inversions.
    """
    counts, _ = sweep_pass
    assert counts["inverse"] <= 4500, counts
    assert counts["builds"] == 13546, counts
    assert counts["evals"] == 2773, counts


def screened_verdicts(probes, monkeypatch):
    """(screened, exact, fell_back) for every (pipeline, L) probe.

    screened is the sign of margin_at (feasible_at's answer, which the
    length searches act on), exact the full chain's verdict (outcome_at,
    which keeps the inverse), and fell_back whether margin_at ran the
    full chain (_Pipeline._at) itself.
    """
    calls = []
    at = models._Pipeline._at

    def counting_at(self, *args):
        calls.append(None)
        return at(self, *args)

    monkeypatch.setattr(models._Pipeline, "_at", counting_at)
    verdicts = []
    for pipe, length in probes:
        before = len(calls)
        screened = pipe.margin_at(length) > 0.0
        assert pipe.feasible_at(length) is screened
        fell_back = len(calls) > before
        verdicts.append((screened, full_chain(pipe, length), fell_back))
    return verdicts


def assert_screen_agrees(probes, monkeypatch):
    verdicts = screened_verdicts(probes, monkeypatch)
    bad = [(p, s, e) for p, (s, e, _) in zip(probes, verdicts) if s != e]
    assert not bad, bad[:5]
    return sum(not fell_back for _, _, fell_back in verdicts), len(verdicts)


def seeded_screen_pipelines(seed, count):
    """Pipelines over varied links, pulse counts and budgets, both routes.

    epsilon 1e-8-1e-3; eps_pe, eps_sf and g_prob 1e-15-1e-9; every
    configuration built direct and x-derived.
    """
    rng = np.random.default_rng(seed)
    space = qds_search_space()
    lo, hi = np.asarray(space.lower), np.asarray(space.upper)
    pipes = []
    while len(pipes) < count:
        cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
        params = SystemParams(distance_km=float(rng.uniform(0.0, 200.0)),
                              n_pulses=float(10 ** rng.uniform(10.0, 16.0)))
        budget = SecurityBudget(epsilon=float(10 ** rng.uniform(-8.0, -3.0)),
                                eps_pe=float(10 ** rng.uniform(-15.0, -9.0)),
                                eps_sf=float(10 ** rng.uniform(-15.0, -9.0)),
                                g_prob=float(10 ** rng.uniform(-15.0, -9.0)))
        for x_derived in (False, True):
            pipe = models._build_pipeline(evaluation(params, cfg, budget, x_derived),
                                          params.n_pulses)
            if not isinstance(pipe, str) and models._even_floor(pipe.n_pool / 2.0) >= 2:
                pipes.append(pipe)
    return pipes


def solve_probes(pipe):
    """L probes around the pipeline's solved length, and log-spaced over [2, l_max]."""
    l_max = models._even_floor(pipe.n_pool / 2.0)
    lengths = {models._even_floor(v) for v in np.geomspace(2, l_max, 12)}
    answer = security.solve_signature_length(pipe.margin_at, l_max)
    if answer is not None:
        lengths.update(answer + step for step in (-4, -2, -1, 0, 1, 2, 4))
    return [(pipe, length) for length in sorted(lengths) if 2 <= length <= l_max]


def test_screen_agrees_with_the_full_chain(sweep_pass, monkeypatch):
    """The sign of margin_at is the full chain's verdict on every probe.

    The probes: every length probe of a seed-0 optimized sweep pass,
    every probe of a rate-grid slice (cold solves, many infeasible
    points), and probes around the solved length of 300 seeded pipelines.
    Both the screen's decisions and its tau-band fallbacks are reached.
    """
    _, sweep_probes = sweep_pass
    # the default budget leaves the screen on, so every fallback here is
    # a probe inside the tau band
    assert all(pipe.ev.rep_log is not None for pipe, _ in sweep_probes)
    decided, total = assert_screen_agrees(sweep_probes, monkeypatch)
    assert 0 < decided < total

    grid_probes = []
    margin_at = models._Pipeline.margin_at

    def recording_margin_at(self, length):
        grid_probes.append((self, length))
        return margin_at(self, length)

    with monkeypatch.context() as patch:
        patch.setattr(models._Pipeline, "margin_at", recording_margin_at)
        cfg = config_from_vector(REFERENCE_VECTOR)
        for distance in range(0, 301, 20):
            for n_pulses in (1e11, 1e12, 1e13, 1e14, 1e15, 1e16):
                params = SystemParams(distance_km=float(distance), n_pulses=n_pulses)
                for model in models.MODELS:
                    models.run_model(model, params, cfg)
    decided, total = assert_screen_agrees(grid_probes, monkeypatch)
    assert 0 < decided < total

    seeded = [probe for pipe in seeded_screen_pipelines(523, 300)
              for probe in solve_probes(pipe)]
    decided, total = assert_screen_agrees(seeded, monkeypatch)
    assert 0 < decided < total


@pytest.mark.parametrize("budget", [
    SecurityBudget(epsilon=1e-5, eps_pe=6e-6),  # 2 eps_pe > epsilon
    SecurityBudget(epsilon=1e-8, eps_sf=1e-9),  # c >= epsilon
    SecurityBudget(epsilon=1e-5, g_prob=7e-6),  # epsilon / 2 < c < epsilon
], ids=["robustness-spent", "ledger-over-epsilon", "ledger-over-half"])
def test_screen_off_where_the_forging_ledger_may_bind(budget, monkeypatch):
    """A budget with c = g_prob + eps_pe + eps_n + eps_e > epsilon / 2 has no
    screen: every probe whose projection passes runs the full chain."""
    params = SystemParams(distance_km=25.0, n_pulses=1e13)
    cfg = config_from_vector(REFERENCE_VECTOR)
    probes = []
    for x_derived in (False, True):
        ev = evaluation(params, cfg, budget, x_derived)
        assert ev.rep_log is None
        pipe = models._build_pipeline(ev, params.n_pulses)
        probes += [probe for probe in solve_probes(pipe) if pipe._keep(probe[1])[2]]
    verdicts = screened_verdicts(probes, monkeypatch)
    assert len(verdicts) >= 10
    assert all(s == e and fell_back for s, e, fell_back in verdicts)


def bisected_length(margin_at, l_max):
    """The cold L of security.smallest_feasible's bracketing bisection."""
    k = security.smallest_feasible(lambda k: margin_at(2 * k) > 0.0, 1, l_max // 2)
    return None if k is None else 2 * k


def test_cold_length_solves_of_the_rate_grid(monkeypatch):
    """Over the rate grid's smb evaluations (run_model at 61 distances,
    0-300 km, by 6 pulse counts, 1e11-1e16, at REFERENCE_VECTOR), every
    cold L solve returns smallest_feasible's length, and the solves make
    at most 6 L probes each on average: 2,940 over 561 solves, where the
    bracketing bisection made 7,880 (14.05 per solve)."""
    solve = models.solve_signature_length
    seen = {"solves": 0, "probes": 0, "solved": 0}

    def checked_solve(margin_at, l_max, *, stop=None):
        def probe(length):
            seen["probes"] += 1
            return margin_at(length)

        assert stop is None
        got = solve(probe, l_max, stop=stop)
        assert got == bisected_length(margin_at, l_max)
        seen["solves"] += 1
        seen["solved"] += got is not None
        return got

    monkeypatch.setattr(models, "solve_signature_length", checked_solve)
    cfg = config_from_vector(REFERENCE_VECTOR)
    for distance in range(0, 301, 5):
        for n_pulses in (1e11, 1e12, 1e13, 1e14, 1e15, 1e16):
            params = SystemParams(distance_km=float(distance), n_pulses=n_pulses)
            for model in ("smb1", "smb2"):
                models.run_model(model, params, cfg)
    assert seen["solves"] == 561 and seen["solved"] >= 200, seen
    assert seen["probes"] <= 6 * seen["solves"], seen


def test_cold_length_solve_is_the_bisections_on_seeded_pipelines():
    """The cold L equals smallest_feasible's on seeded smb pipelines.

    Varied links, pulse counts and budgets, both routes; among them
    budgets with no entropy-space screen (ev.rep_log None), whose margin
    carries the full chain's verdict alone, and pipelines whose small
    lengths fail the keep projection (margin -inf).
    """
    rng = np.random.default_rng(1971)
    space = qds_search_space()
    lo, hi = np.asarray(space.lower), np.asarray(space.upper)
    seen = {"solved": 0, "no length": 0, "no screen": 0, "keep fails at 2": 0}
    for _ in range(300):
        cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
        params = SystemParams(distance_km=float(rng.uniform(0.0, 200.0)),
                              n_pulses=float(10 ** rng.uniform(9.0, 17.0)))
        epsilon = float(10 ** rng.uniform(-10.0, -2.0))
        # a third of the budgets spend over half of epsilon on g_prob: no screen
        g_prob = (epsilon * float(rng.uniform(0.55, 0.95)) if rng.uniform() < 1 / 3
                  else float(10 ** rng.uniform(-15.0, -6.0)))
        budget = SecurityBudget(epsilon=epsilon, eps_pe=float(10 ** rng.uniform(-15.0, -6.0)),
                                eps_sf=float(10 ** rng.uniform(-15.0, -6.0)), g_prob=g_prob)
        pipe = models._build_pipeline(evaluation(params, cfg, budget, rng.uniform() < 0.5),
                                      params.n_pulses)
        if isinstance(pipe, str) or pipe.n_pool < 4.0:
            continue
        l_max = models._even_floor(pipe.n_pool / 2.0)
        got = security.solve_signature_length(pipe.margin_at, l_max)
        assert got == bisected_length(pipe.margin_at, l_max)
        seen["solved" if got is not None else "no length"] += 1
        if got is not None:
            seen["no screen"] += pipe.ev.rep_log is None
            seen["keep fails at 2"] += pipe.margin_at(2) == -math.inf
    assert min(seen.values()) >= 5, seen


def test_keep_block_is_bit_identical_to_the_reference():
    """_Pipeline._keep equals reference_chain's project_to_keep and
    keep_error_bound exactly, on passing and failing projections, and
    rejects a length outside [2, 2|Z|] as the reference does."""
    seen = {True: 0, False: 0}
    for pipe in seeded_screen_pipelines(41, 60):
        l_max = models._even_floor(pipe.n_pool / 2.0)
        for length in {models._even_floor(v) for v in np.geomspace(2, l_max, 30)} | {2, 3}:
            want = (*reference_chain.project_to_keep(pipe.n_z1, pipe.e_z1, pipe.z_signal,
                                                     length, pipe.ev.budget.eps_sf),
                    reference_chain.keep_error_bound(pipe.e_test, length, pipe.n_test,
                                                     pipe.ev.budget.eps_pe))
            assert pipe._keep(length) == want
            seen[want[2]] += 1
        for length in (1, 2 * pipe.z_signal + 2):
            with pytest.raises(ValueError):
                pipe._keep(length)
    assert min(seen.values()) >= 50, seen


def test_sob_feasibility_not_monotone_at_integer_scale():
    """The ceil of the Serfling step makes e_Z1 jump by 1/n_Z1, so a block
    a little below the one the bisection returns can be feasible."""
    params = SystemParams(distance_km=75.0, n_pulses=1e13)
    cfg = config_from_vector(REFERENCE_VECTOR)
    ev = models._evaluation("sob", params, cfg, None)

    def feasible(n_s):
        return models._sob_block(ev, n_s) is not None

    result = models.run_sob(params, cfg)
    assert result.block_size == 61_741_560_281
    # the bisection's transition: feasible, with an infeasible predecessor
    assert feasible(61_741_560_281) and not feasible(61_741_560_280)
    # yet a smaller block is feasible, just below an infeasible one
    assert feasible(61_741_068_698) and not feasible(61_741_068_699)
    # the optimistic relaxed probe admits both, the pessimistic one neither
    for n_s in (61_741_560_281, 61_741_068_698):
        assert models._sob_relaxed(ev, n_s, True)
        assert not models._sob_relaxed(ev, n_s, False)


def test_x_sample_below_one_is_an_infeasible_block():
    """Gates passed but n_X1 in (0, 1): a reason, not the Serfling step's error."""
    params = SystemParams(distance_km=200.0, p_dc=1e-5, n_pulses=276292500.9)
    cfg = IntensityConfig.symmetric(a_s=0.9857, a_d1=0.0095, p_as=0.5572,
                                    p_ad1=0.4418, p_z=0.5683)
    ev = models._evaluation("sob", params, cfg, None)
    n_s = int(params.n_pulses)
    est = reference_chain.single_photon_bounds(reference_chain.pulse_counts(ev.channel, n_s),
                                               ev.budget.eps_sf, ev.budget.eps_sf)
    assert est.valid and 0.0 < est.n_x1 < 1.0
    reason = models._build_pipeline(ev, float(n_s))
    assert reason == "x-basis single-photon bound below one"
    block, relaxed = sob_predicates(params, cfg)  # _sob_block gives None
    assert not block(n_s) and not relaxed(n_s) and not relaxed(n_s, optimistic=False)


@pytest.mark.parametrize("r_test,short_pools", [(0.99, 2), (0.999, 4)])
def test_relaxed_probe_of_a_short_pool_is_infeasible(r_test, short_pools):
    """Gates passed but a relaxed length below 2: False, not an error.

    A test fraction near 1 leaves the pool of a small block too short to
    probe (n_pool / 2, less 2 for the pessimistic probe, below 2): at the
    block sizes 1.5^38 and 1.5^39 the pessimistic probe meets it at
    r_test 0.99, and both probes do at 0.999.
    """
    ev = models._evaluation("sob", SystemParams(distance_km=50.0, r_test=r_test),
                            config_from_vector(REFERENCE_VECTOR), None)
    eta = models._SOB_RELAX_ETA
    short = 0
    for n in (int(1.5 ** k) for k in range(6, 40)):
        # the size each relaxed probe builds, and what it takes off n_pool / 2
        for optimistic, size, shrink in ((True, math.ceil(n * (1.0 + eta)), 0.0),
                                         (False, math.floor(n * (1.0 - eta)), 2.0)):
            pipe = models._build_pipeline(ev, float(size))
            relaxed = models._sob_relaxed(ev, n, optimistic)
            if not isinstance(pipe, str) and pipe.n_pool / 2.0 - shrink < 2.0:
                short += 1
                assert relaxed is False
    assert short == short_pools


def sob_predicates(params, cfg):
    """The block probe P and the relaxed probes Q and R of one sob evaluation.

    relaxed(n) is the optimistic Q, relaxed(n, optimistic=False) the
    pessimistic R.
    """
    ev = models._evaluation("sob", params, cfg, None)

    def block(n):
        return models._sob_block(ev, n) is not None

    def relaxed(n, optimistic=True):
        return models._sob_relaxed(ev, n, optimistic)

    return block, relaxed


# cap of the relaxed-probe cases: high enough that most of them find a block
RELAXED_CAP = 10**17


def relaxed_cases(seed, count):
    """Seeded sob cases: the optimizer's box x 0-300 km x p_dc in {1e-7, 1e-5}.

    Yields (params, cfg, block, relaxed, exact, n_q): the two probes, the
    unfloored result and the relaxed probe's transition (its bisection's
    answer, None where Q is false at the cap).
    """
    rng = np.random.default_rng(seed)
    space = qds_search_space()
    lo, hi = np.asarray(space.lower), np.asarray(space.upper)
    for _ in range(count):
        cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
        params = SystemParams(distance_km=float(rng.uniform(0.0, 300.0)),
                              p_dc=float(rng.choice([1e-7, 1e-5])),
                              n_pulses=float(RELAXED_CAP))
        block, relaxed = sob_predicates(params, cfg)
        n_q = security.smallest_feasible(relaxed, 1, RELAXED_CAP)
        yield params, cfg, block, relaxed, models.run_sob(params, cfg), n_q


def test_relaxed_sob_probe_admits_every_feasible_block():
    """P(n) implies Q(n): near both transitions, and at random block sizes."""
    rng = np.random.default_rng(41)
    checked = 0
    for _, _, block, relaxed, exact, n_q in relaxed_cases(23, 40):
        if not exact.feasible:
            continue
        n_s = exact.block_size
        assert n_q is not None and n_q <= n_s
        sizes = {*range(n_s - 300, n_s + 301), *range(max(1, n_q - 300), n_q + 301)}
        sizes.update(int(n) for n in rng.uniform(0.5 * n_q, 2.0 * n_s, 200))
        for n in sorted(sizes):
            assert relaxed(n) or not block(n), n
        checked += 1
    assert checked >= 20


def assert_monotone_beyond_eta(sizes, flags):
    """No size is Q-false above a Q-true one by more than eta, relatively."""
    true = [n for n, ok in zip(sizes, flags) if ok]
    false = [n for n, ok in zip(sizes, flags) if not ok]
    if true and false:
        assert max(false) <= min(true) * (1.0 + models._SOB_RELAX_ETA), (min(true), max(false))


def test_relaxed_sob_probe_is_monotone():
    """Q switches once, from false to true, on coarse and fine grids.

    Right at its switch Q may flip back and forth within the float error
    of the chain (measured up to 2e-12 relative over 1,000 configs);
    the certificate needs only that no flip is wider than eta.
    """
    coarse = sorted({int(n) for n in np.geomspace(1024, RELAXED_CAP, 80)})
    switched = 0
    for _, _, _, relaxed, _, n_q in relaxed_cases(31, 60):
        flags = [relaxed(n) for n in coarse]
        assert flags == sorted(flags)
        if n_q is None:
            continue
        steps = sorted({int(d) for d in np.geomspace(1, 1e4, 40)})
        fine = {n_q + sign * d for d in steps for sign in (-1, 1)}
        fine.update(int(n_q * (1.0 + sign * 10.0 ** k)) for k in range(-13, -7)
                    for sign in (-1, 1))
        fine = sorted(n for n in fine if n >= 1)
        assert_monotone_beyond_eta(fine, [relaxed(n) for n in fine])
        switched += 1
    assert switched >= 30


def test_floored_sob_is_exact_or_stopped():
    """A floor near 1/N_s gives the unfloored result or FLOOR_REASON, as it must."""
    stopped = 0
    for params, cfg, _, _, exact, _ in relaxed_cases(47, 40):
        if not exact.feasible:
            continue
        for rel in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            for floor in (exact.rate * (1.0 - rel), exact.rate * (1.0 + rel)):
                result = models.run_sob(params, cfg, floor=floor)
                if floor < exact.rate:
                    assert result == exact
                else:
                    assert (result.feasible, result.reason) == (False, models.FLOOR_REASON)
                    stopped += 1
    assert stopped >= 100


def test_floored_sob_answer_is_its_last_feasible_block(monkeypatch):
    """run_sob signs with the last block _sob_block returned, at any floor.

    The search's answer is the last size it probed feasible, and it lies
    below any stop, where the relaxed probes answer nothing as feasible:
    so the last block built is the answer's, and run_sob keeps only that.
    """
    sizes = []
    sob_block = models._sob_block

    def recording(ev, n_s):
        block = sob_block(ev, n_s)
        if block is not None:
            sizes.append(n_s)
        return block

    cases = [(params, cfg, exact) for params, cfg, _, _, exact, _ in relaxed_cases(53, 30)
             if exact.feasible]
    monkeypatch.setattr(models, "_sob_block", recording)
    checked = 0
    for params, cfg, exact in cases:
        rate = exact.rate
        for floor in (0.0, rate / 2.0, math.nextafter(rate, 0.0), rate):
            sizes.clear()
            result = models.run_sob(params, cfg, floor=floor)
            assert result.feasible is (floor < rate)
            if result.feasible:
                assert result == exact
                assert sizes[-1] == result.block_size, (params, cfg, floor)
                checked += 1
    assert checked >= 40, checked


def certified_cases(seed, count):
    """Seeded sob cases with the pessimistic probe's switch n_r (None if R is never true).

    The optimizer's box x 0-300 km x p_dc in {1e-7, 1e-5}, at RELAXED_CAP
    pulses (the cap of every search). n_r is the bisection's answer for R,
    so R(n_r) is true.
    """
    rng = np.random.default_rng(seed)
    space = qds_search_space()
    lo, hi = np.asarray(space.lower), np.asarray(space.upper)
    for _ in range(count):
        cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
        params = SystemParams(distance_km=float(rng.uniform(0.0, 300.0)),
                              p_dc=float(rng.choice([1e-7, 1e-5])),
                              n_pulses=float(RELAXED_CAP))
        block, relaxed = sob_predicates(params, cfg)
        certified = functools.partial(relaxed, optimistic=False)
        yield params, cfg, block, certified, security.smallest_feasible(
            certified, 1, RELAXED_CAP)


def test_certificate_implies_every_larger_block_feasible():
    """R(m) implies P(n) for every n >= m: densely above m, log-spaced, and at the cap.

    R's switch also sits within the suffix delta above N_s in most cases,
    which is where a floored search probes it: at stop (1 + delta).
    """
    rng = np.random.default_rng(43)
    checked = close = 0
    for params, cfg, block, certified, n_r in certified_cases(29, 40):
        exact = models.run_sob(params, cfg)
        if n_r is None:
            continue
        assert certified(n_r)
        sizes = {*range(n_r, n_r + 600), RELAXED_CAP}
        sizes.update(int(n) for n in np.geomspace(n_r, RELAXED_CAP, 150))
        sizes.update(int(n) for n in rng.uniform(n_r, 1.01 * n_r, 150))
        for n in sorted(sizes):
            assert block(n), (n_r, n)
        checked += 1
        close += n_r <= exact.block_size * (1.0 + models._SOB_SUFFIX_DELTA)
    assert checked >= 20 and close >= 20


def test_certificate_is_monotone():
    """R switches once, from false to true, flipping only within eta of its switch."""
    coarse = sorted({int(n) for n in np.geomspace(1024, RELAXED_CAP, 80)})
    switched = 0
    for _, _, _, certified, n_r in certified_cases(37, 60):
        flags = [certified(n) for n in coarse]
        assert flags == sorted(flags)
        if n_r is None:
            continue
        steps = sorted({int(d) for d in np.geomspace(1, 1e4, 40)})
        fine = {n_r + sign * d for d in steps for sign in (-1, 1)}
        fine.update(int(n_r * (1.0 + sign * 10.0 ** k)) for k in range(-13, -7)
                    for sign in (-1, 1))
        fine = sorted(n for n in fine if n >= 1)
        assert_monotone_beyond_eta(fine, [certified(n) for n in fine])
        switched += 1
    assert switched >= 30


def test_floored_sob_builds_nothing_above_its_certificate(monkeypatch):
    """Where R holds, the only build at or above its own block is the certificate probe.

    So the search answers the cap probe, and every bracket or bisection
    probe above stop (1 + delta), without building.
    """
    builds = []
    build = models._build_pipeline

    def recording(ev, n_pulses):
        builds.append(n_pulses)
        return build(ev, n_pulses)

    params = SystemParams(distance_km=75.0, n_pulses=1e13)
    cfg = config_from_vector(REFERENCE_VECTOR)
    exact = models.run_sob(params, cfg)
    _, relaxed = sob_predicates(params, cfg)
    monkeypatch.setattr(models, "_build_pipeline", recording)
    certified = 0
    for rel in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
        for floor in (exact.rate * (1.0 - rel), exact.rate * (1.0 + rel)):
            stop = models._rate_stop(lambda n: 1.0 / n, floor, int(params.n_pulses))
            m = math.ceil(stop * (1.0 + models._SOB_SUFFIX_DELTA))
            holds = relaxed(stop - 1) and relaxed(m, optimistic=False)
            builds.clear()
            result = models.run_sob(params, cfg, floor=floor)
            assert result == exact if floor < exact.rate else not result.feasible
            if not holds:
                continue
            own = math.floor(m * (1.0 - models._SOB_RELAX_ETA))
            assert [n for n in builds if n >= own] == [float(own)]
            certified += 1
    assert certified >= 8


def one_field_off_budgets() -> list[SecurityBudget]:
    """SecurityBudget() with one field moved up by one ulp, for each field."""
    default = SecurityBudget()
    return [default._replace(**{name: math.nextafter(value, 1.0)})
            for name, value in zip(SecurityBudget._fields, default)]


def test_evaluation_record_holds_its_defining_constants():
    """models._evaluation equals reference_chain.reference_evaluation field by field.

    Over seeded budgets (epsilon 1e-10-1e-2; eps_pe, eps_sf and g_prob
    1e-15-1e-3, so that the screen is off for some) and every model, for
    a budget of None and an explicit SecurityBudget(), which take the
    terms fixed at import, and for the four budgets one ulp off the
    default in one field, which derive their own.
    """
    rng = np.random.default_rng(83)
    params = SystemParams(distance_km=50.0, n_pulses=1e13)
    budgets = [None, SecurityBudget(), *one_field_off_budgets()] + [
        SecurityBudget(epsilon=float(10 ** rng.uniform(-10.0, -2.0)),
                       eps_pe=float(10 ** rng.uniform(-15.0, -3.0)),
                       eps_sf=float(10 ** rng.uniform(-15.0, -3.0)),
                       g_prob=float(10 ** rng.uniform(-15.0, -3.0)))
        for _ in range(60)]
    screen_off = 0
    for budget in budgets:
        for model in models.MODELS:
            ev = models._evaluation(model, params, CFG, budget)
            want = reference_chain.reference_evaluation(model, params, CFG, budget)
            for name, g, w in zip(models._Evaluation._fields, ev, want):
                assert g == w, (name, model, budget)
            assert ev.budget == (SecurityBudget() if budget is None else budget)
            screen_off += ev.rep_log is None
    assert 0 < screen_off < len(budgets) * len(models.MODELS), screen_off


class _CountingMath:
    """The math module, counting the calls of exp."""

    def __init__(self):
        self.exp_calls = 0

    def exp(self, x):
        self.exp_calls += 1
        return math.exp(x)

    def __getattr__(self, name):
        return getattr(math, name)


def test_evaluation_pays_no_pulse_count_independent_term_again(monkeypatch):
    """A rate evaluation calls no exp, and the default budget derives no ledger.

    With the pair-statistics cache warm, run_model at a rate-grid point
    (the reference vector, 80 km, 1e15 pulses) calls exp neither in
    models nor in channel, for every model: the Poisson weights come with
    the cached cells. With budget None or SecurityBudget() it calls
    eps_ledgers 0 times, since those terms are fixed at import; a budget
    one ulp off in any one field derives them, once per evaluation.
    """
    params = SystemParams(distance_km=80.0, n_pulses=1e15)
    cfg = config_from_vector(REFERENCE_VECTOR)
    for model in models.MODELS:
        models.run_model(model, params, cfg)  # warms the cache
    counting = _CountingMath()
    monkeypatch.setattr(models, "math", counting)
    monkeypatch.setattr(channel, "math", counting)
    ledgers = []
    ledger = models.eps_ledgers

    def recording(budget, x_derived):
        ledgers.append(budget)
        return ledger(budget, x_derived)

    monkeypatch.setattr(models, "eps_ledgers", recording)
    for model in models.MODELS:
        for budget in (None, SecurityBudget(), *one_field_off_budgets()):
            ledgers.clear()
            models.run_model(model, params, cfg, budget)
            assert ledgers == ([] if budget in (None, SecurityBudget()) else [budget])
    assert counting.exp_calls == 0


def test_build_pipeline_is_bit_identical_to_the_layered_chain():
    """_build_pipeline equals tests/reference_chain.py's four layers exactly.

    Every _Pipeline field is compared with ==, its evaluation record ev
    against the reference's own record, and every reason string as it
    is, over seeded configurations (varied link, error-test fraction and
    eps_sf) x pulse counts 1e3-1e16 x smb1/smb2; every reason is
    reached. Two fixed configurations reach the reasons the box rarely
    does: a bright signal with few single photons (the population bound),
    and the n_X1 < 1 point of test_x_sample_below_one_is_an_infeasible_block.
    """
    rng = np.random.default_rng(71)
    space = qds_search_space()
    lo, hi = np.asarray(space.lower), np.asarray(space.upper)
    grid = [float(n) for n in np.geomspace(1e3, 1e16, 40)]
    cases = [
        (SystemParams(distance_km=0.0),
         IntensityConfig.symmetric(a_s=5.0, a_d1=0.1, p_as=1 / 3, p_ad1=1 / 3, p_z=0.5),
         SecurityBudget(), grid),
        (SystemParams(distance_km=200.0, p_dc=1e-5),
         IntensityConfig.symmetric(a_s=0.9857, a_d1=0.0095, p_as=0.5572, p_ad1=0.4418,
                                   p_z=0.5683),
         SecurityBudget(), [276292500.9, float(int(276292500.9))]),
    ]
    for _ in range(120):
        cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
        params = SystemParams(distance_km=float(rng.uniform(0.0, 300.0)),
                              p_dc=float(rng.choice([1e-7, 1e-5])),
                              r_test=float(rng.choice([0.055, 1e-3])))
        budget = SecurityBudget(eps_sf=float(10 ** rng.uniform(-15.0, -3.0)))
        cases.append((params, cfg, budget, grid))
    seen = {}
    for params, cfg, budget, sizes in cases:
        for model in ("smb1", "smb2"):
            ev = models._evaluation(model, params, cfg, budget)
            reference = reference_chain.reference_evaluation(model, params, cfg, budget)
            for n in sizes:
                got = models._build_pipeline(ev, n)
                want = reference_chain.reference_build(reference, n)
                if isinstance(want, str):
                    assert got == want, (params, cfg, n, model)
                else:
                    assert type(got) is models._Pipeline
                    for name, g, w in zip(models._Pipeline._fields, got, want):
                        assert g == w, (name, params, cfg, n, model)
                key = want if isinstance(want, str) else "pipeline"
                seen[key] = seen.get(key, 0) + 1
    assert set(seen) == {"pipeline", "decoy validity gate failed",
                         "single-photon population bound non-positive",
                         "x-derived signal-basis single-photon bound is zero",
                         "x-basis single-photon bound below one",
                         "error-test sample is empty"}, seen


def sob_rate(n_s):
    return 1.0 / n_s


def smb_rate(n_pool, n_pulses):
    return lambda k: models.signed_bits(n_pool, 2 * k) / n_pulses


class TestRateStop:
    """_rate_stop finds the smallest size whose rate is <= the floor."""

    def test_stop_is_exact_over_seeded_floors(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(400):
            cap = int(10 ** rng.uniform(1.0, 20.0))
            if rng.uniform() < 0.5:
                rate = sob_rate
            else:
                n_pulses = 10 ** rng.uniform(9.0, 16.0)
                rate = smb_rate(n_pulses * rng.uniform(1e-4, 1e-2), n_pulses)
            size = int(10 ** rng.uniform(0.0, math.log10(cap)))
            # the rate at some size: exactly (a tie), or moved by a few ulp or 1e-6
            floor = rate(max(size, 1))
            move = rng.choice(["tie", "ulp", "rel"])
            if move == "ulp":
                for _ in range(int(rng.integers(1, 4))):
                    floor = math.nextafter(floor, rng.choice([0.0, math.inf]))
            elif move == "rel":
                floor *= 1.0 + rng.uniform(-1e-6, 1e-6)
            stop = models._rate_stop(rate, floor, cap)
            if stop is None:
                assert rate(cap) > floor
                continue
            assert 1 <= stop <= cap
            assert rate(stop) <= floor
            assert stop == 1 or floor < rate(stop - 1)
            checked += 1
        assert checked >= 300

    def test_no_stop_without_a_positive_floor(self):
        for floor in (0.0, -1.0, -math.inf, math.nan):
            assert models._rate_stop(sob_rate, floor, 10**6) is None

    @pytest.mark.parametrize("model", models.MODELS)
    def test_floor_gives_the_exact_result_or_a_stand_in(self, model):
        """A floor just below the rate changes nothing; one at the rate stops."""
        cfg = CFG_SMB2 if model == "smb2" else CFG
        for distance in (0.0, 50.0, 100.0):
            params = SystemParams(distance_km=distance, n_pulses=1e13)
            exact = models.run_model(model, params, cfg)
            assert exact.feasible
            below = math.nextafter(exact.rate, 0.0)
            assert models.run_model(model, params, cfg, floor=below) == exact
            for floor in (exact.rate, 2.0 * exact.rate):
                stopped = models.run_model(model, params, cfg, floor=floor)
                assert not stopped.feasible
                assert stopped.rate == 0.0
                assert stopped.reason == models.FLOOR_REASON
