"""Messaging-stage simulators and tail-bound coverage tests."""
import math

import numpy as np
import pytest

from mdiqds import montecarlo as mc

TRIALS = 100_000


class TestKeyMaterial:
    def test_shapes_and_halves(self):
        rng = np.random.default_rng(1)
        km = mc.make_key_material(rng, 2000, mismatches_b=50, mismatches_c=70)
        assert km.sig_b.size == km.key_c.size == 2000
        assert km.keep_b.sum() == 1000
        assert (km.key_b != km.sig_b).sum() == 50
        assert (km.key_c != km.sig_c).sum() == 70

    def test_views_cover_all_mismatches_once(self):
        rng = np.random.default_rng(2)
        km = mc.make_key_material(rng, 1000, mismatches_b=40, mismatches_c=60)
        bob, charlie = mc.recipient_mismatches(km)
        assert bob + charlie == 100

    def test_honest_material_matches(self):
        rng = np.random.default_rng(3)
        km = mc.make_key_material(rng, 1000)
        assert mc.recipient_mismatches(km) == (0, 0)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            mc.make_key_material(np.random.default_rng(0), 1001)


class TestSimulateHonest:
    def test_error_free_never_aborts(self):
        stats = mc.simulate_honest(1000, 0.0, 0.05, 10_000, seed=4)
        assert stats.frequency == 0.0

    def test_total_noise_always_aborts(self):
        stats = mc.simulate_honest(1000, 1.0, 0.99, 10_000, seed=4)
        assert stats.frequency == 1.0

    def test_abort_below_hoeffding_tail(self):
        stats = mc.simulate_honest(5000, 0.04, 0.08, TRIALS, seed=4)
        assert stats.bound == pytest.approx(math.exp(-16.0), rel=1e-12)
        assert stats.frequency <= stats.bound

    def test_eps_analog_coverage(self):
        # threshold one Hoeffding displacement above the rate at eps = 0.01
        eps, length, rate = 0.01, 4000, 0.03
        s_a = rate + math.sqrt(math.log(1.0 / eps) / (2.0 * length))
        stats = mc.simulate_honest(length, rate, s_a, TRIALS, seed=5)
        assert stats.frequency <= 2.0 * eps


class TestSimulateRepudiation:
    def test_no_mismatches_never_succeeds(self):
        stats = mc.simulate_repudiation(2000, 0.05, 0.15, 10_000, seed=6, mismatches=0)
        assert stats.frequency == 0.0
        assert stats.detail["charlie_rejects"] == 0

    def test_full_mismatch_never_succeeds(self):
        stats = mc.simulate_repudiation(2000, 0.05, 0.15, 10_000, seed=6,
                                        mismatches=2000)
        assert stats.frequency == 0.0
        assert stats.detail["bob_accepts"] == 0

    def test_swept_optimum_below_bound(self):
        stats = mc.simulate_repudiation(2000, 0.05, 0.15, TRIALS, seed=6)
        assert stats.bound == pytest.approx(2.0 * math.exp(-5.0), rel=1e-12)
        assert stats.frequency <= stats.bound

    def test_bit_level_route_agrees_with_hypergeometric(self):
        # at a small length the success probability is measurable; the
        # hypergeometric batches must agree, within Monte Carlo
        # resolution, with bit strings played out one trial at a time
        kw = dict(length=200, s_a=0.2, s_v=0.3, mismatches=50)
        fast = mc.simulate_repudiation(trials=40_000, seed=7, **kw)
        # the generator simulate_repudiation(seed=8) gives its one batch
        rng = np.random.default_rng(np.random.SeedSequence(8).spawn(1)[0])
        successes = 0
        for _ in range(8_000):
            km = mc.make_key_material(rng, 200, 50, 50)
            bob, charlie = mc.recipient_mismatches(km)
            successes += bob / 200 < 0.2 and charlie / 200 >= 0.3
        assert fast.frequency > 0.005
        sigma = math.sqrt(fast.frequency * (1 - fast.frequency) / 8_000)
        assert abs(successes / 8_000 - fast.frequency) <= 4 * sigma

    def test_threshold_ordering_required(self):
        with pytest.raises(ValueError):
            mc.simulate_repudiation(2000, 0.3, 0.2, 100, seed=0)

    def test_reproducible(self):
        a = mc.simulate_repudiation(2000, 0.05, 0.15, 5_000, seed=11)
        b = mc.simulate_repudiation(2000, 0.05, 0.15, 5_000, seed=11)
        assert a == b


class TestSimulateForging:
    def test_perfect_forger_always_wins(self):
        stats = mc.simulate_forging(2000, 0.0, 0.05, 10_000, seed=9)
        assert stats.frequency == 1.0

    def test_deep_gap_never_wins(self):
        stats = mc.simulate_forging(2000, 0.5, 0.05, TRIALS, seed=9)
        assert stats.frequency == 0.0
        assert stats.bound == pytest.approx(math.exp(-2.0 * 1000 * 0.2025), rel=1e-9)

    def test_near_threshold_below_formula_over_batches(self):
        length, p_e, s_v = 200, 0.3, 0.25
        bound = math.exp(-2.0 * 100 * (p_e - s_v) ** 2)
        nonzero = 0
        for batch in range(20):
            stats = mc.simulate_forging(length, p_e, s_v, 20_000, seed=100 + batch)
            assert stats.frequency <= bound
            nonzero += stats.successes > 0
        assert nonzero == 20  # the check is not vacuous

    def test_reproducible(self):
        a = mc.simulate_forging(500, 0.3, 0.25, 5_000, seed=12)
        assert a == mc.simulate_forging(500, 0.3, 0.25, 5_000, seed=12)


class TestValidateBound:
    @pytest.mark.parametrize("bound_id", mc.BOUND_IDS)
    def test_coverage_at_one_percent(self, bound_id):
        stats = mc.validate_bound(bound_id, eps=0.01, trials=TRIALS, seed=13)
        assert stats.frequency <= 0.01
        assert stats.wilson99_upper <= 0.015

    @pytest.mark.parametrize("bound_id", mc.BOUND_IDS)
    def test_loose_at_half(self, bound_id):
        stats = mc.validate_bound(bound_id, eps=0.5, trials=20_000, seed=14)
        assert stats.frequency < 0.25

    def test_hoeffding_population_example(self):
        stats = mc.validate_bound("hoeffding", eps=0.01, trials=TRIALS,
                                  seed=15, population=10_000)
        assert stats.frequency <= 0.01

    def test_serfling_fraction_large_population(self):
        stats = mc.validate_bound("serfling_fraction", eps=0.01, trials=TRIALS,
                                  seed=16, population=100_000, sample=1_000)
        assert stats.frequency <= 0.01

    def test_unmeasurable_eps_rejected(self):
        with pytest.raises(ValueError):
            mc.validate_bound("hoeffding", eps=1e-6, trials=100, seed=0)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            mc.validate_bound("chernoff", eps=0.01, trials=100, seed=0)

    def test_reproducible(self):
        a = mc.validate_bound("sampling_lambda", eps=0.01, trials=5_000, seed=17)
        assert a == mc.validate_bound("sampling_lambda", eps=0.01, trials=5_000, seed=17)


@pytest.mark.parametrize("simulate", [
    lambda length: mc.simulate_honest(length, 0.02, 0.05, 100),
    lambda length: mc.simulate_repudiation(length, 0.05, 0.15, 100),
    lambda length: mc.simulate_forging(length, 0.3, 0.25, 100),
], ids=["honest", "repudiation", "forging"])
@pytest.mark.parametrize("length", [1, 0, -5])
def test_simulators_reject_short_strings(simulate, length):
    with pytest.raises(ValueError, match=f"length must be >= 2, got {length}"):
        simulate(length)


@pytest.mark.parametrize("simulate", [
    lambda threshold: mc.simulate_honest(2000, 0.02, threshold, 100),
    lambda threshold: mc.simulate_repudiation(2000, 0.05, threshold, 100),
    lambda threshold: mc.simulate_forging(2000, 0.3, threshold, 100),
], ids=["honest-s_a", "repudiation-s_v", "forging-s_v"])
@pytest.mark.parametrize("threshold", [5.0, -0.1, math.nan])
def test_simulators_reject_thresholds_outside_unit_interval(simulate, threshold):
    """Thresholds are mismatch fractions, so they lie in [0, 1]."""
    with pytest.raises(ValueError, match="s_[av]"):
        simulate(threshold)


def test_wilson_upper_behaviour():
    assert mc.wilson_upper(0, 0) == 1.0
    assert mc.wilson_upper(0, 1000) < 0.01
    assert mc.wilson_upper(1000, 1000) == pytest.approx(1.0, abs=1e-12)
    assert 0.001 < mc.wilson_upper(120, 100_000) < 0.0016
