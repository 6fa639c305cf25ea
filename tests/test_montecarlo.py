"""Messaging-stage simulators and tail-bound coverage tests."""
import math
import os
import tracemalloc

import numpy as np
import pytest

from mdiqds import bounds
from mdiqds import montecarlo as mc
from mdiqds.cli import build_parser

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


@pytest.mark.parametrize("call", [
    lambda trials: mc.simulate_honest(2000, 0.02, 0.05, trials),
    lambda trials: mc.simulate_repudiation(2000, 0.05, 0.15, trials),
    lambda trials: mc.simulate_forging(2000, 0.3, 0.25, trials),
    *(lambda trials, bound=bound: mc.validate_bound(bound, 0.01, trials)
      for bound in mc.BOUND_IDS),
], ids=["honest", "repudiation", "forging", *mc.BOUND_IDS])
@pytest.mark.parametrize("trials", [0, -1])
def test_checks_reject_non_positive_trials(call, trials):
    """A frequency needs at least one trial."""
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        call(trials)


# ---------------------------------------------------------------------------
# chunked counting against one draw of all trials


def one_shot_bound_violations(bound, eps, trials, seed):
    """validate_bound's count over one draw, at the default sizes."""
    population, sample = 100_000, 1_000
    rng = np.random.default_rng(seed)
    if bound == "hoeffding":
        mean = float(population)
        draws = rng.poisson(mean, size=trials)
        return int((draws < mean - bounds.hoeffding_delta(mean, eps)).sum())
    if bound in ("serfling_fraction", "serfling_count"):
        total = population
        y = sample
        x = total - y
        marked = total // 2
        k = rng.hypergeometric(marked, total - marked, y, size=trials)
        if bound == "serfling_fraction":
            lim = marked / total + bounds.serfling_fraction_gamma(x, y, eps)
            return int((k / y > lim).sum())
        rest = marked - k
        lim = x * k / y - bounds.serfling_count_gamma(x, y, eps)
        return int((rest < lim).sum())
    if bound == "sampling_lambda":
        x = population
        y = sample
        marked = x // 2
        k = rng.hypergeometric(marked, x - marked, y, size=trials)
        lim = y * marked / x - bounds.sampling_lambda(x, y, eps)
        return int((k < lim).sum())
    length = population
    n_test = sample
    half = length // 2
    total = half + n_test
    marked = total // 2
    k = rng.hypergeometric(marked, total - marked, n_test, size=trials)
    rest = marked - k
    lim = k / n_test + bounds.test_sample_penalty(length, n_test, eps)
    return int((rest / half > lim).sum())


def one_shot_honest_aborts(length, error_rate, s_a, trials, seed):
    counts = np.random.default_rng(seed).binomial(length, error_rate, size=trials)
    return int((counts / length >= s_a).sum())


def one_shot_forging_successes(length, p_e, s_v, trials, seed):
    half = length // 2
    errors = np.random.default_rng(seed).binomial(half, p_e, size=trials)
    return int((errors / half < s_v).sum())


def one_shot_repudiation_batch(rng, length, mismatches, s_a, s_v, trials):
    half = length // 2
    h_bb = rng.hypergeometric(mismatches, length - mismatches, half, trials)
    h_cc = rng.hypergeometric(mismatches, length - mismatches, half, trials)
    bob = h_bb + (mismatches - h_cc)
    charlie = h_cc + (mismatches - h_bb)
    accept = bob / length < s_a
    reject = charlie / length >= s_v
    return int((accept & reject).sum()), int(accept.sum()), int(reject.sum())


def counted(stats, successes):
    """stats with its count replaced by ``successes``."""
    return mc._stats(stats.label, stats.trials, successes, stats.bound, stats.seed,
                     stats.detail)


# one trial, a multiple of _CHUNK and its neighbours, and three past a multiple
CHUNK_EDGES = [1, 65_535, 65_536, 65_537, 131_075]
assert 65_536 % mc._CHUNK == 0


class TestChunkedCounts:
    """Counting _CHUNK draws at a time gives the one-shot statistics."""

    @pytest.mark.parametrize("trials", CHUNK_EDGES)
    @pytest.mark.parametrize("bound_id", mc.BOUND_IDS)
    def test_validate_bound(self, bound_id, trials):
        stats = mc.validate_bound(bound_id, eps=0.2, trials=trials, seed=21)
        assert stats == counted(stats, one_shot_bound_violations(bound_id, 0.2, trials, 21))

    @pytest.mark.parametrize("trials", CHUNK_EDGES)
    def test_simulate_honest(self, trials):
        stats = mc.simulate_honest(1000, 0.04, 0.05, trials, seed=22)
        assert stats == counted(stats, one_shot_honest_aborts(1000, 0.04, 0.05, trials, 22))

    @pytest.mark.parametrize("trials", CHUNK_EDGES)
    def test_simulate_forging(self, trials):
        stats = mc.simulate_forging(200, 0.3, 0.25, trials, seed=23)
        assert stats == counted(stats, one_shot_forging_successes(200, 0.3, 0.25, trials, 23))

    # the grid stores h_bb as uint16 (mismatches up to 280), the fixed count as
    # uint8; its batches run on every available CPU, or on one worker when the
    # process may use one CPU only
    @pytest.mark.parametrize("kw", [
        dict(length=2000, s_a=0.05, s_v=0.15),
        dict(length=200, s_a=0.2, s_v=0.3, mismatches=50),
    ], ids=["grid", "fixed"])
    @pytest.mark.parametrize("trials", CHUNK_EDGES)
    def test_simulate_repudiation(self, monkeypatch, kw, trials):
        stats = mc.simulate_repudiation(trials=trials, seed=24, **kw)
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            assert mc._workers(7) == 1
            one_worker = mc.simulate_repudiation(trials=trials, seed=24, **kw)
        monkeypatch.setattr(mc, "_repudiation_batch", one_shot_repudiation_batch)
        assert stats == one_worker == mc.simulate_repudiation(trials=trials, seed=24, **kw)


SIMULATE_PROTOCOL = build_parser().parse_args(["simulate-protocol"])


# (length, s_a, s_v, mismatches); 0.07 * 100 rounds up past 7, and 7 / 100,
# 40 / 200 and 60 / 200 land exactly on a threshold
@pytest.mark.parametrize("length,s_a,s_v,mismatches", [
    (2000, 0.05, 0.15, 280),
    (SIMULATE_PROTOCOL.length, SIMULATE_PROTOCOL.s_a, SIMULATE_PROTOCOL.s_v,
     SIMULATE_PROTOCOL.length // 2),
    (200, 0.2, 0.3, 50),
    (100, 0.07, 0.2, 50),
    (30, 0.1, 1.0, 10),
], ids=["verify", "simulate-protocol", "exact", "rounded-up", "unreachable"])
def test_thresholds_match_float_tests(length, s_a, s_v, mismatches):
    """A count passes a threshold exactly when it passes the float test."""
    top = 2 * mismatches
    t_a = mc._threshold(length, s_a, top)
    t_v = mc._threshold(length, s_v, top)
    for k in range(top + 1):
        assert (k < t_a) == (k / length < s_a)
        assert (k >= t_v) == (k / length >= s_v)


# the traced peak of one check at 600,000 trials: at most eight chunk-sized
# int64 arrays, plus the stored half-draws of the repudiation batches in
# flight, 2 bytes per trial each and one per CPU of its 7 mismatch counts
MEMORY_TRIALS = 600_000
MEMORY_LIMIT = 8 * 8 * mc._CHUNK


@pytest.mark.parametrize("call,stored", [
    (lambda trials: mc.simulate_honest(2000, 0.04, 0.05, trials), 0),
    (lambda trials: mc.simulate_repudiation(2000, 0.05, 0.15, trials),
     2 * MEMORY_TRIALS * mc._workers(7)),
    (lambda trials: mc.simulate_forging(200, 0.3, 0.25, trials), 0),
    *((lambda trials, bound=bound: mc.validate_bound(bound, 0.01, trials), 0)
      for bound in mc.BOUND_IDS),
], ids=["honest", "repudiation", "forging", *mc.BOUND_IDS])
def test_memory_does_not_grow_with_trials(call, stored):
    call(1_000)  # numpy's lazy imports and first-use allocations
    tracemalloc.start()
    try:
        call(MEMORY_TRIALS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= MEMORY_LIMIT + stored
