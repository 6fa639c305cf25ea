"""Decoy-bound tests: gates, estimates, Poisson coverage.

models._build_pipeline runs these bounds inline; they are tested here as
the separate layers of tests/reference_chain.py, which test_models.py
checks the build against bit for bit.
"""
import math

import numpy as np
import pytest

import reference_chain as decoy
from mdiqds.bounds import hoeffding_delta
from mdiqds.channel import IntensityConfig, SystemParams, pulse_statistics
from reference_chain import SIGNAL, expected_tables

EPS12 = 1e-12
NEAR_ONE = 1.0 - 1e-15

CFG = IntensityConfig.symmetric(a_s=0.4, a_d1=0.05, p_as=1 / 3, p_ad1=1 / 3, p_z=0.5)
PARAMS = SystemParams(distance_km=50.0, n_pulses=1e12)


@pytest.fixture(scope="module")
def truth():
    return expected_tables(PARAMS, CFG)


@pytest.fixture(scope="module")
def counts():
    return decoy.pulse_counts(pulse_statistics(PARAMS, CFG), PARAMS.n_pulses)


class TestChernoffConditions:
    def test_large_exposure_valid(self):
        # thresholds: (32/3) ln(2e12) = 302.12 and 3 ln(1e12) = 82.89
        assert decoy.check_chernoff_conditions(1e6, EPS12, EPS12)

    def test_small_exposure_invalid(self):
        assert not decoy.check_chernoff_conditions(10.0, EPS12, EPS12)

    def test_vanishing_confidence(self):
        # thresholds drop to (32/3) ln 2 = 7.39 and ~0
        assert decoy.check_chernoff_conditions(8.0, NEAR_ONE, NEAR_ONE)
        assert not decoy.check_chernoff_conditions(0.0, NEAR_ONE, NEAR_ONE)


class TestExposureMu:
    def test_nine_uniform_cells(self):
        got = decoy.exposure(1e6, 9e6, EPS12)
        assert got == pytest.approx(1e6 - 11151, abs=1.0)
        assert got == pytest.approx(988849.23343345, rel=1e-12)

    def test_vanishing_confidence_returns_count(self, counts):
        got = decoy.exposure(counts.z_signal, counts.z_total, NEAR_ONE)
        assert got == pytest.approx(counts.z_signal, rel=1e-6)

    def test_all_zero_tallies(self):
        assert decoy.exposure(0.0, 0.0, EPS12) == 0.0


class TestEstimates:
    def test_n_z1_known_value(self):
        got = decoy.estimate_n_z1(9e5, EPS12)
        assert got == pytest.approx(9e5 - 7052.36400143, rel=1e-10)

    def test_n_z1_zero_truth(self):
        assert decoy.estimate_n_z1(0.0, EPS12) == 0.0

    def test_n_z1_vanishing_confidence_exact(self, truth):
        got = decoy.estimate_n_z1(float(truth.s11_z[SIGNAL, SIGNAL]), NEAR_ONE)
        assert got == pytest.approx(truth.s11_z[SIGNAL, SIGNAL], rel=1e-6)

    def test_n_x1_single_cell_reduces_to_z_form(self):
        # all X mass in one cell: the sum estimate collapses to the
        # single-cell estimate used on the Z side
        cells = np.zeros((3, 3))
        cells[1, 1] = 7.5e5
        assert (decoy.estimate_n_x1(float(cells.sum()), EPS12)
                == decoy.estimate_n_z1(7.5e5, EPS12))

    def test_n_x1_three_cell_hand_sum(self):
        cells = np.zeros((3, 3))
        cells[0, 0], cells[0, 1], cells[1, 0] = 4e5, 3e4, 3e4
        total = 4.6e5
        expected = total - math.sqrt(2 * total * math.log(1e12))
        assert decoy.estimate_n_x1(float(cells.sum()), EPS12) == pytest.approx(expected, rel=1e-12)

    def test_m_x1_upper_direction_and_flag(self, truth):
        n_x1 = decoy.estimate_n_x1(float(truth.s11_x.sum()), EPS12)
        mean = float(truth.e11_x.sum())
        up = decoy.estimate_m_x1(mean, EPS12)
        delta = hoeffding_delta(mean, EPS12)
        assert delta > 0.0
        assert up == mean + delta
        assert up < n_x1

    def test_m_x1_known_aggregate(self):
        cells = np.full((3, 3), 1e4 / 9.0)
        m = decoy.estimate_m_x1(float(cells.sum()), EPS12)
        assert m == pytest.approx(1e4 + 743.384437769968, rel=1e-12)

    def test_m_x1_no_errors(self):
        m = decoy.estimate_m_x1(0.0, NEAR_ONE)
        assert m == pytest.approx(0.0, abs=1e-6)

    def test_monotone_in_pulse_count(self):
        record = pulse_statistics(PARAMS, CFG)
        values = []
        for n in (1e10, 1e11, 1e12, 1e13):
            est = decoy.single_photon_bounds(decoy.pulse_counts(record, n), EPS12, EPS12)
            values.append((est.n_z1, est.n_x1))
        assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(values, values[1:]))

    def test_bundle_ledgers(self, counts):
        est = decoy.single_photon_bounds(counts, EPS12, EPS12)
        assert est.valid
        assert est.n_z1 == decoy.estimate_n_z1(counts.s11_z_signal, EPS12)
        assert est.n_x1 == decoy.estimate_n_x1(counts.s11_x_total, EPS12)
        assert est.m_x1 == decoy.estimate_m_x1(counts.e11_x_total, EPS12)

    def test_gate_failure_zeroes_estimates(self):
        thin = SystemParams(distance_km=300.0, n_pulses=1e6)
        est = decoy.single_photon_bounds(decoy.pulse_counts(pulse_statistics(thin, CFG), 1e6),
                                         EPS12, EPS12)
        assert not est.valid
        assert est.m_x1 == 0.0


class TestPoissonCoverage:
    """Bound directions hold empirically over sampled tally draws."""

    EPS = 0.01
    DRAWS = 20_000

    def test_n_z1_lower_coverage(self, truth):
        mean = truth.s11_z[SIGNAL, SIGNAL]
        bound = mean - math.sqrt(2 * mean * math.log(1 / self.EPS))
        draws = np.random.default_rng(11).poisson(mean, self.DRAWS)
        assert (draws < bound).mean() <= self.EPS

    def test_n_x1_lower_coverage(self, truth):
        mean = truth.s11_x.sum()
        bound = mean - math.sqrt(2 * mean * math.log(1 / self.EPS))
        draws = np.random.default_rng(12).poisson(mean, self.DRAWS)
        assert (draws < bound).mean() <= self.EPS

    def test_m_x1_upper_coverage(self, truth):
        mean = truth.e11_x.sum()
        bound = mean + math.sqrt(2 * mean * math.log(1 / self.EPS))
        draws = np.random.default_rng(13).poisson(mean, self.DRAWS)
        assert (draws > bound).mean() <= self.EPS
