"""Channel-model tests: linearity, limits, Bayes posterior, MC oracle."""
import math

import numpy as np
import pytest

from helpers_mc import binomial_sigma, counts_match, sample_cell, sample_pair11
from mdiqds.channel import (
    MAX_PULSES,
    PHOTON_CUTOFF,
    IntensityConfig,
    PulseStatistics,
    SystemParams,
    _pair_statistics,
    pulse_statistics,
)
from mdiqds.optimize import config_from_vector, qds_search_space
from reference_chain import SIGNAL, expected_tables, pulse_counts, tables

CFG = IntensityConfig.symmetric(a_s=0.4, a_d1=0.05, p_as=1 / 3, p_ad1=1 / 3, p_z=0.5)


def params_at(distance_km: float, **kw) -> SystemParams:
    defaults = dict(distance_km=distance_km, n_pulses=1e12)
    defaults.update(kw)
    return SystemParams(**defaults)


class TestIntensityConfig:
    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            IntensityConfig.symmetric(a_s=0.05, a_d1=0.4, p_as=0.3, p_ad1=0.3, p_z=0.5)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            IntensityConfig.symmetric(a_s=0.4, a_d1=0.05, p_as=0.9, p_ad1=0.2, p_z=0.5)
        with pytest.raises(ValueError):
            IntensityConfig.symmetric(a_s=0.4, a_d1=0.05, p_as=0.3, p_ad1=0.3, p_z=1.0)

    @pytest.mark.parametrize("field", ["a_s", "a_d1", "a_d2", "p_as", "p_z"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_field_rejected(self, field, value):
        kw = dict(a_s=0.4, a_d1=0.05, a_d2=5e-4, p_as=1 / 3, p_ad1=1 / 3,
                  p_ad2=1 / 3, p_z=0.5)
        kw[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            IntensityConfig(**kw)


class TestSystemParams:
    def test_pulse_count_limit(self):
        assert SystemParams(n_pulses=MAX_PULSES).n_pulses == MAX_PULSES
        with pytest.raises(ValueError, match="n_pulses must be <= 1e\\+150"):
            SystemParams(n_pulses=1e151)

    def test_security_level_is_not_a_link_parameter(self):
        """epsilon lives in SecurityBudget alone, so no second value can shadow it."""
        with pytest.raises(TypeError):
            SystemParams(epsilon=1e-8)


class TestExpectedTallies:
    def test_linear_in_pulse_count(self):
        p = params_at(50.0)
        t1 = expected_tables(p, CFG)
        t2 = expected_tables(p, CFG, n_pulses=2 * p.n_pulses)
        assert np.allclose(t2.counts_z, 2 * t1.counts_z, rtol=1e-12)
        assert np.allclose(t2.errors_x, 2 * t1.errors_x, rtol=1e-12)

    def test_counts_decrease_with_distance(self):
        totals = [expected_tables(params_at(d), CFG).counts_z.sum()
                  for d in (0.0, 25.0, 50.0, 100.0, 200.0)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_error_rate_increases_with_dark_counts(self):
        rates = []
        for p_dc in (1e-8, 1e-7, 1e-6, 1e-5):
            t = expected_tables(params_at(100.0, p_dc=p_dc), CFG)
            rates.append(t.errors_z.sum() / t.counts_z.sum())
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_long_distance_dark_floor(self):
        p = params_at(2000.0)
        t = expected_tables(p, CFG)
        cell_yield = t.counts_z / t.pulses_z
        assert np.allclose(cell_yield, p.p_dc**2, rtol=0.05)

    def test_zero_distance_misalignment_floor(self):
        p = params_at(0.0, p_dc=0.0)
        t = expected_tables(p, CFG)
        for counts, errors in ((t.counts_z, t.errors_z), (t.counts_x, t.errors_x)):
            rate = errors.sum() / counts.sum()
            assert rate == pytest.approx(p.e_d, rel=1e-9)


class TestSinglePhotonTruth:
    def test_vacuum_pair_emits_nothing(self):
        cfg = IntensityConfig.symmetric(a_s=0.4, a_d1=0.05, a_d2=0.0,
                                        p_as=1 / 3, p_ad1=1 / 3, p_z=0.5)
        truth = expected_tables(params_at(50.0), cfg)
        assert truth.s11_z[2, 2] == 0.0
        assert truth.s11_x[2, 2] == 0.0
        # and every (1,1) count is bounded by its cell tally
        full = expected_tables(params_at(50.0), CFG)
        assert np.all(full.s11_z <= full.counts_z + 1e-9)

    def test_error_rate_within_operating_band(self):
        for distance in (0.0, 50.0, 150.0, 400.0):
            truth = expected_tables(params_at(distance), CFG)
            assert 0.03 <= truth.e11_rate <= 0.5  # misalignment floor to random

    def test_no_error_sources_no_errors(self):
        truth = expected_tables(params_at(0.0, p_dc=0.0, e_d=0.0), CFG)
        assert truth.e11_rate == 0.0
        assert truth.e11_x.sum() == 0.0

    def test_apportionment_matches_posterior(self):
        """p_{a,b|11,W} * total equals the per-cell truth entry.

        The posterior is Bayes' rule over explicit joint weights
        P_W(a,b) Pois(1|a) Pois(1|b).
        """
        truth = expected_tables(params_at(50.0), CFG)
        for basis_prob, s11 in ((CFG.p_z, truth.s11_z), (1.0 - CFG.p_z, truth.s11_x)):
            weights = np.zeros((3, 3))
            for i, (a, pa) in enumerate(zip(CFG.intensities, CFG.probs)):
                for j, (b, pb) in enumerate(zip(CFG.intensities, CFG.probs)):
                    weights[i, j] = (basis_prob * basis_prob * pa * pb
                                     * a * math.exp(-a) * b * math.exp(-b))
            assert np.allclose(weights / weights.sum() * s11.sum(), s11, rtol=1e-9)

    def test_decomposition_identity(self):
        """Cell tallies equal their photon-number double sums.

        |W^{a,b}| = sum_nm P_W(a,b) Pois(n|a) Pois(m|b) Y_nm N, the
        decomposition into photon-number classes that the decoy argument
        rests on (exact here up to the photon cutoff).
        """
        p = params_at(50.0)
        t = expected_tables(p, CFG)
        eta = p.arm_transmittance
        n = np.arange(PHOTON_CUTOFF + 1)
        q = 1.0 - (1.0 - eta) ** n
        click = 1.0 - (1.0 - q) * (1.0 - p.p_dc)
        yield_nm = np.outer(click, click)
        rebuilt = np.zeros((3, 3))
        for i, (a, pa) in enumerate(zip(CFG.intensities, CFG.probs)):
            for j, (b, pb) in enumerate(zip(CFG.intensities, CFG.probs)):
                for nn in range(PHOTON_CUTOFF + 1):
                    for mm in range(PHOTON_CUTOFF + 1):
                        pois_a = math.exp(-a) * a**nn / math.factorial(nn)
                        pois_b = math.exp(-b) * b**mm / math.factorial(mm)
                        rebuilt[i, j] += (CFG.p_z * CFG.p_z * pa * pb
                                          * pois_a * pois_b * yield_nm[nn, mm] * p.n_pulses)
        assert np.allclose(rebuilt, t.counts_z, rtol=1e-6)


class TestPulseStatistics:
    def test_counts_equal_table_cells_and_sums(self):
        """The chain's scalars at n are the cells and sums of tables(record, n), bit for bit.

        reference_chain.pulse_counts forms them in the order
        models._build_pipeline does, which test_models.py checks it against.
        """
        rng = np.random.default_rng(4)
        space = qds_search_space()
        lo, hi = np.asarray(space.lower), np.asarray(space.upper)
        checked = 0
        for _ in range(60):
            cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
            params = params_at(float(rng.uniform(0.0, 300.0)),
                               p_dc=float(rng.choice([0.0, 1e-8, 1e-7, 1e-3])),
                               e_d=float(rng.uniform(0.0, 0.5)))
            record = pulse_statistics(params, cfg)
            for n in (1.0, float(rng.integers(2, 10**6)),
                      float(10 ** rng.uniform(6, 150)), MAX_PULSES):
                got = pulse_counts(record, n)
                t = tables(record, n)
                want = dict(
                    z_signal=t.counts_z[SIGNAL, SIGNAL],
                    z_signal_errors=t.errors_z[SIGNAL, SIGNAL],
                    z_signal_pulses=t.pulses_z[SIGNAL, SIGNAL],
                    z_total=t.counts_z.sum(), x_total=t.counts_x.sum(),
                    s11_z_signal=t.s11_z[SIGNAL, SIGNAL],
                    s11_x_total=t.s11_x.sum(), e11_x_total=t.e11_x.sum())
                for name, value in want.items():
                    assert getattr(got, name) == float(value), (name, n)
                assert got.pulses_x == tuple(t.pulses_x.ravel().tolist())
                checked += 1
        assert checked == 240

    def test_error_rate_above_yield_rejected(self):
        """_pair_statistics checks err <= yield in every cell it makes.

        SystemParams keeps e_d in [0, 0.5], so a raw e_d above 1 breaks
        the order. At eta = 1 and p_dc = 0 every click is a photon click,
        so yield and photon cells are equal bit for bit and e_d = 1 makes
        each error cell equal its yield, which is allowed.
        """
        with pytest.raises(ValueError, match="exceeds yield"):
            _pair_statistics(1.0, 0.0, 1.0 + 1e-12, CFG.intensities)
        with pytest.raises(ValueError, match="exceeds yield"):
            _pair_statistics(params_at(50.0).arm_transmittance, 1e-7, 1.5, CFG.intensities)
        cell_yield, cell_err, *_ = _pair_statistics(1.0, 0.0, 1.0, CFG.intensities)
        assert cell_err == cell_yield and min(cell_yield) > 0.0


def numpy_pair_statistics(eta: float, p_dc: float, e_d: float,
                          intensities: tuple[float, float, float]) -> tuple:
    """_pair_statistics as full numpy tables: pmf @ table @ pmf.T per cell.

    The reference for the plain-float rank-1 sums. It forms the 11x11
    photon-number tables and sums them by BLAS, and the Poisson weights
    by numpy's exp, so it agrees with _pair_statistics to rounding, not
    bit for bit.
    """
    n = np.arange(PHOTON_CUTOFF + 1)
    q = 1.0 - (1.0 - eta) ** n
    click = 1.0 - (1.0 - q) * (1.0 - p_dc)
    yield_nm = np.outer(click, click)
    photon_pair = np.outer(q, q)
    err_nm = e_d * photon_pair + 0.5 * (yield_nm - photon_pair)
    pmf = np.empty((len(intensities), PHOTON_CUTOFF + 1))
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, PHOTON_CUTOFF + 1)))))
    for i, mu in enumerate(intensities):
        if mu == 0.0:
            pmf[i] = 0.0
            pmf[i, 0] = 1.0
        else:
            pmf[i] = np.exp(-mu + n * math.log(mu) - log_fact)
    cell_yield = pmf @ yield_nm @ pmf.T
    cell_err = pmf @ err_nm @ pmf.T
    y11 = float(yield_nm[1, 1])
    e11 = float(err_nm[1, 1] / yield_nm[1, 1]) if yield_nm[1, 1] > 0 else 0.0
    mu = np.asarray(intensities)
    p1 = mu * np.exp(-mu)
    total = np.add.outer(mu, mu)
    return (tuple(cell_yield.ravel().tolist()), tuple(cell_err.ravel().tolist()),
            tuple(np.outer(p1, p1).ravel().tolist()), y11, e11,
            tuple((total * np.exp(-total)).ravel().tolist()))


def test_pair_statistics_within_rounding_of_numpy_tables():
    """The rank-1 sums move each cell by at most 1e-12 of its yield.

    Error cells are compared to their cell's yield: at e_d = 0 both forms
    take e = (yield - photon) / 2, a difference of nearly equal terms, so
    the error cell alone can differ far more than 1e-12 of itself. The
    Poisson weights pair11 and one_photon agree within 1e-15 relative.
    """
    rng = np.random.default_rng(31)
    zero_cells = 0
    for _ in range(240):
        a_d2 = float(rng.choice([0.0, 5e-4, rng.uniform(0.0, 0.05)]))
        space = qds_search_space(a_d2=a_d2)
        lo, hi = np.asarray(space.lower), np.asarray(space.upper)
        cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)),
                                 a_d2)
        params = params_at(float(rng.uniform(0.0, 300.0)),
                           p_dc=float(rng.choice([0.0, 1e-8, 1e-7, 1e-3])),
                           e_d=float(rng.choice([0.0, 0.03, rng.uniform(0.0, 0.5)])))
        args = (params.arm_transmittance, params.p_dc, params.e_d, cfg.intensities)
        got_yield, got_err, got_pair11, got_y11, got_e11, got_one = _pair_statistics(*args)
        (want_yield, want_err, want_pair11, want_y11, want_e11,
         want_one) = numpy_pair_statistics(*args)
        for g_y, g_e, w_y, w_e in zip(got_yield, got_err, want_yield, want_err):
            assert abs(g_y - w_y) <= 1e-12 * w_y
            assert abs(g_e - w_e) <= 1e-12 * w_y
            assert (g_y == 0.0) == (w_y == 0.0) and (g_e == 0.0) == (w_e == 0.0)
        assert got_y11 == pytest.approx(want_y11, rel=1e-12, abs=0.0)
        assert got_e11 == pytest.approx(want_e11, rel=1e-12, abs=1e-12)
        assert got_pair11 == pytest.approx(want_pair11, rel=1e-15, abs=0.0)
        assert got_one == pytest.approx(want_one, rel=1e-15, abs=0.0)
        zero_cells += want_yield.count(0.0)
    assert zero_cells > 0  # p_dc = 0 with a vacuum weak decoy


def numpy_record(params: SystemParams, cfg: IntensityConfig) -> PulseStatistics:
    """The record as formed from numpy tables: the reference for pulse_statistics.

    The Poisson weights come from math.exp, as in _pair_statistics, and
    one_photon from a list, each cell (a + b) * exp(-a - b).
    """
    cell_yield, cell_err, _, y11, e11, _ = _pair_statistics(
        params.arm_transmittance, params.p_dc, params.e_d, cfg.intensities)
    probs = np.asarray(cfg.probs)
    p1 = np.array([mu * math.exp(-mu) for mu in cfg.intensities])
    return PulseStatistics(
        r_test=params.r_test,
        frac_z=tuple((cfg.p_z * cfg.p_z * np.outer(probs, probs)).ravel().tolist()),
        frac_x=tuple(((1.0 - cfg.p_z) * (1.0 - cfg.p_z) * np.outer(probs, probs))
                     .ravel().tolist()),
        cell_yield=cell_yield, cell_err=cell_err,
        pair11=tuple(np.outer(p1, p1).ravel().tolist()), y11=y11, e11=e11,
        one_photon=tuple([(a + b) * math.exp(-a - b)
                          for a in cfg.intensities for b in cfg.intensities]))


def test_record_bit_identical_to_numpy_tables():
    """pulse_statistics' plain-float cells equal the numpy tables' bit for bit.

    one_photon's signal cell is also smb2's signal-signal weight 2 a_s
    e^{-2 a_s} bit for bit: a_s + a_s and -a_s - a_s are exact doublings.
    """
    rng = np.random.default_rng(29)
    for _ in range(200):
        a_d2 = float(rng.choice([0.0, 5e-4, rng.uniform(0.0, 0.05)]))
        space = qds_search_space(a_d2=a_d2)
        lo, hi = np.asarray(space.lower), np.asarray(space.upper)
        cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)),
                                 a_d2)
        params = params_at(float(rng.uniform(0.0, 300.0)),
                           p_dc=float(rng.choice([0.0, 1e-8, 1e-7, 1e-3])),
                           e_d=float(rng.uniform(0.0, 0.5)),
                           r_test=float(rng.uniform(0.01, 0.5)))
        got, want = pulse_statistics(params, cfg), numpy_record(params, cfg)
        for name, value, reference in zip(PulseStatistics._fields, got, want):
            if isinstance(reference, tuple):
                assert [v.hex() for v in value] == [v.hex() for v in reference], name
            else:
                assert value.hex() == reference.hex(), name
        assert got.one_photon[0].hex() == (2.0 * cfg.a_s * math.exp(-2.0 * cfg.a_s)).hex()


def test_pair_statistics_caches_flat_tuples():
    _pair_statistics.cache_clear()
    record = pulse_statistics(params_at(50.0), CFG)
    assert _pair_statistics.cache_info().misses == 1
    assert pulse_statistics(params_at(50.0), CFG) == record
    assert _pair_statistics.cache_info().hits == 1
    cached = _pair_statistics(params_at(50.0).arm_transmittance, 1e-7, 0.03, CFG.intensities)
    assert all(a is b for a, b in zip(cached, record[3:]))
    for cells in (record.cell_yield, record.pair11, record.one_photon):
        assert len(cells) == 9 and all(type(v) is float for v in cells)


def test_record_is_symmetric_in_the_senders():
    """Both senders use one intensity set, so cell (i, j) equals cell (j, i)."""
    rng = np.random.default_rng(7)
    space = qds_search_space()
    lo, hi = np.asarray(space.lower), np.asarray(space.upper)
    for _ in range(20):
        cfg = config_from_vector(space.clip_project(lo + rng.uniform(size=5) * (hi - lo)))
        record = pulse_statistics(params_at(float(rng.uniform(0.0, 150.0))), cfg)
        for name in ("frac_z", "frac_x", "pair11", "one_photon"):
            cells = np.array(getattr(record, name)).reshape(3, 3)
            assert np.array_equal(cells, cells.T), name
        for name in ("cell_yield", "cell_err"):
            cells = np.array(getattr(record, name)).reshape(3, 3)
            assert np.allclose(cells, cells.T, rtol=1e-12, atol=0.0), name


@pytest.mark.slow
def test_monte_carlo_oracle_50km():
    """Expected cell statistics match the sampling oracle within 3 sigma."""
    p = params_at(50.0)
    t = expected_tables(p, CFG)
    eta = p.arm_transmittance
    rng = np.random.default_rng(20240517)
    samples = 400_000
    for i, a in enumerate(CFG.intensities):
        for j, b in enumerate(CFG.intensities):
            succ, errs = sample_cell(rng, a, b, eta, p.p_dc, p.e_d, samples)
            y_exp = t.counts_z[i, j] / t.pulses_z[i, j]
            e_exp = t.errors_z[i, j] / t.pulses_z[i, j]
            assert counts_match(succ, y_exp, samples), (i, j)
            assert counts_match(errs, e_exp, samples), (i, j)
    succ11, _ = sample_pair11(rng, eta, p.p_dc, p.e_d, samples)
    assert abs(succ11 / samples - t.y11) <= 3 * binomial_sigma(t.y11, samples)
