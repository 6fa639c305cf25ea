"""Unit tests for the entropy and deviation functions.

Frozen expected values were computed independently with 50-digit
arithmetic (mpmath) from the definitions.
"""
import math

import numpy as np
import pytest

from mdiqds import bounds

EPS12 = 1e-12
NEAR_ONE = 1.0 - 1e-15


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert bounds.binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert bounds.binary_entropy(0.0) == 0.0
        assert bounds.binary_entropy(1.0) == 0.0

    def test_known_value(self):
        # H2(0.11) = 0.499915958164528
        assert bounds.binary_entropy(0.11) == pytest.approx(0.49991, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.binary_entropy(-0.01)
        with pytest.raises(ValueError):
            bounds.binary_entropy(1.01)

    def test_symmetry_and_concavity_grid(self):
        xs = np.linspace(0.0, 1.0, 1001)
        h = np.array([bounds.binary_entropy(float(x)) for x in xs])
        assert np.allclose(h, h[::-1], atol=1e-12)
        # discrete concavity: midpoint value above chord
        assert np.all(h[1:-1] >= 0.5 * (h[:-2] + h[2:]) - 1e-12)


class TestInverseBinaryEntropy:
    def test_extremes(self):
        assert bounds.inverse_binary_entropy(1.0) == 0.5
        assert bounds.inverse_binary_entropy(0.0) == 0.0

    def test_known_value(self):
        assert bounds.inverse_binary_entropy(0.49991) == pytest.approx(0.11, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.inverse_binary_entropy(-0.1)
        with pytest.raises(ValueError):
            bounds.inverse_binary_entropy(1.1)

    def test_roundtrip_identity(self):
        for p in np.linspace(0.0, 0.5, 1001):
            h = bounds.binary_entropy(float(p))
            assert abs(bounds.inverse_binary_entropy(h) - p) <= 1e-10

    def test_matches_reference_bisection_bit_for_bit(self):
        """The Newton path lands on exactly the bisection's answer."""
        def h2(x):
            if x == 0.0 or x == 1.0:
                return 0.0
            return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)

        def reference(h):
            if h == 0.0:
                return 0.0
            if h == 1.0:
                return 0.5
            lo, hi = 0.0, 0.5
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                if h2(mid) < h:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        rng = np.random.default_rng(20260318)
        width = 0.5 / 2**43  # the reference's final bracket
        edges = [h2(float(k) * width)
                 for k in rng.integers(1, 2**43, 5_000).tolist()
                 + np.unique(np.geomspace(1, 2**43 - 1, 5_000).astype(np.int64)).tolist()]
        hs = np.concatenate([
            10.0 ** rng.uniform(-14.0, 0.0, 60_000),   # log-uniform 1e-14..1
            rng.uniform(0.0, 1.0, 20_000),
            1.0 - 10.0 ** rng.uniform(-16.0, -3.0, 10_000),  # flat region near 1
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
            [0.0, 1.0, 5e-324, 1e-300, 0.9999, np.nextafter(0.9999, 1.0),
             np.nextafter(1.0, 0.0)],
        ]).tolist()
        assert len(hs) >= 100_000 and sum(h > 0.9999 for h in hs) > 1000
        mismatched = [h for h in hs if bounds.inverse_binary_entropy(h) != reference(h)]
        assert mismatched == []


class TestHoeffdingDelta:
    def test_zero_population(self):
        assert bounds.hoeffding_delta(0, EPS12) == 0.0

    def test_known_value(self):
        # sqrt(2e6 * ln 1e12) = 7433.8443776996769
        assert bounds.hoeffding_delta(1e6, EPS12) == pytest.approx(7433.9, abs=0.5)
        assert bounds.hoeffding_delta(1e6, EPS12) == pytest.approx(7433.84437769968, rel=1e-12)

    def test_vanishing_confidence(self):
        assert bounds.hoeffding_delta(1e6, NEAR_ONE) < 0.05

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.hoeffding_delta(-1.0, EPS12)
        with pytest.raises(ValueError):
            bounds.hoeffding_delta(1.0, 0.0)


class TestSerflingFractionGamma:
    def test_known_value(self):
        got = bounds.serfling_fraction_gamma(1000, 1000, EPS12)
        assert got == pytest.approx(0.0832, abs=1e-3)
        assert got == pytest.approx(0.08315445288294019, rel=1e-12)

    def test_vanishing_confidence(self):
        assert bounds.serfling_fraction_gamma(1000, 1000, NEAR_ONE) < 1e-6

    def test_monotone_in_sample(self):
        for y in (10, 100, 1000, 10_000):
            assert (bounds.serfling_fraction_gamma(1000, 2 * y, EPS12)
                    < bounds.serfling_fraction_gamma(1000, y, EPS12))

    def test_zero_sample_rejected(self):
        with pytest.raises(ValueError):
            bounds.serfling_fraction_gamma(1000, 0, EPS12)

    def test_negative_rest_rejected(self):
        with pytest.raises(ValueError, match="^x must be non-negative, got -1$"):
            bounds.serfling_fraction_gamma(-1, 1000, EPS12)


class TestSerflingCountGamma:
    def test_known_value(self):
        got = bounds.serfling_count_gamma(1e6, 1e6, EPS12)
        assert got == pytest.approx(5256.5, abs=1.0)
        assert got == pytest.approx(5256.52439801716, rel=1e-12)

    def test_vanishing_confidence(self):
        assert bounds.serfling_count_gamma(1e6, 1e6, NEAR_ONE) < 1e-2

    def test_zero_rest_formula(self):
        # x = 0 reduces to sqrt(y * ln(1/eps) / (2y)) = sqrt(ln(1/eps)/2)
        got = bounds.serfling_count_gamma(0, 1000, EPS12)
        assert got == pytest.approx(math.sqrt(math.log(1e12) / 2.0), rel=1e-12)

    def test_count_is_scaled_fraction(self):
        x, y = 12345.0, 6789.0
        assert bounds.serfling_count_gamma(x, y, EPS12) == pytest.approx(
            (x + y) * bounds.serfling_fraction_gamma(x, y, EPS12), rel=1e-12)

    def test_zero_sample_rejected(self):
        with pytest.raises(ValueError):
            bounds.serfling_count_gamma(1e6, 0, EPS12)

    def test_negative_rest_rejected(self):
        with pytest.raises(ValueError, match="^x must be non-negative, got -1.0$"):
            bounds.serfling_count_gamma(-1.0, 1e6, EPS12)


class TestSamplingLambda:
    def test_known_value(self):
        got = bounds.sampling_lambda(1e6, 5e5, EPS12)
        assert got == pytest.approx(1858.5, abs=1.0)
        assert got == pytest.approx(1858.46295288508, rel=1e-12)

    def test_full_population(self):
        got = bounds.sampling_lambda(1e6, 1e6, EPS12)
        assert got == pytest.approx(math.sqrt(math.log(1e12) / 2.0), rel=1e-12)

    def test_vanishing_confidence(self):
        assert bounds.sampling_lambda(1e6, 5e5, NEAR_ONE) < 1e-2

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.sampling_lambda(100, 101, EPS12)
        with pytest.raises(ValueError):
            bounds.sampling_lambda(0, 1, EPS12)


class TestTestSamplePenalty:
    def test_known_value(self):
        got = bounds.test_sample_penalty(1e4, 1e3, EPS12)
        assert got == pytest.approx(0.1288, abs=1e-3)
        assert got == pytest.approx(0.128770836729793, rel=1e-12)

    def test_vanishing_confidence(self):
        assert bounds.test_sample_penalty(1e4, 1e3, NEAR_ONE) < 1e-4

    def test_monotone_in_test_size(self):
        assert (bounds.test_sample_penalty(1e4, 1e4, EPS12)
                < bounds.test_sample_penalty(1e4, 1e3, EPS12))

    def test_zero_test_rejected(self):
        with pytest.raises(ValueError):
            bounds.test_sample_penalty(1e4, 0, EPS12)

    def test_short_block_rejected(self):
        with pytest.raises(ValueError, match="^block length must be >= 2, got 1$"):
            bounds.test_sample_penalty(1, 1, EPS12)


def test_every_deviation_nonnegative_and_monotone_in_confidence():
    """Deviations grow with ln(1/eps) and vanish as eps approaches 1."""
    eps_grid = np.logspace(-12, -0.01, 40)
    cases = [
        lambda e: bounds.hoeffding_delta(1e5, e),
        lambda e: bounds.serfling_fraction_gamma(1e4, 1e3, e),
        lambda e: bounds.serfling_count_gamma(1e4, 1e3, e),
        lambda e: bounds.sampling_lambda(1e4, 1e3, e),
        lambda e: bounds.test_sample_penalty(1e4, 1e3, e),
    ]
    for fn in cases:
        values = [fn(float(e)) for e in eps_grid]
        assert all(v >= 0.0 for v in values)
        # eps ascending means ln(1/eps) descending, so values descend
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert fn(NEAR_ONE) < 0.1
