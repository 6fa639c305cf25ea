"""Expected detection statistics for a symmetric weak-coherent-pulse MDI link.

Physical model
--------------
Both senders sit distance_km/2 from the untrusted measurement node, each
arm with transmittance eta = eta_d * 10^(-alpha * (distance_km/2) / 10)
(detector efficiency folded in). Pulses carry Poissonian photon numbers
set by the chosen intensity; both senders draw from the same intensities
and selection probabilities (one IntensityConfig describes either), so
every 3x3 cell table is symmetric under exchanging the senders. A
measurement succeeds when both arms produce a click, where a click is
either a surviving photon (each photon arrives independently with
probability eta) or a dark count (probability p_dc per gate).
Coincidences caused by photons on both sides suffer the misalignment
error e_d; any coincidence involving a dark-only click is random (error
probability 1/2).

Photon-number sums are truncated at n, m <= PHOTON_CUTOFF; the neglected
tail is below 1e-12 relative for intensities up to ~0.4 and below 1e-8
at intensity 1.0, far inside the statistical tolerances used downstream.
The click probabilities of the two arms are independent, so every cell's
double sum over (n, m) is a product of two single sums over n: the
yield of cell (i, j) is Y_i Y_j and its photon-photon part Q_i Q_j,
where Y_i and Q_i are the Poisson(mu_i)-weighted sums of the
click-with-dark-count and photon-click probabilities. These sums are
plain floats, so the rate engine needs no numpy; the 3x3 tables and
sampled tallies, which only oracles and Monte Carlo use, import it when
called.

Everything here is an expected-value computation, linear in the pulse
count: `pulse_statistics` holds the per-pulse-pair quantities of one
configuration and scales them to any pulse count: the estimation chain
(`models._build_pipeline`) reads its fields and scales the few scalars
it needs in place, and `tallies`/`truth` scale them to full 3x3 tables;
`expected_tallies` and `single_photon_truth` are the table scaling at
one count.
`sample_tallies` additionally draws integer Poisson tallies for
stochastic end-to-end runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_PULSES",
    "PHOTON_CUTOFF",
    "SystemParams",
    "IntensityConfig",
    "PulseStatistics",
    "TallySet",
    "SinglePhotonTruth",
    "expected_tallies",
    "pulse_statistics",
    "sample_tallies",
    "single_photon_truth",
]

PHOTON_CUTOFF = 10

# Largest accepted pulse count N. Beyond it, products of two counts such
# as sampling_lambda's (x - y + 1) * y overflow float64.
MAX_PULSES = 1e150

# Intensity index convention used throughout: 0 = signal, 1 = strong
# decoy, 2 = weak decoy.
SIGNAL = 0


@dataclass(frozen=True)
class SystemParams:
    """Device constants, link geometry and error-test fraction of a run.

    The security level and its failure-probability split are a
    security.SecurityBudget, passed to the runners beside these.

    Attributes
    ----------
    alpha : float
        Fiber loss in dB/km.
    eta_d : float
        Detector efficiency in [0, 1].
    p_dc : float
        Dark-count probability per detection gate.
    e_d : float
        Optical misalignment error in [0, 0.5].
    distance_km : float
        Total sender-to-sender distance; the measurement node sits at
        the midpoint.
    n_pulses : float
        Total number of pulse pairs N.
    r_test : float
        Fraction of signal-basis key events sacrificed for the error
        test, in (0, 1).
    """

    alpha: float = 0.2
    eta_d: float = 0.5
    p_dc: float = 1e-7
    e_d: float = 0.03
    distance_km: float = 100.0
    n_pulses: float = 1e12
    r_test: float = 0.055

    def __post_init__(self) -> None:
        # NaN passes every chained range comparison below; the fields are
        # read by name, since reading vars(self) would build the instance
        # dict and slow every later attribute read of this object
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.eta_d <= 1.0:
            raise ValueError(f"eta_d must be in [0, 1], got {self.eta_d}")
        if not 0.0 <= self.p_dc < 1.0:
            raise ValueError(f"p_dc must be in [0, 1), got {self.p_dc}")
        if not 0.0 <= self.e_d <= 0.5:
            raise ValueError(f"e_d must be in [0, 0.5], got {self.e_d}")
        if self.distance_km < 0:
            raise ValueError(f"distance_km must be >= 0, got {self.distance_km}")
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses}")
        if self.n_pulses > MAX_PULSES:
            raise ValueError(f"n_pulses must be <= {MAX_PULSES:g}, got {self.n_pulses}")
        if not 0.0 < self.r_test < 1.0:
            raise ValueError(f"r_test must be in (0, 1), got {self.r_test}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")

    @property
    def arm_transmittance(self) -> float:
        """Per-arm transmittance including detector efficiency."""
        return self.eta_d * 10.0 ** (-self.alpha * (self.distance_km / 2.0) / 10.0)


@dataclass(frozen=True)
class IntensityConfig:
    """Decoy intensities and selection probabilities of the symmetric link.

    Both senders use the same intensities (a_s, a_d1, a_d2), selected
    with probabilities (p_as, p_ad1, p_ad2), and choose the Z basis with
    probability p_z; the one set of fields describes either sender.
    """

    a_s: float
    a_d1: float
    a_d2: float
    p_as: float
    p_ad1: float
    p_ad2: float
    p_z: float

    def __post_init__(self) -> None:
        # an infinite intensity passes the ordering check below; read by
        # name, as in SystemParams
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.a_s > self.a_d1 > self.a_d2 >= 0.0:
            raise ValueError(f"intensities must satisfy a_s > a_d1 > a_d2 >= 0, "
                             f"got {self.intensities}")
        if min(self.probs) <= 0.0:
            raise ValueError(f"selection probabilities must be positive, got {self.probs}")
        if not math.isclose(sum(self.probs), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"selection probabilities must sum to 1, got {sum(self.probs)}")
        if not 0.0 < self.p_z < 1.0:
            raise ValueError(f"p_z must be in (0, 1), got {self.p_z}")

    @classmethod
    def symmetric(cls, a_s: float, a_d1: float, p_as: float, p_ad1: float,
                  p_z: float, a_d2: float = 5e-4) -> "IntensityConfig":
        """Configuration with p_ad2 = 1 - p_as - p_ad1."""
        return cls(a_s=a_s, a_d1=a_d1, a_d2=a_d2, p_as=p_as, p_ad1=p_ad1,
                   p_ad2=1.0 - p_as - p_ad1, p_z=p_z)

    @property
    def intensities(self) -> tuple[float, float, float]:
        return (self.a_s, self.a_d1, self.a_d2)

    @property
    def probs(self) -> tuple[float, float, float]:
        return (self.p_as, self.p_ad1, self.p_ad2)

    def basis_pair_prob(self, basis: str) -> float:
        """Probability that both senders choose the given basis."""
        if basis == "Z":
            return self.p_z * self.p_z
        if basis == "X":
            return (1.0 - self.p_z) * (1.0 - self.p_z)
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


@dataclass
class TallySet:
    """Detection statistics of one configuration, per intensity cell.

    counts_*/errors_* are 3x3 matrices over (Alice intensity, Bob
    intensity) with index order (signal, decoy1, decoy2); pulses_* hold
    the pulse-pair allocations N_{W,ab}. Counts are expected values in
    the default mode and integer draws in sampled mode.
    """

    counts_z: np.ndarray
    counts_x: np.ndarray
    errors_z: np.ndarray
    errors_x: np.ndarray
    pulses_z: np.ndarray
    pulses_x: np.ndarray

    def __post_init__(self) -> None:
        for errs, counts, basis in ((self.errors_z, self.counts_z, "Z"),
                                    (self.errors_x, self.counts_x, "X")):
            if (errs > counts + 1e-9).any():
                raise ValueError(f"error counts exceed event counts in basis {basis}")


@dataclass
class SinglePhotonTruth:
    """Channel-model truth about the (1,1)-photon-pair component.

    s11_* are 3x3 expected counts of successful events caused by both
    senders emitting exactly one photon; e11_x holds the expected error
    counts among the X-basis ones. y11/e11_rate are the per-(1,1)-pair
    yield and error rate (cell independent in this channel model).
    """

    s11_z: np.ndarray
    s11_x: np.ndarray
    e11_x: np.ndarray
    y11: float
    e11_rate: float

    @property
    def s11_x_total(self) -> float:
        return float(self.s11_x.sum())

    @property
    def e11_x_total(self) -> float:
        return float(self.e11_x.sum())


_PHOTON_NUMBERS = range(PHOTON_CUTOFF + 1)
# log n! for each photon number, summed left to right
_LOG_FACTORIAL = tuple(accumulate(math.log(n) if n else 0.0 for n in _PHOTON_NUMBERS))


@lru_cache(maxsize=512)
def _pair_statistics(eta: float, p_dc: float, e_d: float,
                     intensities: tuple[float, float, float]) -> tuple:
    """Per-pulse yield and error-rate matrices over intensity cells.

    Returns (yield, err_rate_contrib, y11, e11) where yield and
    err_rate_contrib are row-major 9-tuples over the 3x3 cells, already
    averaged over photon numbers but not yet weighted by basis/intensity
    selection probabilities.

    Each cell is a product of per-sender sums (see the module docstring),
    yield_ij = Y_i Y_j and photon_ij = Q_i Q_j, and the error cell keeps
    the per-(n, m) form e_d photon + (yield - photon) / 2. The sums run
    left to right, not through builtin sum(), which compensates from
    Python 3.12 on.
    """
    q = [1.0 - (1.0 - eta) ** n for n in _PHOTON_NUMBERS]  # photon-click prob
    click = [1.0 - (1.0 - qn) * (1.0 - p_dc) for qn in q]  # threshold detector incl. dark
    y_sums, q_sums = [], []
    for mu in intensities:
        if mu == 0.0:
            y_i, q_i = click[0], q[0]
        else:
            log_mu = math.log(mu)
            y_i = q_i = 0.0
            for n, log_fact, c_n, q_n in zip(_PHOTON_NUMBERS, _LOG_FACTORIAL, click, q):
                pmf = math.exp(-mu + n * log_mu - log_fact)
                y_i += pmf * c_n
                q_i += pmf * q_n
        y_sums.append(y_i)
        q_sums.append(q_i)
    cell_yield = tuple(a * b for a in y_sums for b in y_sums)
    photon = [a * b for a in q_sums for b in q_sums]
    cell_err = tuple(e_d * ph + 0.5 * (y - ph) for y, ph in zip(cell_yield, photon))
    y11 = click[1] * click[1]
    photon11 = q[1] * q[1]
    e11 = (e_d * photon11 + 0.5 * (y11 - photon11)) / y11 if y11 > 0 else 0.0
    return cell_yield, cell_err, y11, e11


@dataclass(frozen=True)
class PulseStatistics:
    """Per-pulse-pair channel statistics of one (params, cfg).

    frac_* are the basis/intensity selection fractions, cell_* the
    per-pulse yield and error matrices of _pair_statistics and pair11 the
    (1,1) emission weights, each a row-major tuple over the 9 intensity
    cells; y11/e11 are the (1,1) yield and error rate. Every expected
    count is linear in the pulse count, so the estimation chain,
    tallies(n) and truth(n) scale this one record instead of recomputing
    the channel.

    cell_err <= cell_yield is checked here, once: scaling both sides by
    the same positive pulse count keeps the order under rounding, so no
    count derived from the record has more errors than events.
    """

    r_test: float
    frac_z: tuple[float, ...]
    frac_x: tuple[float, ...]
    cell_yield: tuple[float, ...]
    cell_err: tuple[float, ...]
    pair11: tuple[float, ...]
    y11: float
    e11: float

    def __post_init__(self) -> None:
        if any(e > y for e, y in zip(self.cell_err, self.cell_yield)):
            raise ValueError("per-pulse error rate exceeds yield in an intensity cell")

    def tallies(self, n: float) -> TallySet:
        """Expected counts/errors per basis and intensity cell at n pulses."""
        pulses_z = n * _cells(self.frac_z)
        pulses_x = n * _cells(self.frac_x)
        cell_yield, cell_err = _cells(self.cell_yield), _cells(self.cell_err)
        return TallySet(
            counts_z=pulses_z * cell_yield,
            counts_x=pulses_x * cell_yield,
            errors_z=pulses_z * cell_err,
            errors_x=pulses_x * cell_err,
            pulses_z=pulses_z,
            pulses_x=pulses_x,
        )

    def truth(self, n: float) -> SinglePhotonTruth:
        """Expected (1,1)-pair detection statistics at n pulses."""
        pair11 = _cells(self.pair11)
        s11_z = n * _cells(self.frac_z) * pair11 * self.y11
        s11_x = n * _cells(self.frac_x) * pair11 * self.y11
        return SinglePhotonTruth(s11_z=s11_z, s11_x=s11_x, e11_x=s11_x * self.e11,
                                 y11=self.y11, e11_rate=self.e11)


def _cells(values: tuple[float, ...]) -> np.ndarray:
    import numpy as np
    return np.array(values).reshape(3, 3)


def pulse_statistics(params: SystemParams, cfg: IntensityConfig) -> PulseStatistics:
    """Per-pulse-pair channel statistics of one link and configuration.

    Every rate evaluation builds one, so the 9-cell tuples are formed in
    plain floats, each product in the order of the numpy tables (the
    basis weight times outer(p, p) of the selection probabilities, and
    the outer product of the single-photon weights); the cells come from
    _pair_statistics' cache.
    """
    cell_yield, cell_err, y11, e11 = _pair_statistics(
        params.arm_transmittance, params.p_dc, params.e_d, cfg.intensities)
    probs = cfg.probs
    w_z, w_x = cfg.basis_pair_prob("Z"), cfg.basis_pair_prob("X")
    p1 = [mu * math.exp(-mu) for mu in cfg.intensities]
    return PulseStatistics(
        r_test=params.r_test,
        frac_z=tuple(w_z * (pa * pb) for pa in probs for pb in probs),
        frac_x=tuple(w_x * (pa * pb) for pa in probs for pb in probs),
        cell_yield=cell_yield, cell_err=cell_err,
        pair11=tuple(a * b for a in p1 for b in p1), y11=y11, e11=e11,
    )


def expected_tallies(params: SystemParams, cfg: IntensityConfig,
                     n_pulses: float | None = None) -> TallySet:
    """Expected counts/errors per basis and intensity cell.

    Parameters
    ----------
    params, cfg
        Link constants and intensity configuration.
    n_pulses : float, optional
        Overrides params.n_pulses (counts scale linearly).
    """
    n = params.n_pulses if n_pulses is None else n_pulses
    return pulse_statistics(params, cfg).tallies(n)


def sample_tallies(params: SystemParams, cfg: IntensityConfig,
                   rng: np.random.Generator,
                   n_pulses: float | None = None) -> TallySet:
    """Poisson-sampled integer tallies around the expected values.

    Counts are drawn per cell as Poisson(expected count); error counts
    as Binomial(count, cell error rate), which keeps errors <= counts.
    """
    import numpy as np
    mean = expected_tallies(params, cfg, n_pulses)
    out = {}
    for basis in ("z", "x"):
        counts = rng.poisson(getattr(mean, f"counts_{basis}")).astype(float)
        mean_counts = getattr(mean, f"counts_{basis}")
        mean_errors = getattr(mean, f"errors_{basis}")
        rate = np.divide(mean_errors, mean_counts,
                         out=np.zeros_like(mean_errors), where=mean_counts > 0)
        errors = rng.binomial(counts.astype(np.int64), rate).astype(float)
        out[f"counts_{basis}"] = counts
        out[f"errors_{basis}"] = errors
    return TallySet(pulses_z=mean.pulses_z, pulses_x=mean.pulses_x, **out)


def single_photon_truth(params: SystemParams, cfg: IntensityConfig,
                        n_pulses: float | None = None) -> SinglePhotonTruth:
    """Expected (1,1)-pair detection statistics per basis and cell."""
    n = params.n_pulses if n_pulses is None else n_pulses
    return pulse_statistics(params, cfg).truth(n)
