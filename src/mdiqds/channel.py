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

Every cell is an exact expectation over both senders' photon numbers,
with no truncation. The click probabilities of the two arms are
independent, so every cell's double sum over (n, m) is a product of two
single sums over n: the yield of cell (i, j) is Y_i Y_j and its
photon-photon part Q_i Q_j, where Y_i and Q_i are the Poisson(mu_i)
expectations of the click-with-dark-count and photon-click
probabilities. Each has a closed form through the Poisson generating
function, sum_n Pois(n|mu) (1 - eta)^n = e^{-eta mu} (Ma & Razavi, PRA
86, 062319 (2012)): Q_i = 1 - e^{-eta mu_i} and Y_i = Q_i + p_dc
e^{-eta mu_i}. They are plain floats, so the channel needs no numpy.

Everything here is an expected-value computation, linear in the pulse
count: `pulse_statistics` holds the per-pulse-pair quantities of one
configuration, and the estimation chain (`models._build_pipeline`)
reads its fields and scales the few scalars it needs to a pulse count
in place. Every Poisson weight the chain needs depends on the intensity
triple alone, so `_pair_statistics` forms them with the cells, once per
cache miss, and nothing downstream calls exp.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "MAX_PULSES",
    "SystemParams",
    "IntensityConfig",
    "PulseStatistics",
    "pulse_statistics",
]

# Largest accepted pulse count N. Beyond it, products of two counts such
# as sampling_lambda's (x - y + 1) * y overflow float64.
MAX_PULSES = 1e150


class _SystemParamsFields(NamedTuple):
    alpha: float = 0.2
    eta_d: float = 0.5
    p_dc: float = 1e-7
    e_d: float = 0.03
    distance_km: float = 100.0
    n_pulses: float = 1e12
    r_test: float = 0.055


class SystemParams(_SystemParamsFields):
    """Device constants, link geometry and error-test fraction of a run.

    The security level and its failure-probability split are a
    security.SecurityBudget, passed to the runners beside these. An
    immutable NamedTuple: building it by position or keyword, through
    _make or _replace, or by unpickling runs the range checks.

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

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SystemParams":
        self = super().__new__(cls, *args, **kwargs)
        # NaN passes every chained range comparison below
        for name, value in zip(cls._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        alpha, eta_d, p_dc, e_d, distance_km, n_pulses, r_test = self
        if not 0.0 <= eta_d <= 1.0:
            raise ValueError(f"eta_d must be in [0, 1], got {eta_d}")
        if not 0.0 <= p_dc < 1.0:
            raise ValueError(f"p_dc must be in [0, 1), got {p_dc}")
        if not 0.0 <= e_d <= 0.5:
            raise ValueError(f"e_d must be in [0, 0.5], got {e_d}")
        if distance_km < 0:
            raise ValueError(f"distance_km must be >= 0, got {distance_km}")
        if n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
        if n_pulses > MAX_PULSES:
            raise ValueError(f"n_pulses must be <= {MAX_PULSES:g}, got {n_pulses}")
        if not 0.0 < r_test < 1.0:
            raise ValueError(f"r_test must be in (0, 1), got {r_test}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        return self

    @classmethod
    def _make(cls, iterable) -> "SystemParams":
        # through __new__, so that _replace and copy.replace check too
        return cls(*iterable)

    def __reduce__(self):
        # through __new__ on every pickle protocol and in copy.deepcopy
        return type(self), tuple(self)

    @property
    def arm_transmittance(self) -> float:
        """Per-arm transmittance including detector efficiency."""
        return self.eta_d * 10.0 ** (-self.alpha * (self.distance_km / 2.0) / 10.0)


class _IntensityConfigFields(NamedTuple):
    a_s: float
    a_d1: float
    a_d2: float
    p_as: float
    p_ad1: float
    p_ad2: float
    p_z: float


class IntensityConfig(_IntensityConfigFields):
    """Decoy intensities and selection probabilities of the symmetric link.

    Both senders use the same intensities (a_s, a_d1, a_d2), selected
    with probabilities (p_as, p_ad1, p_ad2), and choose the Z basis with
    probability p_z; the one set of fields describes either sender. An
    immutable NamedTuple, checked however it is built, as SystemParams
    is.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "IntensityConfig":
        self = super().__new__(cls, *args, **kwargs)
        # an infinite intensity passes the ordering check below
        for name, value in zip(cls._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        a_s, a_d1, a_d2, p_as, p_ad1, p_ad2, p_z = self
        if not a_s > a_d1 > a_d2 >= 0.0:
            raise ValueError(f"intensities must satisfy a_s > a_d1 > a_d2 >= 0, "
                             f"got {(a_s, a_d1, a_d2)}")
        probs = (p_as, p_ad1, p_ad2)
        if min(probs) <= 0.0:
            raise ValueError(f"selection probabilities must be positive, got {probs}")
        total = sum(probs)
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"selection probabilities must sum to 1, got {total}")
        if not 0.0 < p_z < 1.0:
            raise ValueError(f"p_z must be in (0, 1), got {p_z}")
        return self

    @classmethod
    def _make(cls, iterable) -> "IntensityConfig":
        # through __new__, so that _replace and copy.replace check too
        return cls(*iterable)

    def __reduce__(self):
        # through __new__ on every pickle protocol and in copy.deepcopy
        return type(self), tuple(self)

    @classmethod
    def symmetric(cls, a_s: float, a_d1: float, p_as: float, p_ad1: float,
                  p_z: float, a_d2: float = 5e-4) -> "IntensityConfig":
        """Configuration with p_ad2 = 1 - p_as - p_ad1."""
        return cls(a_s=a_s, a_d1=a_d1, a_d2=a_d2, p_as=p_as, p_ad1=p_ad1,
                   p_ad2=1.0 - p_as - p_ad1, p_z=p_z)

    @property
    def intensities(self) -> tuple[float, float, float]:
        return self[:3]

    @property
    def probs(self) -> tuple[float, float, float]:
        return self[3:6]


@lru_cache(maxsize=512)
def _pair_statistics(eta: float, p_dc: float, e_d: float,
                     intensities: tuple[float, float, float]) -> tuple:
    """Per-pulse yield and error-rate matrices over intensity cells.

    Returns (yield, err_rate_contrib, pair11, y11, e11, one_photon), in
    PulseStatistics' field order. yield and err_rate_contrib are
    row-major 9-tuples over the 3x3 cells, already averaged over photon
    numbers but not yet weighted by basis/intensity selection
    probabilities; pair11 and one_photon are the cells' Poisson weights
    a e^{-a} b e^{-b} (the (1,1) emission) and (a+b) e^{-(a+b)} (one
    photon from the pair in all), which depend on the intensities alone.

    Every cell is an exact expectation over the photon numbers, with no
    truncation: a product of per-sender closed forms (see the module
    docstring), yield_ij = Y_i Y_j and photon_ij = Q_i Q_j, and the error
    cell keeps the per-(n, m) form e_d photon + (yield - photon) / 2.
    Y_i is written as Q_i plus its dark-count term, so at p_dc = 0 the
    yield and photon cells are equal bit for bit. The (1,1) yield y11
    is the square of the one-photon click eta + p_dc (1 - eta), and its
    photon part eta^2.

    cell_err <= cell_yield is checked here, once per set of cells:
    scaling both sides by the same positive pulse count keeps the order
    under rounding, so no count derived from the cells has more errors
    than events.
    """
    # sum_n Pois(n|mu) (1 - eta)^n = e^{-eta mu}: no photon of the pulse arrives
    q_sums = [-math.expm1(-eta * mu) for mu in intensities]  # photon click
    y_sums = [q_i + p_dc * math.exp(-eta * mu)  # or, failing that, a dark count
              for q_i, mu in zip(q_sums, intensities)]
    cell_yield = tuple(a * b for a in y_sums for b in y_sums)
    photon = [a * b for a in q_sums for b in q_sums]
    cell_err = tuple(e_d * ph + 0.5 * (y - ph) for y, ph in zip(cell_yield, photon))
    if any(e > y for e, y in zip(cell_err, cell_yield)):
        raise ValueError("per-pulse error rate exceeds yield in an intensity cell")
    click1 = eta + p_dc * (1.0 - eta)  # one photon, or a dark count
    y11 = click1 * click1
    photon11 = eta * eta
    e11 = (e_d * photon11 + 0.5 * (y11 - photon11)) / y11 if y11 > 0 else 0.0
    p1 = [mu * math.exp(-mu) for mu in intensities]
    pair11 = tuple([a * b for a in p1 for b in p1])
    one_photon = tuple([(a + b) * math.exp(-a - b) for a in intensities for b in intensities])
    return cell_yield, cell_err, pair11, y11, e11, one_photon


class PulseStatistics(NamedTuple):
    """Per-pulse-pair channel statistics of one (params, cfg).

    frac_* are the basis/intensity selection fractions, cell_* the
    per-pulse yield and error matrices of _pair_statistics, pair11 the
    (1,1) emission weights a e^{-a} b e^{-b} and one_photon the weights
    (a+b) e^{-(a+b)} of one photon from the pair in all, each a row-major
    tuple over the 9 intensity cells (index 0 = signal, 1 = strong decoy,
    2 = weak decoy, Alice's intensity first; one_photon[0] is 2 a_s
    e^{-2 a_s}); y11/e11 are the (1,1) yield and error rate. Every
    expected count is linear in the pulse count, so the estimation chain
    scales this one record instead of recomputing the channel. A
    NamedTuple, built once per rate evaluation; everything after frac_x
    comes checked from _pair_statistics' cache.
    """

    r_test: float
    frac_z: tuple[float, ...]
    frac_x: tuple[float, ...]
    cell_yield: tuple[float, ...]
    cell_err: tuple[float, ...]
    pair11: tuple[float, ...]
    y11: float
    e11: float
    one_photon: tuple[float, ...]


def pulse_statistics(params: SystemParams, cfg: IntensityConfig) -> PulseStatistics:
    """Per-pulse-pair channel statistics of one link and configuration.

    Every rate evaluation builds one, so the 9-cell tuples are formed in
    plain floats, each product in the order numpy's outer products form
    it (the basis weight p_z^2 or (1 - p_z)^2 times outer(p, p) of the
    selection probabilities, and the outer product of the single-photon
    weights), so they equal the tests' numpy tables bit for bit; the
    cells and Poisson weights come from _pair_statistics' cache.
    """
    probs = cfg.probs
    outer = [pa * pb for pa in probs for pb in probs]
    p_z = cfg.p_z
    w_z, w_x = p_z * p_z, (1.0 - p_z) * (1.0 - p_z)
    return PulseStatistics._make(
        (params.r_test, tuple([w_z * o for o in outer]), tuple([w_x * o for o in outer]))
        + _pair_statistics(params.arm_transmittance, params.p_dc, params.e_d,
                           cfg.intensities))
