"""Single-photon-pair bounds from decoy-state statistics.

Bounds the (1,1)-photon-pair contributions behind the observed tallies:
a lower bound on the single-photon counts in the signal-signal Z cell
(n_Z1) and across the X basis (n_X1), and an upper bound on the
single-photon error count in X (m_X1), each a Hoeffding fluctuation away
from its channel-model mean. Chernoff-style validity conditions on the
per-cell exposure mu_L gate the whole estimate: when a consumed cell is
too thin to support the concentration argument, the configuration is
reported as invalid and the caller must treat it as rate zero rather
than use an unsound bound.

Every gate and deviation consumes a failure probability. Which ones a
model spends, and how much, depends on the model and the security
budget only; models.eps_ledgers lists them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import hoeffding_delta
from .channel import PulseCounts, TallySet

__all__ = [
    "DecoyDecomposition",
    "SinglePhotonEstimate",
    "check_chernoff_conditions",
    "exposure_mu",
    "decoy_decomposition",
    "estimate_n_z1",
    "estimate_n_x1",
    "estimate_m_x1_e_x1",
    "single_photon_bounds",
]


def check_chernoff_conditions(mu_l: float, eps: float, eps_hat: float) -> bool:
    """Validity of the concentration argument for exposure mu_l.

    Log-equivalent of the two inequality conditions: the exposure must
    satisfy mu_l >= (32/3) ln(2/eps) and mu_l >= 3 ln(1/eps_hat).
    """
    if mu_l <= 0:
        return False
    return mu_l >= (32.0 / 3.0) * math.log(2.0 / eps) and mu_l >= 3.0 * math.log(1.0 / eps_hat)


def exposure_mu(tallies: TallySet, cell: tuple[int, int, str], eps_cell: float) -> float:
    """Lower-bounded exposure mu_L of one intensity cell.

    mu_L = |W^{a,b}| - sqrt(sum_{a,b} |W^{a,b}| / 2 * ln(1/eps_cell)),
    where the sum runs over all cells of the same basis. May be negative
    for thin cells; callers must then fail the validity check.
    """
    a, b, basis = cell
    counts = tallies.counts_z if basis == "Z" else tallies.counts_x
    return _exposure(float(counts[a, b]), float(counts.sum()), eps_cell)


def _exposure(count: float, total: float, eps_cell: float) -> float:
    """exposure_mu of a cell holding count of its basis' total events."""
    if total == 0.0:
        return 0.0
    return count - math.sqrt(total / 2.0 * math.log(1.0 / eps_cell))


@dataclass
class DecoyDecomposition:
    """Per-cell exposure/fluctuation bookkeeping for one basis."""

    basis: str
    mu_l: np.ndarray        # 3x3 exposures
    delta: np.ndarray       # 3x3 Hoeffding fluctuations at eps_prime
    valid: np.ndarray       # 3x3 bools, Chernoff conditions per cell
    eps_cell: float
    eps_a: float
    eps_hat: float

    @property
    def eps_prime(self) -> float:
        """Aggregate per-cell failure probability."""
        return self.eps_cell + self.eps_a + self.eps_hat


def decoy_decomposition(tallies: TallySet, basis: str, eps_cell: float,
                        eps_a: float | None = None,
                        eps_hat: float | None = None) -> DecoyDecomposition:
    """Exposures, fluctuations and validity flags for every cell of a basis."""
    eps_a = eps_cell if eps_a is None else eps_a
    eps_hat = eps_cell if eps_hat is None else eps_hat
    counts = tallies.counts_z if basis == "Z" else tallies.counts_x
    mu_l = np.empty((3, 3))
    delta = np.empty((3, 3))
    valid = np.empty((3, 3), dtype=bool)
    eps_prime = eps_cell + eps_a + eps_hat
    for a in range(3):
        for b in range(3):
            mu_l[a, b] = exposure_mu(tallies, (a, b, basis), eps_cell)
            delta[a, b] = hoeffding_delta(float(counts[a, b]), eps_prime)
            valid[a, b] = check_chernoff_conditions(mu_l[a, b], eps_a, eps_hat)
    return DecoyDecomposition(basis=basis, mu_l=mu_l, delta=delta, valid=valid,
                              eps_cell=eps_cell, eps_a=eps_a, eps_hat=eps_hat)


def estimate_n_z1(s11_z_signal: float, eps1: float) -> float:
    """Lower bound on (1,1) events in the signal-signal Z cell.

    The cell's channel-model mean s11_z_signal minus its Hoeffding
    fluctuation, floored at 0. The caller treats 0 as infeasible (the
    protocol aborts).
    """
    return max(s11_z_signal - hoeffding_delta(s11_z_signal, eps1), 0.0)


def estimate_n_x1(s11_x_total: float, eps1: float) -> float:
    """Lower bound on (1,1) events summed over all X-basis cells.

    s11_x_total is the channel-model mean of that sum.
    """
    return max(s11_x_total - hoeffding_delta(s11_x_total, eps1), 0.0)


def estimate_m_x1_e_x1(e11_x_total: float, eps1: float,
                       n_x1: float) -> tuple[float, float]:
    """Upper bound on (1,1) error events in X, and the error rate.

    m_X1 is the channel-model mean plus its Hoeffding fluctuation at eps1.

    Parameters
    ----------
    e11_x_total : float
        Channel-model mean of the (1,1) error events over all X cells.
    n_x1 : float
        Denominator for the rate, the n_X1 bound.

    Returns
    -------
    (m_x1, e_x1) with e_x1 = m_x1 / n_x1 clamped to [0, 1].
    """
    if n_x1 <= 0:
        raise ValueError("n_x1 must be positive to form the error rate")
    m_x1 = max(e11_x_total + hoeffding_delta(e11_x_total, eps1), 0.0)
    e_x1 = min(max(m_x1 / n_x1, 0.0), 1.0)
    return m_x1, e_x1


@dataclass
class SinglePhotonEstimate:
    """Bundle of the three decoy bounds and the gates' verdict."""

    n_z1: float
    n_x1: float
    m_x1: float
    e_x1: float
    valid: bool


def single_photon_bounds(counts: PulseCounts, eps1: float,
                         eps_cell: float) -> SinglePhotonEstimate:
    """Run the validity gates and all three single-photon estimates.

    counts are the expected statistics of one configuration at one
    pulse count (channel.PulseStatistics.counts).

    Gates: the per-cell exposure condition on the signal-signal Z cell
    (the cell n_Z1 reads) and on the X-basis aggregate (the exposure
    behind the summed n_X1/m_X1 estimates). A failed gate, or a
    non-positive n_X1, yields valid=False with zeroed estimates.

    The failure probabilities these gates and fluctuations consume are
    listed by models.eps_ledgers: each estimate's own fluctuation (eps1)
    plus the gate-condition budget of the basis it reads (three per-cell
    epsilons for the Z signal cell, times nine cells for the X
    aggregate).
    """
    mu_z = _exposure(counts.z_signal, counts.z_total, eps_cell)
    mu_x = _exposure(counts.x_total, counts.x_total, eps_cell)
    gates_ok = (check_chernoff_conditions(mu_z, eps_cell, eps_cell)
                and check_chernoff_conditions(mu_x, eps_cell, eps_cell))
    if not gates_ok:
        return SinglePhotonEstimate(0.0, 0.0, 0.0, 0.0, valid=False)

    n_z1 = estimate_n_z1(counts.s11_z_signal, eps1)
    n_x1 = estimate_n_x1(counts.s11_x_total, eps1)
    if n_x1 <= 0 or n_z1 <= 0:
        return SinglePhotonEstimate(n_z1, n_x1, 0.0, 0.0, valid=False)
    m_x1, e_x1 = estimate_m_x1_e_x1(counts.e11_x_total, eps1, n_x1)
    return SinglePhotonEstimate(n_z1=n_z1, n_x1=n_x1, m_x1=m_x1, e_x1=e_x1, valid=True)
