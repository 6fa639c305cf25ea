"""Single-photon-pair bounds from decoy-state statistics.

Bounds the (1,1)-photon-pair contributions behind the observed tallies:
a lower bound on the single-photon counts in the signal-signal Z cell
(n_Z1) and across the X basis (n_X1), and an upper bound on the
single-photon error count in X (m_X1), each a Hoeffding fluctuation away
from its channel-model mean. Chernoff-style validity conditions on the
exposure mu_L of the signal-signal Z cell and of the X-basis aggregate
gate the whole estimate: when either is too thin to support the
concentration argument, the configuration is reported as invalid and
the caller must treat it as rate zero rather than use an unsound bound.

All three models share this one chain, and it reads only the scalars of
channel.PulseCounts; the 3x3 tables (channel.TallySet and
SinglePhotonTruth) are oracles for the tests, not inputs here.

Every gate and deviation consumes a failure probability. Which ones a
model spends, and how much, depends on the model and the security
budget only; models.eps_ledgers lists them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import hoeffding_delta
from .channel import PulseCounts

__all__ = [
    "SinglePhotonEstimate",
    "check_chernoff_conditions",
    "estimate_n_z1",
    "estimate_n_x1",
    "estimate_m_x1",
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


def _exposure(count: float, total: float, eps_cell: float) -> float:
    """Lower-bounded exposure mu_L of a cell holding count events.

    mu_L = |W^{a,b}| - sqrt(sum_{a,b} |W^{a,b}| / 2 * ln(1/eps_cell)),
    where total is the sum over all cells of the same basis, and 0 for
    an empty basis. May be negative for thin cells; callers must then
    fail the validity check.
    """
    if total == 0.0:
        return 0.0
    return count - math.sqrt(total / 2.0 * math.log(1.0 / eps_cell))


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


def estimate_m_x1(e11_x_total: float, eps1: float) -> float:
    """Upper bound on (1,1) error events summed over all X-basis cells.

    The channel-model mean e11_x_total of that sum plus its Hoeffding
    fluctuation at eps1.
    """
    return max(e11_x_total + hoeffding_delta(e11_x_total, eps1), 0.0)


@dataclass
class SinglePhotonEstimate:
    """The three decoy bounds n_Z1, n_X1 and m_X1, and the gates' verdict.

    The models form the phase-error rate from m_X1 and n_X1
    (models.estimate_e_z1).
    """

    n_z1: float
    n_x1: float
    m_x1: float
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
        return SinglePhotonEstimate(0.0, 0.0, 0.0, valid=False)

    n_z1 = estimate_n_z1(counts.s11_z_signal, eps1)
    n_x1 = estimate_n_x1(counts.s11_x_total, eps1)
    if n_x1 <= 0 or n_z1 <= 0:
        return SinglePhotonEstimate(n_z1, n_x1, 0.0, valid=False)
    return SinglePhotonEstimate(n_z1=n_z1, n_x1=n_x1,
                                m_x1=estimate_m_x1(counts.e11_x_total, eps1), valid=True)
