"""The estimation chain as four layers: the reference for models._build_pipeline.

models._build_pipeline runs the whole chain in one straight-line pass.
This module keeps it as the layers it is made of, each product and sum
in the order the build forms it:

1. channel: pulse_counts scales a PulseStatistics record to the scalars
   the chain reads, each one bit-identical to a cell or a numpy .sum()
   of the 3x3 tables that tables() builds (tests/test_channel.py checks
   that);
2. decoy: single_photon_bounds runs the Chernoff validity gates and the
   Hoeffding bounds n_Z1, n_X1 and m_X1 on those scalars;
3. smb2's transfer: single_photon_populations and estimate_n_z1_from_x;
4. estimate_e_z1, the Serfling step and its ceil;

and reference_build assembles them as _build_pipeline used to, returning
the same models._Pipeline or the same reason string. Every deviation
goes through mdiqds.bounds, with its own log(1/eps) and its checks.
reference_evaluation is the per-evaluation record those pipelines carry,
models._Evaluation, with each constant written as its definition.

project_to_keep and keep_error_bound are the same reference for the kept
block of _Pipeline._keep: the keep-block projection and the error-test
bound E_keep, each through its mdiqds.bounds deviation.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from mdiqds import models
from mdiqds.bounds import (
    hoeffding_delta,
    sampling_lambda,
    serfling_count_gamma,
    serfling_fraction_gamma,
    test_sample_penalty,
)
from mdiqds.channel import IntensityConfig, PulseStatistics, SystemParams, pulse_statistics
from mdiqds.security import SecurityBudget

SIGNAL = 0  # table index of the signal intensity; 1 = strong decoy, 2 = weak decoy


def tables(record: PulseStatistics, n: float) -> SimpleNamespace:
    """A PulseStatistics record at n pulses, as 3x3 numpy tables.

    Rows are Alice's intensity and columns Bob's. counts_*/errors_* are
    the expected detections and errors per basis, pulses_* the pulse
    pairs sent, s11_* the detections caused by a (1,1) photon pair and
    e11_x their X-basis errors; y11/e11_rate are the (1,1) yield and
    error rate. Each cell is (n * fraction) * cell value, and each (1,1)
    cell ((n * fraction) * pair11) * y11, the order pulse_counts and
    models._build_pipeline form their scalars in.
    """
    frac_z, frac_x, cell_yield, cell_err, pair11 = (
        np.array(cells).reshape(3, 3) for cells in
        (record.frac_z, record.frac_x, record.cell_yield, record.cell_err, record.pair11))
    pulses_z, pulses_x = n * frac_z, n * frac_x
    s11_x = pulses_x * pair11 * record.y11
    return SimpleNamespace(counts_z=pulses_z * cell_yield, counts_x=pulses_x * cell_yield,
                           errors_z=pulses_z * cell_err, errors_x=pulses_x * cell_err,
                           pulses_z=pulses_z, pulses_x=pulses_x,
                           s11_z=pulses_z * pair11 * record.y11, s11_x=s11_x,
                           e11_x=s11_x * record.e11, y11=record.y11, e11_rate=record.e11)


def expected_tables(params: SystemParams, cfg: IntensityConfig,
                    n_pulses: float | None = None) -> SimpleNamespace:
    """tables() of the link's record, at params.n_pulses unless n_pulses is given."""
    n = params.n_pulses if n_pulses is None else n_pulses
    return tables(pulse_statistics(params, cfg), n)


class PulseCounts(NamedTuple):
    """The scalars of tables(record, n) that the estimation chain reads.

    Each value is bit-identical to the matching cell, or to the numpy
    .sum(), of those tables.
    """

    z_signal: float          # counts_z[SIGNAL, SIGNAL]
    z_signal_errors: float   # errors_z[SIGNAL, SIGNAL]
    z_signal_pulses: float   # pulses_z[SIGNAL, SIGNAL]
    z_total: float           # counts_z.sum()
    x_total: float           # counts_x.sum()
    s11_z_signal: float      # s11_z[SIGNAL, SIGNAL]
    s11_x_total: float       # s11_x.sum()
    e11_x_total: float       # e11_x.sum()
    pulses_x: tuple[float, ...]  # pulses_x, row-major over the 9 cells


def sum9(c0: float, c1: float, c2: float, c3: float, c4: float, c5: float,
         c6: float, c7: float, c8: float) -> float:
    """Sum of 9 floats in the order numpy's pairwise add.reduce uses."""
    return (((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))) + c8


def pulse_counts(record: PulseStatistics, n: float) -> PulseCounts:
    """The scalars the estimation chain reads, at n pulses."""
    cell_yield, cell_err = record.cell_yield, record.cell_err
    y11, e11 = record.y11, record.e11
    pulses_z = [n * f for f in record.frac_z]
    pulses_x = tuple(n * f for f in record.frac_x)
    s11_x = [(p * w) * y11 for p, w in zip(pulses_x, record.pair11)]
    return PulseCounts(
        z_signal=pulses_z[0] * cell_yield[0],
        z_signal_errors=pulses_z[0] * cell_err[0],
        z_signal_pulses=pulses_z[0],
        z_total=sum9(*(p * y for p, y in zip(pulses_z, cell_yield))),
        x_total=sum9(*(p * y for p, y in zip(pulses_x, cell_yield))),
        s11_z_signal=(pulses_z[0] * record.pair11[0]) * y11,
        s11_x_total=sum9(*s11_x),
        e11_x_total=sum9(*(s * e11 for s in s11_x)),
        pulses_x=pulses_x)


def check_chernoff_conditions(mu_l: float, eps: float, eps_hat: float) -> bool:
    """Validity of the concentration argument for exposure mu_l.

    Log-equivalent of the two inequality conditions: the exposure must
    satisfy mu_l >= (32/3) ln(2/eps) and mu_l >= 3 ln(1/eps_hat).
    """
    if mu_l <= 0:
        return False
    return mu_l >= (32.0 / 3.0) * math.log(2.0 / eps) and mu_l >= 3.0 * math.log(1.0 / eps_hat)


def exposure(count: float, total: float, eps_cell: float) -> float:
    """Lower-bounded exposure mu_L of a cell holding count events.

    mu_L = |W^{a,b}| - sqrt(sum_{a,b} |W^{a,b}| / 2 * ln(1/eps_cell)),
    where total is the sum over all cells of the same basis, and 0 for
    an empty basis.
    """
    if total == 0.0:
        return 0.0
    return count - math.sqrt(total / 2.0 * math.log(1.0 / eps_cell))


def estimate_n_z1(s11_z_signal: float, eps1: float) -> float:
    """Lower bound on (1,1) events in the signal-signal Z cell, floored at 0."""
    return max(s11_z_signal - hoeffding_delta(s11_z_signal, eps1), 0.0)


def estimate_n_x1(s11_x_total: float, eps1: float) -> float:
    """Lower bound on (1,1) events summed over all X-basis cells."""
    return max(s11_x_total - hoeffding_delta(s11_x_total, eps1), 0.0)


def estimate_m_x1(e11_x_total: float, eps1: float) -> float:
    """Upper bound on (1,1) error events summed over all X-basis cells."""
    return max(e11_x_total + hoeffding_delta(e11_x_total, eps1), 0.0)


@dataclass
class SinglePhotonEstimate:
    """The three decoy bounds n_Z1, n_X1 and m_X1, and the gates' verdict."""

    n_z1: float
    n_x1: float
    m_x1: float
    valid: bool


def single_photon_bounds(counts: PulseCounts, eps1: float,
                         eps_cell: float) -> SinglePhotonEstimate:
    """Run the validity gates and all three single-photon estimates.

    Gates: the exposure condition on the signal-signal Z cell and on the
    X-basis aggregate. A failed gate, or a non-positive n_Z1 or n_X1,
    yields valid=False.
    """
    mu_z = exposure(counts.z_signal, counts.z_total, eps_cell)
    mu_x = exposure(counts.x_total, counts.x_total, eps_cell)
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


def single_photon_populations(counts: PulseCounts, cfg: IntensityConfig,
                              eps_sf: float) -> tuple[float, float]:
    """Bounds N-_Z1 and N+_X1 on the single-photon preparation populations.

    N-_Z1 = 2 a_s e^{-2 a_s} N_{z,ss} - g(N_{z,ss}, eps_sf) and
    N+_X1 = sum over cells of (a+b) e^{-a-b} N_{x,ab} + g(N_{x,ab}, eps_sf).
    """
    n_z_ss = counts.z_signal_pulses
    n_z1_lo = 2.0 * cfg.a_s * math.exp(-2.0 * cfg.a_s) * n_z_ss - hoeffding_delta(n_z_ss, eps_sf)
    n_x1_hi = 0.0
    for i, a in enumerate(cfg.intensities):
        for j, b in enumerate(cfg.intensities):
            n_x_ab = counts.pulses_x[3 * i + j]
            n_x1_hi += (a + b) * math.exp(-a - b) * n_x_ab + hoeffding_delta(n_x_ab, eps_sf)
    return n_z1_lo, n_x1_hi


def estimate_n_z1_from_x(n_x1: float, n_z1_pop_lo: float, n_x1_pop_hi: float,
                         eps_sf: float) -> float:
    """n_Z1 = n_X1 * N-_Z1 / N+_X1 - gamma(N-_Z1, N+_X1, eps_sf), floored at 0."""
    if n_x1_pop_hi < 1:
        raise ValueError(f"X population bound must be >= 1, got {n_x1_pop_hi}")
    value = n_x1 * (n_z1_pop_lo / n_x1_pop_hi) - serfling_count_gamma(
        n_z1_pop_lo, n_x1_pop_hi, eps_sf)
    return max(value, 0.0)


def estimate_e_z1(n_z1: float, n_x1: float, m_x1: float,
                  eps_gamma: float) -> tuple[float, float]:
    """Signal-basis single-photon error bound from the X-basis sample.

    m_Z1 = min(ceil(n_Z1 * m_X1/n_X1 + (n_Z1 + n_X1) * gamma), n_Z1)
    with the fractional Serfling deviation gamma(n_Z1, n_X1, eps_gamma);
    returns (m_Z1, e_Z1 = m_Z1 / n_Z1), (0, 0) when n_Z1 = 0.
    """
    if n_x1 <= 0:
        raise ValueError("n_x1 must be positive")
    if n_z1 < 0 or m_x1 < 0:
        raise ValueError("counts must be non-negative")
    if n_z1 == 0:
        return 0.0, 0.0
    raw = n_z1 * (m_x1 / n_x1) + (n_z1 + n_x1) * serfling_fraction_gamma(n_z1, n_x1, eps_gamma)
    m_z1 = min(float(math.ceil(raw)), n_z1)
    return m_z1, m_z1 / n_z1


def reference_evaluation(model: str, params: SystemParams, cfg: IntensityConfig,
                         budget: SecurityBudget | None) -> models._Evaluation:
    """models._evaluation's record, each constant from its definition.

    The ledger totals run left to right, as models._ledger_total does; rep_log
    is 36 ln(2/epsilon) where c = g_prob + eps_pe + eps_n + eps_e is at
    most epsilon / 2, else None.
    """
    budget = SecurityBudget() if budget is None else budget
    x_derived = model == "smb2"
    ledgers = models.eps_ledgers(budget, x_derived)
    eps_n, eps_e = (functools.reduce(operator.add, (v for _, v in terms), 0.0)
                    for terms in ledgers)
    eps = budget.eps_sf
    c = budget.g_prob + budget.eps_pe + eps_n + eps_e
    rep_log = 36.0 * math.log(2.0 / budget.epsilon) if c <= budget.epsilon / 2.0 else None
    return models._Evaluation(
        model=model, params=params, cfg=cfg, budget=budget,
        channel=pulse_statistics(params, cfg), x_derived=x_derived, ledgers=ledgers,
        eps_n=eps_n, eps_e=eps_e, log_inv_sf=math.log(1.0 / eps),
        log_inv_pe=math.log(1.0 / budget.eps_pe),
        gate=max((32.0 / 3.0) * math.log(2.0 / eps), 3.0 * math.log(1.0 / eps)),
        rep_log=rep_log)


def reference_build(ev: models._Evaluation, n_pulses: float) -> models._Pipeline | str:
    """_build_pipeline's result at n_pulses, assembled from the four layers.

    It reads the channel record, configuration and budget of ev and
    attaches ev to the pipeline; every constant it needs comes from the
    layers.
    """
    channel, cfg, budget = ev.channel, ev.cfg, ev.budget
    counts = pulse_counts(channel, n_pulses)
    est = single_photon_bounds(counts, eps1=budget.eps_sf, eps_cell=budget.eps_sf)
    if not est.valid:
        return "decoy validity gate failed"
    if ev.x_derived:
        pop_lo, pop_hi = single_photon_populations(counts, cfg, budget.eps_sf)
        if pop_lo <= 0 or pop_hi < 1:
            return "single-photon population bound non-positive"
        n_z1 = estimate_n_z1_from_x(est.n_x1, pop_lo, pop_hi, budget.eps_sf)
        if n_z1 <= 0:
            return "x-derived signal-basis single-photon bound is zero"
    else:
        n_z1 = est.n_z1
    if est.n_x1 < 1:
        return "x-basis single-photon bound below one"
    _, e_z1 = estimate_e_z1(n_z1, est.n_x1, est.m_x1, eps_gamma=budget.eps_sf)
    z_signal = counts.z_signal
    n_test = channel.r_test * z_signal
    if n_test < 1:
        return "error-test sample is empty"
    return models._Pipeline(n_z1, est.n_x1, est.m_x1, e_z1, z_signal, n_test,
                            (1.0 - channel.r_test) * z_signal,
                            counts.z_signal_errors / z_signal, ev)


def project_to_keep(n_z1: float, e_z1: float, z_signal: float, length: int,
                    eps_sf: float) -> tuple[float, float, bool]:
    """Project pool-level single-photon bounds onto one signature block.

    The L/2 kept bits are a without-replacement sample of the
    |Z^{a_s,b_s}| signal-cell events:

        n_L1 = n_Z1 * (L/2) / |Z| - Lambda(|Z|, L/2, eps_sf)
        e_L1 = e_Z1 + Lambda(n_Z1, n_L1, eps_sf) / n_L1

    Returns (n_L1, e_L1, feasible). n_L1 is clamped to [0, L/2] and e_L1
    capped at 1; n_L1 < 1 (reported as (0, 1)) or a capped e_L1 marks
    the projection infeasible.
    """
    if not 2 <= length <= 2 * z_signal:
        raise ValueError(f"need 2 <= L <= 2*|Z|, got L={length}, |Z|={z_signal}")
    half = length / 2.0
    n_l1 = n_z1 * half / z_signal - sampling_lambda(z_signal, half, eps_sf)
    n_l1 = min(max(n_l1, 0.0), half)
    if n_l1 < 1.0:
        return 0.0, 1.0, False
    e_l1 = e_z1 + sampling_lambda(n_z1, n_l1, eps_sf) / n_l1
    if e_l1 > 1.0:
        return n_l1, 1.0, False
    return n_l1, e_l1, True


def keep_error_bound(e_test: float, length: float, n_test: float, eps_pe: float) -> float:
    """Upper bound on the kept-half error rate from the test sample.

    E_keep = E_test + test_sample_penalty(L, n_test, eps_pe), capped at
    1. Both recipients see identical statistics under the symmetric
    link, so the max over users equals the single-user value.
    """
    return min(e_test + test_sample_penalty(length, n_test, eps_pe), 1.0)
