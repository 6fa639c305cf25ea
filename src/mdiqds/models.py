"""The three parameter-estimation pipelines and their signature rates.

All three models share one backbone: bound the single-photon-pair count
and error rate of the sifted signal-basis keys, project them onto one
signature block with without-replacement sampling deviations, derive the
forger's minimum error rate and the acceptance thresholds, and check the
three failure probabilities against the security level.

They differ in two places. The sign-one-bit model ("sob") dedicates a
whole block of N_s pulse pairs to a single signed bit, with the entire
key pool forming that bit's signature material, and bisects for a
self-sufficient N_s whose predecessor is not; its rate 1/N_s is
independent of the total pulse count. (sob feasibility is not monotone
at the scale of single pulses: the ceil in estimate_e_z1 makes e_Z1 jump
by 1/n_Z1, so a feasible size can sit a little below the one found.)
The two sign-multiple-bits models ("smb1", "smb2") solve for the
smallest secure signature length L and sign n_pool/(2L) bits from the
shared pool; smb1 bounds the signal-basis single-photon count directly
from signal-basis data, while smb2 transfers the X-basis count onto the
Z basis through the single-photon preparation populations.

Every runner takes a floor: an evaluation that provably cannot reach a
rate above it stops its N_s or L search early and returns an infeasible
result (reason FLOOR_REASON). A floor of 0 never stops a search, and a
search that is not stopped returns exactly what it would without one.
A floored sob evaluation may also stop before its search, on a relaxed
block probe that is monotone in N_s and admits every feasible block
(_sob_relaxed); that proof rests on the float error of the chain being
far below the relaxation's slack, which the tests check over seeded
configurations.

The two key-generation pairs (signer with each recipient) are
statistically identical over the symmetric link, so one channel
computation serves both and the max over recipients of any bound equals
the single-pair value. The type enforces that symmetry: an
IntensityConfig holds one set of intensities and probabilities, which
both senders use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .bounds import (
    binary_entropy,
    hoeffding_delta,
    sampling_lambda,
    serfling_count_gamma,
    serfling_fraction_gamma,
)
from .channel import (
    IntensityConfig,
    PulseCounts,
    PulseStatistics,
    SystemParams,
    pulse_statistics,
)
from .decoy import single_photon_bounds
from .security import (
    SecurityBudget,
    SecurityOutcome,
    eve_error_rate,
    keep_error_bound,
    min_entropy,
    security_probabilities,
    smallest_feasible,
    solve_signature_length,
    thresholds,
)

__all__ = [
    "FLOOR_REASON",
    "MODELS",
    "RateResult",
    "eps_ledgers",
    "estimate_e_z1",
    "project_to_keep",
    "single_photon_populations",
    "estimate_n_z1_from_x",
    "signed_bits",
    "run_sob",
    "run_smb1",
    "run_smb2",
    "run_model",
]

MODELS = ("sob", "smb1", "smb2")

# reason of a floored evaluation whose rate cannot exceed its floor
FLOOR_REASON = "rate not above floor"

# Fixed, pulse-count-independent start of the geometric block-size
# bracket; keeps the sign-one-bit search identical for every total N
# above the found block size.
_SOB_BRACKET_START = 1024
# A relaxed sob probe at n builds the block ceil(n * (1 + eta)): the slack
# this enlargement gives its margins is far above the float error of the
# chain (see _sob_relaxed).
_SOB_RELAX_ETA = 1e-9
# A floored sob search also probes the relaxed predicate this fraction
# below its stop; when that fails, every block up to there is infeasible.
_SOB_PREFIX_DELTA = 1e-3

EpsTerms = tuple[tuple[str, float], ...]


def estimate_e_z1(n_z1: float, n_x1: float, m_x1: float,
                  eps_gamma: float) -> tuple[float, float]:
    """Signal-basis single-photon error bound from the X-basis sample.

    m_Z1 = min(ceil(n_Z1 * m_X1/n_X1 + (n_Z1 + n_X1) * gamma), n_Z1)
    with the fractional Serfling deviation gamma(n_Z1, n_X1, eps_gamma);
    e_Z1 = m_Z1 / n_Z1 (0 when n_Z1 = 0). Returns (m_Z1, e_Z1); the
    failure probabilities of the inputs and of the sampling step are
    listed by eps_ledgers.
    """
    if n_x1 <= 0:
        raise ValueError("n_x1 must be positive")
    if n_z1 < 0 or m_x1 < 0:
        raise ValueError("counts must be non-negative")
    if n_z1 == 0:
        return 0.0, 0.0
    m_z1 = min(float(math.ceil(_raw_m_z1(n_z1, n_x1, m_x1, eps_gamma))), n_z1)
    return m_z1, m_z1 / n_z1


def _raw_m_z1(n_z1: float, n_x1: float, m_x1: float, eps_gamma: float) -> float:
    """m_Z1 of estimate_e_z1 before its ceil and its cap at n_Z1."""
    return n_z1 * (m_x1 / n_x1) + (n_z1 + n_x1) * serfling_fraction_gamma(n_z1, n_x1, eps_gamma)


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


def single_photon_populations(counts: PulseCounts, cfg: IntensityConfig,
                              eps_sf: float) -> tuple[float, float]:
    """Bounds on the single-photon preparation populations per basis.

    N-_Z1 = 2 a_s e^{-2 a_s} N_{z,ss} - g(N_{z,ss}, eps_sf) (both senders
    send a_s in the signal cell) and N+_X1 = sum over cells of
    (a+b) e^{-a-b} N_{x,ab} + g(N_{x,ab}, eps_sf), holding jointly with
    confidence 1 - 9 eps_sf.

    The pulse allocations N_{z,ss} and N_{x,ab} are read from counts
    (channel.PulseStatistics.counts). Raises no error on a non-positive
    lower bound; callers treat it as infeasible.
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
    """Transfer the X-basis single-photon count onto the Z basis.

    n_Z1 = n_X1 * N-_Z1 / N+_X1 - gamma(N-_Z1, N+_X1, eps_sf) with the
    count-form Serfling deviation, floored at 0.
    """
    if n_x1_pop_hi < 1:
        raise ValueError(f"X population bound must be >= 1, got {n_x1_pop_hi}")
    value = n_x1 * (n_z1_pop_lo / n_x1_pop_hi) - serfling_count_gamma(
        n_z1_pop_lo, n_x1_pop_hi, eps_sf)
    return max(value, 0.0)


def signed_bits(n_pool: float, length: float) -> float:
    """Bits signable from a pool: each bit consumes 2L pool bits."""
    return n_pool / (2.0 * length)


def eps_ledgers(budget: SecurityBudget, x_derived: bool) -> tuple[EpsTerms, EpsTerms]:
    """The (label, value) failure-probability ledgers of one model.

    Returns (n_terms, e_terms): what the single-photon count bound and
    the error-rate bound of the kept block each spend, from the decoy
    gates through the keep-block projection. They depend on the budget
    and on whether n_Z1 is transferred from the X basis (smb2), not on
    the data, so one pair serves every probe of a rate evaluation.
    """
    eps = budget.eps_sf
    if x_derived:
        n_terms: EpsTerms = (("x-cell exposures", 9 * 3 * eps), ("n_X1 fluctuation", eps),
                             ("single-photon populations", 9.0 * eps),
                             ("x-to-z count transfer", eps))
    else:
        n_terms = (("z-cell exposure", 3 * eps), ("n_Z1 fluctuation", eps))
    e_terms: EpsTerms = (("m_X1 estimate", eps), ("n_X1 estimate", 9 * 3 * eps + eps),
                         ("z-error sampling step", eps))
    return (n_terms + (("keep-block count projection", eps),),
            e_terms + (("keep-block error projection", eps),))


def _ledger_total(terms: EpsTerms) -> float:
    # left to right on purpose: builtin sum() of floats is compensated from
    # Python 3.12 on, which moves the last digit of P_forge
    total = 0.0
    for _, value in terms:
        total += value
    return total


@dataclass(frozen=True)
class RateResult:
    """Signature rate of one model at one configuration.

    rate * n_pulses equals n_bits within 2 ulp of n_bits on every
    feasible result (rate is n_bits / n_pulses, or 1 / block_size for
    sob, and the product rounds); the block_size field is populated by
    the sign-one-bit model only.
    """

    model: str
    distance_km: float
    n_pulses: float
    feasible: bool
    rate: float = 0.0
    n_bits: float = 0.0
    length: int = 0
    block_size: int | None = None
    n_pool: float = 0.0
    n_test: float = 0.0
    n_z1: float = 0.0
    n_x1: float = 0.0
    m_x1: float = 0.0
    e_z1: float = 0.0
    n_l1: float = 0.0
    e_l1: float = 0.0
    h_min: float = 0.0
    e_test: float = 0.0
    e_keep: float = 0.0
    p_e: float = 0.0
    s_a: float = 0.0
    s_v: float = 0.0
    p_robust: float = 0.0
    p_repudiation: float = 0.0
    p_forge: float = 0.0
    eps_n_terms: EpsTerms = field(default_factory=tuple)
    eps_e_terms: EpsTerms = field(default_factory=tuple)
    config: IntensityConfig | None = None
    reason: str = ""

    @property
    def eps_n(self) -> float:
        return _ledger_total(self.eps_n_terms)

    @property
    def eps_e(self) -> float:
        return _ledger_total(self.eps_e_terms)


class _Pipeline(NamedTuple):
    """Length-independent state of one estimation run.

    eps_n/eps_e are the totals of the model's eps_ledgers, taken once
    per rate evaluation, so that a length probe does only the work that
    depends on L. A NamedTuple, built positionally: the block-size search
    builds one per probe.
    """

    n_z1: float
    n_x1: float
    m_x1: float
    e_z1: float
    z_signal: float
    n_test: float
    n_pool: float
    e_test: float
    budget: SecurityBudget
    eps_n: float
    eps_e: float

    def _at(self, length: int, n_l1: float, e_l1: float, keep_ok: bool) -> tuple:
        """The security quantities at L, given the kept block's projection.

        Returns (h_l1, p_e, e_keep, s_a, s_v, p_robust, p_repudiation,
        p_forge, thresholds_ok, feasible); h_l1 = H2(e_L1) is computed
        once for both the forger's error rate and the min-entropy.
        """
        budget = self.budget
        e_keep = keep_error_bound(self.e_test, length, self.n_test, budget.eps_pe)
        h_l1 = binary_entropy(e_l1)
        p_e = eve_error_rate(n_l1, h_l1, length)
        s_a, s_v, ordered = thresholds(e_keep, p_e)
        p_rob, p_rep, p_forge = security_probabilities(
            s_a, s_v, length, p_e, budget, self.eps_n, self.eps_e)
        feasible = (keep_ok and ordered
                    and max(p_rob, p_rep, p_forge) <= budget.epsilon)
        return h_l1, p_e, e_keep, s_a, s_v, p_rob, p_rep, p_forge, ordered, feasible

    def feasible_at(self, length: int) -> bool:
        """Whether signature length L meets the security level.

        The length searches probe this; it builds no outcome object, and
        a failed keep-block projection answers False without running the
        security chain.
        """
        n_l1, e_l1, keep_ok = project_to_keep(self.n_z1, self.e_z1, self.z_signal,
                                              length, self.budget.eps_sf)
        if not keep_ok:
            return False
        return self._at(length, n_l1, e_l1, keep_ok)[-1]

    def outcome_at(self, length: int) -> SecurityOutcome:
        n_l1, e_l1, keep_ok = project_to_keep(self.n_z1, self.e_z1, self.z_signal,
                                              length, self.budget.eps_sf)
        (h_l1, p_e, e_keep, s_a, s_v, p_rob, p_rep, p_forge, ordered,
         feasible) = self._at(length, n_l1, e_l1, keep_ok)
        return SecurityOutcome(
            length=length, n_l1=n_l1, e_l1=e_l1,
            h_min=min_entropy(n_l1, h_l1), p_e=p_e,
            e_test=self.e_test, e_keep=e_keep, s_a=s_a, s_v=s_v,
            p_robust=p_rob, p_repudiation=p_rep, p_forge=p_forge,
            thresholds_ok=ordered, feasible=feasible)


def _build_pipeline(channel: PulseStatistics, cfg: IntensityConfig,
                    budget: SecurityBudget, n_pulses: float, x_derived: bool,
                    eps_n: float, eps_e: float) -> _Pipeline | str:
    """Assemble the length-independent estimation state, or a failure reason.

    channel is the per-pulse record of (params, cfg), scaled here to
    n_pulses; eps_n/eps_e are the totals of eps_ledgers(budget, x_derived).
    """
    counts = channel.counts(n_pulses)
    est = single_photon_bounds(counts, eps1=budget.eps_sf, eps_cell=budget.eps_sf)
    if not est.valid:
        return "decoy validity gate failed"
    if x_derived:
        pop_lo, pop_hi = single_photon_populations(counts, cfg, budget.eps_sf)
        if pop_lo <= 0 or pop_hi < 1:
            return "single-photon population bound non-positive"
        n_z1 = estimate_n_z1_from_x(est.n_x1, pop_lo, pop_hi, budget.eps_sf)
        if n_z1 <= 0:
            return "x-derived signal-basis single-photon bound is zero"
    else:
        n_z1 = est.n_z1
    if est.n_x1 < 1:
        # the Serfling step of estimate_e_z1 needs an X sample of at least one
        return "x-basis single-photon bound below one"
    _, e_z1 = estimate_e_z1(n_z1, est.n_x1, est.m_x1, eps_gamma=budget.eps_sf)
    z_signal = counts.z_signal
    n_test = channel.r_test * z_signal
    if n_test < 1:
        return "error-test sample is empty"
    # positional, in _Pipeline's field order
    return _Pipeline(n_z1, est.n_x1, est.m_x1, e_z1, z_signal, n_test,
                     (1.0 - channel.r_test) * z_signal,
                     counts.z_signal_errors / z_signal, budget, eps_n, eps_e)


def _rate_stop(rate: Callable[[int], float], floor: float, cap: int) -> int | None:
    """Smallest n in [1, cap] with rate(n) <= floor, or None if there is none.

    rate is a float rate proportional to 1/n, non-increasing in n under
    rounding too, so rate(1) / floor is the answer up to rounding: the
    search checks it and its neighbour, and gallops and bisects only if
    rounding moved the answer further. A floor <= 0 has no stop.
    """
    if not floor > 0.0 or cap < 1 or rate(cap) > floor:
        return None
    lo, hi = 0, min(cap, max(1, math.ceil(min(rate(1) / floor, cap))))
    step = 1
    while rate(hi) > floor:  # invariant: lo == 0 or rate(lo) > floor
        lo, hi, step = hi, min(hi + step, cap), 2 * step
    step = 1
    while hi - step > lo and rate(hi - step) <= floor:
        hi, step = hi - step, 2 * step
    lo = max(lo, hi - step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rate(mid) <= floor:
            hi = mid
        else:
            lo = mid
    return hi


def _even_floor(x: float) -> int:
    n = int(x)
    return n - (n % 2)


def _infeasible(model: str, params: SystemParams, cfg: IntensityConfig,
                reason: str) -> RateResult:
    return RateResult(model=model, distance_km=params.distance_km,
                      n_pulses=params.n_pulses, feasible=False,
                      config=cfg, reason=reason)


def _result_from(model: str, params: SystemParams, cfg: IntensityConfig,
                 pipe: _Pipeline, ledgers: tuple[EpsTerms, EpsTerms],
                 outcome: SecurityOutcome, rate: float, n_bits: float,
                 block_size: int | None = None) -> RateResult:
    return RateResult(
        model=model, distance_km=params.distance_km, n_pulses=params.n_pulses,
        feasible=True, rate=rate, n_bits=n_bits, length=outcome.length,
        block_size=block_size, n_pool=pipe.n_pool, n_test=pipe.n_test,
        n_z1=pipe.n_z1, n_x1=pipe.n_x1, m_x1=pipe.m_x1, e_z1=pipe.e_z1,
        n_l1=outcome.n_l1, e_l1=outcome.e_l1, h_min=outcome.h_min,
        e_test=outcome.e_test, e_keep=outcome.e_keep, p_e=outcome.p_e,
        s_a=outcome.s_a, s_v=outcome.s_v, p_robust=outcome.p_robust,
        p_repudiation=outcome.p_repudiation, p_forge=outcome.p_forge,
        eps_n_terms=ledgers[0], eps_e_terms=ledgers[1], config=cfg)


def _run_smb(model: str, params: SystemParams, cfg: IntensityConfig,
             budget: SecurityBudget, floor: float) -> RateResult:
    """smb1 (direct) or smb2 (x-derived) rate: the smallest feasible even L.

    A positive floor turns into a half-length stop: only L below 2 * stop
    gives a rate above the floor, so the solve starts at the largest such
    L and searches down from it, and returns None at once when that L is
    infeasible. Every length probe goes through solve_signature_length.
    """
    x_derived = model == "smb2"
    ledgers = eps_ledgers(budget, x_derived)
    eps_n, eps_e = map(_ledger_total, ledgers)
    pipe = _build_pipeline(pulse_statistics(params, cfg), cfg, budget, params.n_pulses,
                           x_derived, eps_n, eps_e)
    if isinstance(pipe, str):
        return _infeasible(model, params, cfg, pipe)
    n_pool, n_pulses = pipe.n_pool, params.n_pulses
    l_max = _even_floor(n_pool / 2.0)
    stop = _rate_stop(lambda k: signed_bits(n_pool, 2 * k) / n_pulses, floor, l_max // 2)
    length = solve_signature_length(pipe.feasible_at, l_max, stop=stop)
    if length is None:
        reason = "no feasible signature length" if stop is None else FLOOR_REASON
        return _infeasible(model, params, cfg, reason)
    outcome = pipe.outcome_at(length)
    n_bits = signed_bits(n_pool, length)
    return _result_from(model, params, cfg, pipe, ledgers, outcome,
                        rate=n_bits / n_pulses, n_bits=n_bits)


def run_smb1(params: SystemParams, cfg: IntensityConfig,
             budget: SecurityBudget | None = None, floor: float = 0.0) -> RateResult:
    """Sign-multiple-bits rate with direct signal-basis estimation.

    The signature length is the smallest even L the solver accepts, so
    the result depends on the inputs alone. floor is as in run_model.
    """
    budget = budget if budget is not None else SecurityBudget(epsilon=params.epsilon)
    return _run_smb("smb1", params, cfg, budget, floor)


def run_smb2(params: SystemParams, cfg: IntensityConfig,
             budget: SecurityBudget | None = None, floor: float = 0.0) -> RateResult:
    """Sign-multiple-bits rate with X-basis-derived signal estimation.

    floor is as in run_model.
    """
    budget = budget if budget is not None else SecurityBudget(epsilon=params.epsilon)
    return _run_smb("smb2", params, cfg, budget, floor)


def _sob_block(channel: PulseStatistics, cfg: IntensityConfig, budget: SecurityBudget,
               n_s: int, eps_n: float, eps_e: float) -> tuple[_Pipeline, int] | None:
    """Pipeline and L of one block of n_s pulse pairs, or None.

    None when the block fails a gate or cannot sign one bit securely.
    """
    pipe = _build_pipeline(channel, cfg, budget, float(n_s), False, eps_n, eps_e)
    if isinstance(pipe, str):
        return None
    length = _even_floor(pipe.n_pool / 2.0)
    if length < 2 or not pipe.feasible_at(length):
        return None
    return pipe, length


def _sob_relaxed(channel: PulseStatistics, cfg: IntensityConfig, budget: SecurityBudget,
                 n: int, eps_n: float, eps_e: float) -> bool:
    """Relaxed block probe Q(n): true wherever _sob_block(n) is, monotone in n.

    Q builds the block n' = ceil(n (1 + eta)), drops the ceil from m_Z1
    (e_Z1 = min(raw, n_Z1) / n_Z1) and probes the float length
    L = n_pool / 2 instead of its even floor. So Q(m) false shows that
    no block n <= m is feasible. Three facts carry that:

    - at a fixed pipeline, feasibility is monotone in L (the smb
      argument in solve_signature_length), so L = n_pool / 2 admits
      whatever its even floor admits;
    - the chain is monotone in e_Z1 (e_L1 rises with it, and H2 with
      e_L1 below 1/2), so the ceil-free e_Z1 admits what the ceil admits;
    - without the ceil and with a continuous L, the chain is monotone in
      n in exact arithmetic: the counts are linear in n, m_X1/n_X1 and
      the Serfling terms fall, n_L1/L rises and p_E rises, and the decoy
      gates, once passed, stay passed.

    Feasibility at n therefore holds at n' with slack of order eta in
    every margin, far above the float error of the chain, so rounding
    cannot turn Q false there. Every build goes through _build_pipeline.
    """
    pipe = _build_pipeline(channel, cfg, budget, float(math.ceil(n * (1.0 + _SOB_RELAX_ETA))),
                           False, eps_n, eps_e)
    if isinstance(pipe, str):
        return False
    length = pipe.n_pool / 2.0
    if length < 2.0:
        return False
    n_z1 = pipe.n_z1  # positive: the decoy gates passed
    e_z1 = min(_raw_m_z1(n_z1, pipe.n_x1, pipe.m_x1, budget.eps_sf), n_z1) / n_z1
    return pipe._replace(e_z1=e_z1).feasible_at(length)


def run_sob(params: SystemParams, cfg: IntensityConfig,
            budget: SecurityBudget | None = None, floor: float = 0.0) -> RateResult:
    """Sign-one-bit rate: a self-sufficient block of N_s pulse pairs.

    Within one block the whole key pool backs the single bit (L =
    n_pool/2 per message value). The block size comes from the same
    bisection as the signature length (smallest_feasible), started at a
    fixed size, so the result does not depend on the total pulse count
    once it exceeds the found block size. N_s is feasible and N_s - 1 is
    not, but since sob feasibility is not monotone in single pulses (see
    the module docstring) a smaller feasible block may exist. floor is
    as in run_model.

    With a stop, the relaxed probe (_sob_relaxed) runs first: false at
    stop - 1, it shows that no block below the stop is feasible, and
    the result is FLOOR_REASON at once; false at (stop - 1)(1 - delta),
    it answers the search's probes up to there without building them.
    Either way the search makes the same decisions as without it.
    """
    budget = budget if budget is not None else SecurityBudget(epsilon=params.epsilon)
    channel = pulse_statistics(params, cfg)
    ledgers = eps_ledgers(budget, x_derived=False)
    eps_n, eps_e = map(_ledger_total, ledgers)
    feasible_blocks: dict[int, tuple[_Pipeline, int]] = {}
    known_infeasible = 0  # every block up to this size is infeasible

    def block_feasible(n: int) -> bool:
        if n <= known_infeasible:
            return False
        block = _sob_block(channel, cfg, budget, n, eps_n, eps_e)
        if block is not None:
            feasible_blocks[n] = block
        return block is not None

    cap = int(params.n_pulses)
    stop = _rate_stop(lambda n: 1.0 / n, floor, cap)
    if stop is not None:  # stop <= cap; a block of 0 pulses fails the decoy gates
        if not _sob_relaxed(channel, cfg, budget, stop - 1, eps_n, eps_e):
            return _infeasible("sob", params, cfg, FLOOR_REASON)
        n_lo = int((stop - 1) * (1.0 - _SOB_PREFIX_DELTA))
        if not _sob_relaxed(channel, cfg, budget, n_lo, eps_n, eps_e):
            known_infeasible = n_lo
    # the search returns a size it probed feasible, so its block is kept
    n_s = smallest_feasible(block_feasible, _SOB_BRACKET_START, cap, stop)
    if n_s is None:
        reason = "no feasible block size" if stop is None else FLOOR_REASON
        return _infeasible("sob", params, cfg, reason)
    pipe, length = feasible_blocks[n_s]
    n_bits = params.n_pulses / n_s
    return _result_from("sob", params, cfg, pipe, ledgers, pipe.outcome_at(length),
                        rate=1.0 / n_s, n_bits=n_bits, block_size=n_s)


def run_model(model: str, params: SystemParams, cfg: IntensityConfig,
              budget: SecurityBudget | None = None, floor: float = 0.0) -> RateResult:
    """Dispatch by model name ('sob', 'smb1' or 'smb2').

    floor is a rate the caller already holds. Where the result's rate
    exceeds it, the result is exactly that of floor 0. Otherwise the
    result may instead be infeasible, with rate 0 and reason
    FLOOR_REASON: the N_s or L search stops once every size it has
    left gives a rate <= floor. The default 0 never stops.

    For sob the floored search makes a prefix of the unfloored search's
    decisions. Some of them it takes from the relaxed block probe
    instead of building the block: those answer False only where the
    block is infeasible, because the relaxation admits every feasible
    block and is monotone in N_s (see _sob_relaxed; tests/test_models.py
    checks both over seeded configurations). For smb1/smb2 the
    floored L solve probes downward from the largest length that could
    beat the floor, and gives the unfloored answer because smb
    feasibility is monotone in L (the pool-level e_Z1 is fixed, so no
    ceil enters the L chain); tests/test_models.py checks that property
    over seeded pipelines.
    """
    try:
        runner = {"sob": run_sob, "smb1": run_smb1, "smb2": run_smb2}[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}") from None
    return runner(params, cfg, budget, floor)
