"""The three parameter-estimation pipelines and their signature rates.

All three models share one backbone: bound the single-photon-pair count
and error rate of the sifted signal-basis keys, project them onto one
signature block with without-replacement sampling deviations, derive the
forger's minimum error rate and the acceptance thresholds, and check the
three failure probabilities against the security level.

The single-photon bounds (_build_pipeline) are the channel model's
(1,1)-pair means, each a Hoeffding fluctuation away. Chernoff-style
validity conditions on the exposure of the signal-signal Z cell and of
the X-basis aggregate gate the whole estimate: when either is too thin
to support the concentration argument, the point is infeasible rather
than given an unsound bound. Every gate and deviation consumes a failure
probability; eps_ledgers lists them per model.

Each rate evaluation (one model at one (params, cfg, budget)) builds one
record, _Evaluation, of what all its probes share: the channel record,
and the budget, with SecurityBudget() resolved there for a caller that
passes none, its ledgers and their totals, and the logarithms and
thresholds the probes read. The budget's terms depend on (model,
budget) alone: for the default budget they are computed once per model
at import, and any other budget derives them per evaluation. A probe
scales the record to a pulse count (_build_pipeline), and the _Pipeline
it gets keeps only what depends on that count. A result, RateResult,
has two constructors: _infeasible, and _Pipeline.outcome_at, which runs
the full chain once at the length a feasible evaluation's search
returned.

They differ in two places. The sign-one-bit model ("sob") dedicates a
whole block of N_s pulse pairs to a single signed bit, with the entire
key pool forming that bit's signature material, and bisects for a
self-sufficient N_s whose predecessor is not; its rate 1/N_s is
independent of the total pulse count N, except where N lies below the
top of the search's geometric bracket (see run_sob). (sob feasibility is
not monotone at the scale of single pulses: the ceil of the Serfling
step makes e_Z1 jump by 1/n_Z1, so a feasible size can sit a little
below the one found.)
The two sign-multiple-bits models ("smb1", "smb2") solve for the
smallest secure signature length L and sign n_pool/(2L) bits from the
shared pool; smb1 bounds the signal-basis single-photon count directly
from signal-basis data, while smb2 transfers the X-basis count onto the
Z basis through the single-photon preparation populations.

Every runner takes a floor: an evaluation that provably cannot reach a
rate above it stops its N_s or L search early and returns an infeasible
result (reason FLOOR_REASON). A floor of 0 never stops a search, and a
search that is not stopped returns exactly what it would without one.
A floored sob evaluation also probes two relaxations of its block
predicate, both monotone in N_s (_sob_relaxed): an optimistic one that
admits every feasible block, which may stop it before its search or
show a prefix of sizes infeasible, and a pessimistic one that admits
only feasible blocks, which shows every size from just above the stop
feasible. Both proofs rest on the float error of the chain being far
below the relaxations' slack, which the tests check over seeded
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
from typing import Callable, NamedTuple

from .bounds import binary_entropy
from .channel import IntensityConfig, PulseStatistics, SystemParams, pulse_statistics
from .security import (
    SecurityBudget,
    _gallop_down,
    eve_error_rate,
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
# A relaxed sob probe at n builds the block n * (1 +- eta), rounded away
# from n: the slack this gives its margins is far above the float error of
# the chain (see _sob_relaxed).
_SOB_RELAX_ETA = 1e-9
# A floored sob search also probes the optimistic relaxation this fraction
# below its stop; when that fails, every block up to there is infeasible.
_SOB_PREFIX_DELTA = 1e-3
# ... and the pessimistic one this fraction above its stop; when that
# holds, every block from there up is feasible.
_SOB_SUFFIX_DELTA = 1e-4
# A length probe is decided in entropy space only when its margin there
# exceeds this; closer probes run the full chain (_Pipeline.feasible_at).
_SCREEN_TAU = 1e-9
# The margin that carries the full chain's verdict where the screen's does
# not (_Pipeline.margin_at): nonzero, and far inside the tau band.
_VERDICT_MARGIN = 1e-300

EpsTerms = tuple[tuple[str, float], ...]

# the budget of a caller that passes None; immutable, so one serves all
_DEFAULT_BUDGET = SecurityBudget()


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


class RateResult(NamedTuple):
    """Signature rate of one model at one configuration.

    rate * n_pulses equals n_bits within 2 ulp of n_bits on every
    feasible result (rate is n_bits / n_pulses, or 1 / block_size for
    sob, and the product rounds); the block_size field is populated by
    the sign-one-bit model only. A NamedTuple, as every floored-out
    optimizer candidate builds one.
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
    eps_n_terms: EpsTerms = ()
    eps_e_terms: EpsTerms = ()
    config: IntensityConfig | None = None
    reason: str = ""


class _Evaluation(NamedTuple):
    """What every probe of one rate evaluation shares; _evaluation builds it.

    model, params and cfg name the evaluation, and channel is
    pulse_statistics(params, cfg). The fields from budget on are
    _budget_terms(budget, x_derived), fixed at import for the default
    budget: budget is the one the evaluation spends (SecurityBudget()
    where the caller passes None), x_derived whether n_Z1 comes from the
    X basis (smb2), ledgers the model's eps_ledgers and eps_n/eps_e
    their totals. log_inv_sf/log_inv_pe are ln(1/eps_sf) and
    ln(1/eps_pe), and gate = max((32/3) ln(2/eps_sf), 3 ln(1/eps_sf)) is
    the decoy validity threshold. rep_log = 36 ln(2/epsilon) gives the
    least forger margin that meets the repudiation bound, d_req(L) =
    sqrt(rep_log / L); it is None where the budget leaves the
    entropy-space screen of _Pipeline.feasible_at off (c = g_prob +
    eps_pe + eps_n + eps_e above epsilon / 2).
    """

    model: str
    params: SystemParams
    cfg: IntensityConfig
    channel: PulseStatistics
    budget: SecurityBudget
    x_derived: bool
    ledgers: tuple[EpsTerms, EpsTerms]
    eps_n: float
    eps_e: float
    log_inv_sf: float
    log_inv_pe: float
    gate: float
    rep_log: float | None


def _budget_terms(budget: SecurityBudget, x_derived: bool) -> tuple:
    """_Evaluation's fields from budget on, which depend on (model, budget) alone."""
    ledgers = eps_ledgers(budget, x_derived)
    eps_n, eps_e = map(_ledger_total, ledgers)
    eps, epsilon = budget.eps_sf, budget.epsilon
    log_inv = math.log(1.0 / eps)
    rep_log = (36.0 * math.log(2.0 / epsilon)
               if budget.g_prob + budget.eps_pe + eps_n + eps_e <= 0.5 * epsilon else None)
    return (budget, x_derived, ledgers, eps_n, eps_e, log_inv, math.log(1.0 / budget.eps_pe),
            max(32.0 / 3.0 * math.log(2.0 / eps), 3.0 * log_inv), rep_log)


# the default budget's terms of each model, fixed at import
_DEFAULT_TERMS = {model: _budget_terms(_DEFAULT_BUDGET, model == "smb2") for model in MODELS}


def _evaluation(model: str, params: SystemParams, cfg: IntensityConfig,
                budget: SecurityBudget | None) -> _Evaluation:
    """The record of one rate evaluation of model at (params, cfg)."""
    terms = (_DEFAULT_TERMS[model] if budget is None or budget == _DEFAULT_BUDGET
             else _budget_terms(budget, model == "smb2"))
    return _Evaluation._make((model, params, cfg, pulse_statistics(params, cfg)) + terms)


class _Pipeline(NamedTuple):
    """The estimation state of one evaluation at one pulse count.

    It holds only what depends on the pulse count; ev is the evaluation
    record the pulse count was scaled from, so that a length probe does
    only the work that depends on L. A NamedTuple, built positionally:
    the block-size search builds one per probe.
    """

    n_z1: float
    n_x1: float
    m_x1: float
    e_z1: float
    z_signal: float
    n_test: float
    n_pool: float
    e_test: float
    ev: _Evaluation

    def _keep(self, length: float) -> tuple[float, float, bool, float]:
        """The kept block at L: (n_L1, e_L1, keep_ok, E_keep).

        The L/2 kept bits are a without-replacement sample of the
        |Z^{a_s,b_s}| signal-cell events, and the error test bounds
        their error rate:

            n_L1 = n_Z1 * (L/2) / |Z| - Lambda(|Z|, L/2, eps_sf)
            e_L1 = e_Z1 + Lambda(n_Z1, n_L1, eps_sf) / n_L1
            E_keep = min(E_test + test_sample_penalty(L, n_test, eps_pe), 1)

        n_L1 is clamped to [0, L/2] and e_L1 capped at 1; n_L1 < 1
        (reported as (0, 1)) or a capped e_L1 fails the projection.
        Lambda (bounds.sampling_lambda) and the penalty are written out in
        their operation order with ev's logs: the build has checked
        every argument but L. tests/reference_chain.py holds the
        bit-identical reference.
        """
        z_signal = self.z_signal
        if not 2 <= length <= 2 * z_signal:
            raise ValueError(f"need 2 <= L <= 2*|Z|, got L={length}, |Z|={z_signal}")
        half = length / 2.0
        n_test, ev = self.n_test, self.ev
        e_keep = min(self.e_test + (2.0 / length) * math.sqrt(
            (half + 1.0) * (half + n_test) * ev.log_inv_pe / (2.0 * n_test)), 1.0)
        n_z1, log_inv = self.n_z1, ev.log_inv_sf
        n_l1 = n_z1 * half / z_signal - math.sqrt(
            (z_signal - half + 1.0) * half * log_inv / (2.0 * z_signal))
        n_l1 = min(max(n_l1, 0.0), half)
        if n_l1 < 1.0:
            return 0.0, 1.0, False, e_keep
        e_l1 = self.e_z1 + math.sqrt(
            (n_z1 - n_l1 + 1.0) * n_l1 * log_inv / (2.0 * n_z1)) / n_l1
        if e_l1 > 1.0:
            return n_l1, 1.0, False, e_keep
        return n_l1, e_l1, True, e_keep

    def _at(self, length: float, n_l1: float, h_l1: float, e_keep: float) -> tuple:
        """The security quantities at L, given the kept block.

        h_l1 = H2(e_L1) serves both the forger's error rate and the
        min-entropy. Returns (p_e, s_a, s_v, p_robust, p_repudiation,
        p_forge, secure), secure being the verdict of the bounds alone;
        the length is feasible if the projection passed too.
        """
        ev = self.ev
        p_e = eve_error_rate(n_l1, h_l1, length)
        s_a, s_v, ordered = thresholds(e_keep, p_e)
        p_rob, p_rep, p_forge = security_probabilities(
            s_a, s_v, length, p_e, ev.budget, ev.eps_n, ev.eps_e)
        secure = ordered and max(p_rob, p_rep, p_forge) <= ev.budget.epsilon
        return p_e, s_a, s_v, p_rob, p_rep, p_forge, secure

    def margin_at(self, length: float) -> float:
        """A signed margin of signature length L, > 0 exactly where L is feasible.

        The length searches probe this (or feasible_at, its sign); it
        builds no result, and a failed keep-block projection answers -inf
        at once. Otherwise the margin is taken in entropy space, without
        inverting H2: where the projection passes, write d = p_E - E_keep.
        Then P_rep <= epsilon iff d >= d_req(L) = sqrt(36 ln(2/epsilon) /
        L), and d >= d_req orders the thresholds (security's module
        docstring). Where c = g_prob + eps_pe + eps_n + eps_e <= epsilon
        / 2, which also gives P_robust = 2 eps_pe <= epsilon, such a d
        leaves P_forge <= c + (epsilon/2)^4 < epsilon, so it never binds.
        So L is feasible iff p_req = E_keep + d_req(L) <= 1/2 and p_E >=
        p_req, and since H2 rises on [0, 1/2] and H2(p_E) is the clamped
        rhs = 2 n_L1 / L (1 - H2(e_L1)), iff rhs >= H2(p_req). The
        margin is rhs - H2(p_req), continued past p_req = 1/2 as rhs - 1
        - (p_req - 1/2), which is negative.

        The screen decides only with room: where p_req > 1/2 + tau (p_E
        may be exactly 1/2), or where |rhs - H2(p_req)| > tau, tau =
        1e-9, far above the 1e-13 error of the inverse and the float
        error of the full chain. A probe inside the band, or any probe of
        a budget with c > epsilon / 2 (ev.rep_log None, no screen), runs
        the full chain, and the margin's sign is that chain's verdict: the
        screen's value where it has that sign, else +-_VERDICT_MARGIN.
        """
        n_l1, e_l1, keep_ok, e_keep = self._keep(length)
        if not keep_ok:
            return -math.inf
        h_l1 = binary_entropy(e_l1)
        rep_log = self.ev.rep_log
        margin = 0.0
        if rep_log is not None:
            # eve_error_rate's right-hand side, clamped alike
            rhs = min(max(2.0 * n_l1 / length * (1.0 - h_l1), 0.0), 1.0)
            p_req = e_keep + math.sqrt(rep_log / length)
            if p_req > 0.5:
                margin = rhs - 1.0 - (p_req - 0.5)
                if p_req > 0.5 + _SCREEN_TAU:
                    return margin
            else:
                margin = rhs - binary_entropy(p_req)
                if abs(margin) > _SCREEN_TAU:
                    return margin
        if self._at(length, n_l1, h_l1, e_keep)[-1]:
            return margin if margin > 0.0 else _VERDICT_MARGIN
        return margin if margin < 0.0 else -_VERDICT_MARGIN

    def feasible_at(self, length: float) -> bool:
        """Whether signature length L meets the security level: margin_at(L) > 0."""
        return self.margin_at(length) > 0.0

    def outcome_at(self, length: int, rate: float, n_bits: float,
                   block_size: int | None = None) -> RateResult:
        """The result of signing at L, at the rate and n_bits the caller found.

        It runs the full chain, keeping the inverse H2, and its feasible
        is that chain's verdict at L. A runner calls it once, on the
        length its search returned; block_size is sob's N_s.
        """
        n_l1, e_l1, keep_ok, e_keep = self._keep(length)
        h_l1 = binary_entropy(e_l1)
        p_e, s_a, s_v, p_rob, p_rep, p_forge, secure = self._at(length, n_l1, h_l1, e_keep)
        ev = self.ev
        return RateResult(
            model=ev.model, distance_km=ev.params.distance_km, n_pulses=ev.params.n_pulses,
            feasible=keep_ok and secure, rate=rate, n_bits=n_bits, length=length,
            block_size=block_size, n_pool=self.n_pool, n_test=self.n_test,
            n_z1=self.n_z1, n_x1=self.n_x1, m_x1=self.m_x1, e_z1=self.e_z1,
            n_l1=n_l1, e_l1=e_l1, h_min=min_entropy(n_l1, h_l1), e_test=self.e_test,
            e_keep=e_keep, p_e=p_e, s_a=s_a, s_v=s_v, p_robust=p_rob,
            p_repudiation=p_rep, p_forge=p_forge, eps_n_terms=ev.ledgers[0],
            eps_e_terms=ev.ledgers[1], config=ev.cfg)


def _raw_m_z1(n_z1: float, n_x1: float, m_x1: float, log_inv_eps: float) -> float:
    """m_Z1 = n_Z1 * m_X1/n_X1 + (n_Z1 + n_X1) * gamma before its ceil and cap.

    gamma is the fractional Serfling deviation of bounds.serfling_fraction_gamma
    (x = n_Z1, y = n_X1 >= 1), given log_inv_eps = ln(1/eps).
    """
    return n_z1 * (m_x1 / n_x1) + (n_z1 + n_x1) * math.sqrt(
        (n_z1 + 1.0) * log_inv_eps / (2.0 * n_x1 * (n_z1 + n_x1)))


def _build_pipeline(ev: _Evaluation, n_pulses: float) -> _Pipeline | str:
    """Scale the evaluation ev to n_pulses: its estimation state, or a failure reason.

    Every probe of every search builds one, so the whole estimation chain
    runs as one straight-line pass on ev's channel record, with
    ln(1/eps_sf) and the gate threshold read from ev:

    - the expected counts at n pulses, each product and nine-cell sum in
      the order numpy forms them on 3x3 tables (its pairwise sum order);
    - the decoy validity gates: the exposure mu_L = count -
      sqrt(total/2 ln(1/eps)) of the signal-signal Z cell and of the
      X-basis aggregate must reach (32/3) ln(2/eps) and 3 ln(1/eps), or
      the concentration argument does not hold and the point is rate 0;
    - the Hoeffding bounds n_Z1, n_X1 = mean - g and m_X1 = mean + g on
      the channel model's (1,1) means, g = sqrt(2 x ln(1/eps));
    - for smb2 (ev.x_derived), the preparation populations N-_Z1 = 2 a_s
      e^{-2 a_s} N_{z,ss} - g and N+_X1 = sum of (a+b) e^{-a-b} N_{x,ab}
      + g, each Poisson weight read from the channel's one_photon
      (cell 0 is 2 a_s e^{-2 a_s}) and multiplied by its cell's pulses,
      and the transfer n_Z1 = n_X1 N-_Z1/N+_X1 - gamma_count;
    - the Serfling step e_Z1 = min(ceil(raw m_Z1), n_Z1) / n_Z1.

    tests/reference_chain.py keeps the chain as its separate layers, the
    bit-identical reference for this pass. The reasons are checked in the
    order of the chain: a failed gate or a zero decoy bound, the
    population bounds and the transfer (smb2), n_X1 < 1 (the Serfling
    step needs an X sample of at least one), then an empty error test.
    """
    n = n_pulses
    channel = ev.channel
    log_inv = ev.log_inv_sf
    y0, y1, y2, y3, y4, y5, y6, y7, y8 = channel.cell_yield
    z0, z1, z2, z3, z4, z5, z6, z7, z8 = channel.frac_z
    x0, x1, x2, x3, x4, x5, x6, x7, x8 = channel.frac_x
    pulses_z0 = n * z0
    z_signal = pulses_z0 * y0
    z_total = (((z_signal + n * z1 * y1) + (n * z2 * y2 + n * z3 * y3))
               + ((n * z4 * y4 + n * z5 * y5) + (n * z6 * y6 + n * z7 * y7))) + n * z8 * y8
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = (n * x0, n * x1, n * x2, n * x3, n * x4,
                                          n * x5, n * x6, n * x7, n * x8)
    x_total = (((p0 * y0 + p1 * y1) + (p2 * y2 + p3 * y3))
               + ((p4 * y4 + p5 * y5) + (p6 * y6 + p7 * y7))) + p8 * y8
    # both gate conditions at once; the threshold is positive, so an
    # exposure that passes it is positive too
    threshold = ev.gate
    if not (z_signal - math.sqrt(z_total / 2.0 * log_inv) >= threshold
            and x_total - math.sqrt(x_total / 2.0 * log_inv) >= threshold):
        return "decoy validity gate failed"
    w0, w1, w2, w3, w4, w5, w6, w7, w8 = channel.pair11
    y11 = channel.y11
    s0, s1, s2, s3, s4, s5, s6, s7, s8 = (
        p0 * w0 * y11, p1 * w1 * y11, p2 * w2 * y11, p3 * w3 * y11, p4 * w4 * y11,
        p5 * w5 * y11, p6 * w6 * y11, p7 * w7 * y11, p8 * w8 * y11)
    s11_z = pulses_z0 * w0 * y11
    s11_x = (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + s8
    n_z1 = s11_z - math.sqrt(2.0 * s11_z * log_inv)
    n_x1 = s11_x - math.sqrt(2.0 * s11_x * log_inv)
    if n_x1 <= 0 or n_z1 <= 0:
        return "decoy validity gate failed"
    e11 = channel.e11
    e11_x = (((s0 * e11 + s1 * e11) + (s2 * e11 + s3 * e11))
             + ((s4 * e11 + s5 * e11) + (s6 * e11 + s7 * e11))) + s8 * e11
    m_x1 = e11_x + math.sqrt(2.0 * e11_x * log_inv)
    if ev.x_derived:
        one_photon = channel.one_photon
        pop_lo = one_photon[0] * pulses_z0 - math.sqrt(2.0 * pulses_z0 * log_inv)
        pop_hi = 0.0
        for c, p in zip(one_photon, (p0, p1, p2, p3, p4, p5, p6, p7, p8)):
            pop_hi += c * p + math.sqrt(2.0 * p * log_inv)
        if pop_lo <= 0 or pop_hi < 1:
            return "single-photon population bound non-positive"
        n_z1 = n_x1 * (pop_lo / pop_hi) - math.sqrt(
            (pop_lo + 1.0) * (pop_lo + pop_hi) * log_inv / (2.0 * pop_hi))
        if n_z1 <= 0:
            return "x-derived signal-basis single-photon bound is zero"
    if n_x1 < 1:
        return "x-basis single-photon bound below one"
    e_z1 = min(float(math.ceil(_raw_m_z1(n_z1, n_x1, m_x1, log_inv))), n_z1) / n_z1
    r_test = channel.r_test
    n_test = r_test * z_signal
    if n_test < 1:
        return "error-test sample is empty"
    # positional, in _Pipeline's field order
    return _Pipeline(n_z1, n_x1, m_x1, e_z1, z_signal, n_test, (1.0 - r_test) * z_signal,
                     pulses_z0 * channel.cell_err[0] / z_signal, ev)


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
    return _gallop_down(lambda n: rate(n) <= floor, lo, hi)


def _even_floor(x: float) -> int:
    n = int(x)
    return n - (n % 2)


def _infeasible(ev: _Evaluation, reason: str) -> RateResult:
    params = ev.params
    return RateResult(model=ev.model, distance_km=params.distance_km,
                      n_pulses=params.n_pulses, feasible=False,
                      config=ev.cfg, reason=reason)


def _run_smb(ev: _Evaluation, floor: float) -> RateResult:
    """smb1 (direct) or smb2 (x-derived) rate: the smallest feasible even L.

    Without a floor the solve reads the pipeline's margin_at (regula
    falsi on it). A positive floor turns into a half-length stop: only L
    below 2 * stop gives a rate above the floor, so the solve starts at
    the largest such L and searches down from it, and returns None at
    once when that L is infeasible. Every length probe goes through
    solve_signature_length.
    """
    n_pulses = ev.params.n_pulses
    pipe = _build_pipeline(ev, n_pulses)
    if isinstance(pipe, str):
        return _infeasible(ev, pipe)
    n_pool = pipe.n_pool
    l_max = _even_floor(n_pool / 2.0)
    stop = _rate_stop(lambda k: signed_bits(n_pool, 2 * k) / n_pulses, floor, l_max // 2)
    length = solve_signature_length(pipe.margin_at, l_max, stop=stop)
    if length is None:
        reason = "no feasible signature length" if stop is None else FLOOR_REASON
        return _infeasible(ev, reason)
    n_bits = signed_bits(n_pool, length)
    return pipe.outcome_at(length, n_bits / n_pulses, n_bits)


def run_smb1(params: SystemParams, cfg: IntensityConfig,
             budget: SecurityBudget | None = None, floor: float = 0.0) -> RateResult:
    """Sign-multiple-bits rate with direct signal-basis estimation.

    The signature length is the smallest even L the solver accepts, so
    the result depends on the inputs alone. floor is as in run_model.
    """
    return _run_smb(_evaluation("smb1", params, cfg, budget), floor)


def run_smb2(params: SystemParams, cfg: IntensityConfig,
             budget: SecurityBudget | None = None, floor: float = 0.0) -> RateResult:
    """Sign-multiple-bits rate with X-basis-derived signal estimation.

    floor is as in run_model.
    """
    return _run_smb(_evaluation("smb2", params, cfg, budget), floor)


def _sob_block(ev: _Evaluation, n_s: int) -> tuple[_Pipeline, int] | None:
    """Pipeline and L of one block of n_s pulse pairs, or None.

    None when the block fails a gate or cannot sign one bit securely.
    """
    pipe = _build_pipeline(ev, float(n_s))
    if isinstance(pipe, str):
        return None
    length = _even_floor(pipe.n_pool / 2.0)
    if length < 2 or not pipe.feasible_at(length):
        return None
    return pipe, length


def _sob_relaxed(ev: _Evaluation, n: int, optimistic: bool) -> bool:
    """Relaxed block probe, monotone in n: Q(n) if optimistic, else R(n).

    The optimistic Q is true wherever _sob_block(n) is: it builds the
    block n' = ceil(n (1 + eta)), drops the ceil from m_Z1 (e_Z1 =
    min(raw, n_Z1) / n_Z1) and probes the float length L = n_pool / 2
    instead of its even floor. So Q(m) false shows that no block n <= m
    is feasible.

    The pessimistic R is its mirror, true only where _sob_block(n) is:
    it builds n' = floor(n (1 - eta)), takes e_Z1 = min(raw + 1, n_Z1) /
    n_Z1 (at least the ceil's) and probes L = n_pool / 2 - 2 (at most
    the even floor). So R(m) true shows that every block n >= m is
    feasible.

    Three facts carry both:

    - at a fixed pipeline, feasibility is monotone in L (the smb
      argument in solve_signature_length), so L = n_pool / 2 admits
      whatever its even floor admits, and its even floor whatever
      n_pool / 2 - 2 admits;
    - the chain is monotone in e_Z1 (e_L1 rises with it, and H2 with
      e_L1 below 1/2), so e_Z1 from raw admits what the ceil admits,
      and the ceil what raw + 1 admits;
    - with raw or raw + 1 in place of the ceil and with a continuous L,
      the chain is monotone in n in exact arithmetic: the counts are
      linear in n, m_X1/n_X1, the Serfling terms and 1/n_Z1 fall, n_L1/L
      rises and p_E rises, and the decoy gates, once passed, stay passed.

    Feasibility of the relaxed chain at n therefore holds at n' with
    slack of order eta in every margin, far above the float error of the
    chain, so rounding cannot turn Q false there or R true where the
    block is infeasible. Every build goes through _build_pipeline.
    """
    if optimistic:
        size, extra, shrink = math.ceil(n * (1.0 + _SOB_RELAX_ETA)), 0.0, 0.0
    else:
        size, extra, shrink = math.floor(n * (1.0 - _SOB_RELAX_ETA)), 1.0, 2.0
    pipe = _build_pipeline(ev, float(size))
    if isinstance(pipe, str):
        return False
    length = pipe.n_pool / 2.0 - shrink
    if length < 2.0:
        return False
    n_z1 = pipe.n_z1  # positive: the decoy gates passed
    raw = _raw_m_z1(n_z1, pipe.n_x1, pipe.m_x1, ev.log_inv_sf)
    e_z1 = min(raw + extra, n_z1) / n_z1
    return pipe._replace(e_z1=e_z1).feasible_at(length)


def run_sob(params: SystemParams, cfg: IntensityConfig,
            budget: SecurityBudget | None = None, floor: float = 0.0) -> RateResult:
    """Sign-one-bit rate: a self-sufficient block of N_s pulse pairs.

    Within one block the whole key pool backs the single bit (L =
    n_pool/2 per message value). The block size comes from a bracketing
    bisection (smallest_feasible), started at a fixed size, so the result
    does not depend on the total pulse count N once N reaches the top of
    the geometric bracket around the found
    block. Below that top the cap N cuts the bracket short, and the
    bisection can land on another transition: at the optimizer's
    REFERENCE_VECTOR, 25 km, N = 1e10 gives N_s = 4,817,187,104, while
    every N from 1.41e10 up gives 4,817,270,209 (bracket top 1.72e10).
    N_s is feasible and N_s - 1 is not, but since sob feasibility is not
    monotone in single pulses (see the module docstring) a smaller
    feasible block may exist. floor is as in run_model.

    With a stop, the relaxed probes (_sob_relaxed) run first. The
    optimistic Q false at stop - 1 shows that no block below the stop is
    feasible, and the result is FLOOR_REASON at once; false at
    (stop - 1)(1 - delta), it answers the search's probes up to there
    without building them. The pessimistic R true at stop (1 + delta')
    answers the probes from there up, the cap's included, as feasible
    without building them: the search never returns a size at or above
    its stop, so it needs none of those blocks. Either way the search
    makes the same decisions as without the probes.
    """
    ev = _evaluation("sob", params, cfg, budget)
    last_block: tuple[_Pipeline, int] | None = None  # of the last size built feasible
    cap = int(params.n_pulses)
    known_infeasible = 0  # every block up to this size is infeasible
    known_feasible = cap + 1  # every block from this size up is feasible

    def block_feasible(n: int) -> bool:
        nonlocal last_block
        if n <= known_infeasible:
            return False
        if n >= known_feasible:
            return True
        block = _sob_block(ev, n)
        if block is None:
            return False
        last_block = block
        return True

    stop = _rate_stop(lambda n: 1.0 / n, floor, cap)
    if stop is not None:  # stop <= cap; a block of 0 pulses fails the decoy gates
        if not _sob_relaxed(ev, stop - 1, True):
            return _infeasible(ev, FLOOR_REASON)
        n_lo = int((stop - 1) * (1.0 - _SOB_PREFIX_DELTA))
        if not _sob_relaxed(ev, n_lo, True):
            known_infeasible = n_lo
        n_hi = math.ceil(stop * (1.0 + _SOB_SUFFIX_DELTA))
        if n_hi <= cap and _sob_relaxed(ev, n_hi, False):
            known_feasible = n_hi
    # the search's answer is the last size it probed feasible (a feasible
    # probe lowers the bracket's top), and it lies below any stop, so below
    # known_feasible: the last block built is the answer's
    n_s = smallest_feasible(block_feasible, _SOB_BRACKET_START, cap, stop)
    if n_s is None:
        reason = "no feasible block size" if stop is None else FLOOR_REASON
        return _infeasible(ev, reason)
    pipe, length = last_block
    return pipe.outcome_at(length, 1.0 / n_s, params.n_pulses / n_s, n_s)


def run_model(model: str, params: SystemParams, cfg: IntensityConfig,
              budget: SecurityBudget | None = None, floor: float = 0.0) -> RateResult:
    """Dispatch by model name ('sob', 'smb1' or 'smb2').

    A budget of None spends SecurityBudget(), the default security level.

    floor is a rate the caller already holds. Where the result's rate
    exceeds it, the result is exactly that of floor 0. Otherwise the
    result may instead be infeasible, with rate 0 and reason
    FLOOR_REASON: the N_s or L search stops once every size it has
    left gives a rate <= floor. The default 0 never stops.

    For sob the floored search makes a prefix of the unfloored search's
    decisions. Some of them it takes from the relaxed block probes
    instead of building the block: the optimistic one answers False only
    where the block is infeasible, because it admits every feasible block
    and is monotone in N_s; the pessimistic one answers True only where
    the block is feasible, because it admits no infeasible block and is
    monotone too (see _sob_relaxed; tests/test_models.py checks these
    properties over seeded configurations). For smb1/smb2 the
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
