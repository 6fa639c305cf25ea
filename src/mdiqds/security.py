"""Security layer: min-entropy, thresholds, failure bounds, block search.

Given the single-photon quantities projected onto one signature block,
this module evaluates the three protocol failure probabilities
(robustness, repudiation, forging), derives the acceptance/verification
thresholds from the forger's minimum error rate, and holds the searches
for the even block length meeting the target security level and for the
sign-one-bit model's self-sufficient block size. One bracketing
bisection (smallest_feasible) serves the block size and every length
solve without a stop. Where feasibility is monotone it returns the
smallest feasible size; where it is not (sob's block size, at the scale
of single pulses), it returns the bisection's transition: a feasible
size whose predecessor is infeasible. A length solve with a stop
searches down from the stop instead, which relies on feasibility being
monotone in L.

The forging bound's tail term p_F (the probability that a forger forced
to error rate at least p_E on the L/2 unknown bits still lands below the
verification threshold) is the Hoeffding tail
exp(-2 * (L/2) * (p_E - s_v)^2); it requires p_E > s_v, which the
threshold construction guarantees on feasible points.

With d = p_E - E_keep the thresholds sit at E_keep + d/3 and E_keep +
2d/3, so s_v - s_a = p_E - s_v = d/3 and the bounds depend on d alone:
P_rep <= epsilon iff d >= sqrt(36 ln(2/epsilon) / L), and P_forge <=
epsilon iff exp(-L d^2 / 9) <= epsilon - c, with c = g + eps_pe + eps_n
+ eps_e. The threshold order needs no check of its own once d > 0:
s_a > E_keep >= 0, s_a < s_v, and s_v = p_E - d/3 < p_E <= 1/2. That is
what lets models._Pipeline.feasible_at decide a length from H2 of the
least p_E that meets the bounds, without inverting H2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .bounds import inverse_binary_entropy

__all__ = [
    "SecurityBudget",
    "SecurityOutcome",
    "min_entropy",
    "eve_error_rate",
    "thresholds",
    "security_probabilities",
    "smallest_feasible",
    "solve_signature_length",
]


@dataclass(frozen=True)
class SecurityBudget:
    """Security level and per-component failure probabilities.

    epsilon is the overall target; eps_pe covers the error test, eps_sf
    every statistical-fluctuation term, and g_prob the residual forging
    term. Each component used by the estimation chain defaults to
    eps_sf.
    """

    epsilon: float = 1e-5
    eps_pe: float = 1e-12
    eps_sf: float = 1e-12
    g_prob: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("epsilon", "eps_pe", "eps_sf", "g_prob"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")


@dataclass(frozen=True)
class SecurityOutcome:
    """Security quantities evaluated at one block length."""

    length: int
    n_l1: float
    e_l1: float
    h_min: float
    p_e: float
    e_test: float
    e_keep: float
    s_a: float
    s_v: float
    p_robust: float
    p_repudiation: float
    p_forge: float
    thresholds_ok: bool
    feasible: bool


def min_entropy(n_l1: float, h_l1: float) -> float:
    """Single-photon min-entropy n_L1 * (1 - H2(e_L1)), floored at 0.

    h_l1 is H2(e_L1), the binary entropy of the kept block's
    single-photon error rate, which eve_error_rate reads too.
    """
    if not 0.0 <= h_l1 <= 1.0:
        raise ValueError(f"h_l1 must be in [0, 1], got {h_l1}")
    return max(n_l1 * (1.0 - h_l1), 0.0)


def eve_error_rate(n_l1: float, h_l1: float, length: float) -> float:
    """Minimum error rate p_E a forger must incur on the kept half.

    Solves H2(p_E) = 2 n_L1 / L * (1 - H2(e_L1)) for p_E in [0, 0.5],
    given h_l1 = H2(e_L1); the right-hand side is clamped to [0, 1],
    with 1 mapping to 0.5.
    """
    if length < 2:
        raise ValueError(f"block length must be >= 2, got {length}")
    rhs = 2.0 * n_l1 / length * (1.0 - h_l1)
    rhs = min(max(rhs, 0.0), 1.0)
    return inverse_binary_entropy(rhs)


def thresholds(e_keep: float, p_e: float) -> tuple[float, float, bool]:
    """Authentication/verification thresholds and their feasibility.

    s_a = E_keep + (p_E - E_keep)/3 and s_v = E_keep + 2(p_E - E_keep)/3.
    Feasible only when 0 < s_a < s_v < 1/2, which requires E_keep < p_E.
    """
    s_a = e_keep + (p_e - e_keep) / 3.0
    s_v = e_keep + 2.0 * (p_e - e_keep) / 3.0
    ok = 0.0 < s_a < s_v < 0.5
    return s_a, s_v, ok


def security_probabilities(s_a: float, s_v: float, length: float, p_e: float,
                           budget: SecurityBudget,
                           eps_n: float, eps_e: float) -> tuple[float, float, float]:
    """Robustness, repudiation and forging failure probabilities.

    Parameters
    ----------
    eps_n, eps_e : float
        Aggregate failure probabilities consumed estimating the kept
        block's single-photon count and error rate.

    Returns
    -------
    (P_robust, P_repudiation, P_forge) where
    P_robust = 2 eps_pe,
    P_repudiation = 2 exp(-(1/4)(s_v - s_a)^2 L) and
    P_forge = p_F + g + eps_pe + eps_n + eps_e with the Hoeffding tail
    p_F described in the module docstring (p_F = 1 when p_E <= s_v).
    """
    p_robust = 2.0 * budget.eps_pe
    p_repudiation = 2.0 * math.exp(-0.25 * (s_v - s_a) ** 2 * length)
    gap = p_e - s_v
    p_f = math.exp(-2.0 * (length / 2.0) * gap * gap) if gap > 0 else 1.0
    p_forge = p_f + budget.g_prob + budget.eps_pe + eps_n + eps_e
    return p_robust, p_repudiation, p_forge


def smallest_feasible(feasible: Callable[[int], bool], start: int, cap: int,
                      stop: int | None = None) -> int | None:
    """A feasible n in [1, cap] whose predecessor is infeasible, or None.

    The cap is probed first, so an infeasible search costs one probe; the
    bracket (lo, hi] then grows upward from start (>= 1) by factors of 4
    and a bisection closes it on an infeasible lo (or 0) and a feasible
    hi = lo + 1. A probe is whatever feasible answers: a floored sob
    evaluation answers the sizes its relaxed probes have decided, the
    cap among them, without building a block (models.run_sob). Under monotone feasibility that is the smallest feasible
    n; otherwise it is the transition this bisection lands on. It serves
    sob's block size, whose feasibility is not monotone, and the length
    solves that have no stop.

    The answer always lies in the bracket, so a search with a stop gives
    up, returning None, as soon as lo + 1 >= stop: every answer left is
    then >= stop. It makes the unstopped search's probes up to that
    point, in the same order, and returns the same answer when that
    answer is below stop.
    """
    if stop is None:
        stop = cap + 1  # every answer is at most cap
    if cap < 1 or stop <= 1 or not feasible(cap):
        return None
    lo, hi = 0, start  # lo: exclusive edge, treated as infeasible
    while hi < cap and not feasible(hi):
        lo, hi = hi, hi * 4
        if lo + 1 >= stop:
            return None
    return _bisect(feasible, lo, min(hi, cap), stop)


def _bisect(feasible: Callable[[int], bool], lo: int, hi: int, stop: int) -> int | None:
    """Close the bracket (lo, hi] with lo infeasible (or 0) and hi feasible.

    Returns the feasible n = lo + 1 the bisection ends on, or None as
    soon as lo + 1 >= stop.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
            if lo + 1 >= stop:
                return None
    return hi


def solve_signature_length(feasible_at: Callable[[int], bool], l_max: int, *,
                           stop: int | None = None) -> int | None:
    """Smallest even L in [2, l_max] accepted by feasible_at, or None.

    The search runs over the half-length k = L/2 and assumes feasibility
    monotone in L. The sign-multiple-bits pipelines have that property:
    their pool-level e_Z1 is fixed, so no ceil enters the L chain, and
    2 n_L1 / L = n_Z1/|Z| - 2 Lambda(|Z|, L/2) / L rises with L. Then
    e_L1 falls and p_E rises, E_keep falls and L (p_E - E_keep)^2
    rises, and P_rep and P_forge fall (tests/test_models.py checks this
    over seeded pipelines).

    Without a stop, smallest_feasible brackets upward from k = 1. A stop
    is a half-length: only k < stop is wanted, so the search probes
    h = min(l_max // 2, stop - 1) once and returns None when h is
    infeasible (or below 1): no length left can beat the floor behind
    the stop. Otherwise it gallops down from h in steps of 1, 2, 4, ...
    to the first infeasible probe (or 0) and bisects that short bracket.
    Under monotone feasibility both paths return the same L whenever
    k < stop, and the stopped one makes no probe at or above the stop.
    """
    def feasible(k: int) -> bool:
        return feasible_at(2 * k)

    if stop is None:
        k = smallest_feasible(feasible, 1, l_max // 2)
    else:
        k = min(l_max // 2, stop - 1)
        if k < 1 or not feasible(k):
            return None
        step = 1
        while k - step > 0 and feasible(k - step):
            k, step = k - step, 2 * step
        k = _bisect(feasible, max(0, k - step), k, stop)
    return None if k is None else 2 * k
