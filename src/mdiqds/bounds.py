"""Binary entropy and concentration-bound deviation terms.

Scalar building blocks for the finite-size analysis: the binary Shannon
entropy and its inverse, plus every tail-bound deviation used by the
estimation chain (Hoeffding fluctuations for sums of independent terms,
Serfling-type deviations for sampling without replacement, and the
error-test penalty that transfers a test-sample error rate onto the kept
half of a signature block).

All functions are pure, deterministic and safe for concurrent use.

References
----------
- Hoeffding, W. (1963). Probability inequalities for sums of bounded
  random variables. JASA 58, 13-30.
- Serfling, R. J. (1974). Probability inequalities for the sum in
  sampling without replacement. Ann. Statist. 2, 39-48.
"""
from __future__ import annotations

import math

__all__ = [
    "binary_entropy",
    "inverse_binary_entropy",
    "hoeffding_delta",
    "serfling_fraction_gamma",
    "serfling_count_gamma",
    "sampling_lambda",
    "test_sample_penalty",
]

# The inverse of H2 is defined as the midpoint of the bracket left by
# bisecting [0, 0.5] until it is no wider than _INV_H2_TOL: 43 halvings,
# so the final bracket is dyadic with width _INV_H2_WIDTH.
_INV_H2_TOL = 1e-13
_INV_H2_WIDTH = 0.5 / 2**43
# Above this entropy H2 is too flat near its root for float H2 to be
# monotone at the scale of one bracket, so Newton could confirm a bracket
# the bisection would not reach; those inputs bisect.
_INV_H2_NEWTON_MAX = 0.9999
_INV_H2_NEWTON_STEPS = 16
_LN4 = math.log(4.0)


def _check_failure_prob(eps: float, name: str = "eps") -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {eps}")


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy H2(x) = -x*log2(x) - (1-x)*log2(1-x).

    Endpoints return 0 exactly (limit convention).

    Raises
    ------
    ValueError
        If x is outside [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x}")
    return _h2(x)


def _h2(x: float) -> float:
    """H2(x) for x already known to lie in [0, 1]."""
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def inverse_binary_entropy(h: float) -> float:
    """Unique p in [0, 0.5] with binary_entropy(p) == h.

    The result is defined by bisection on [0, 0.5] (H2 is strictly
    increasing there): halve until the bracket is no wider than 1e-13,
    then return its midpoint, so the absolute error is below 1e-13.

    The same bracket is found faster by Newton's method. Started left of
    the root (Topsoe's bound H2(p) <= (4p(1-p))^(1/ln 4) gives the start)
    the iterates rise monotonically, because H2 is concave. Once a step
    is below a quarter of the final bracket width, the iterate is snapped
    to that dyadic bracket [a, a + w], which is accepted only if
    H2(a) < h <= H2(a + w). For h <= 0.9999 float H2 is monotone across
    brackets near the root, so only one bracket passes that check, and
    it is the one the bisection ends in. A rejected bracket, or
    h > 0.9999, falls back to the bisection.

    Raises
    ------
    ValueError
        If h is outside [0, 1].
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"inverse_binary_entropy argument must be in [0, 1], got {h}")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    w = _INV_H2_WIDTH
    if h <= _INV_H2_NEWTON_MAX:
        # (1 - sqrt(1 - x)) / 2 without cancellation; the floor keeps
        # log2 finite when x underflows
        x = h ** _LN4
        p = max(x / (2.0 * (1.0 + math.sqrt(1.0 - x))), 1e-300)
        for _ in range(_INV_H2_NEWTON_STEPS):
            log_p, log_q = math.log2(p), math.log2(1.0 - p)
            step = (-p * log_p - (1.0 - p) * log_q - h) / (log_q - log_p)
            p -= step
            if not 0.0 < p < 0.5:
                break
            if abs(step) <= 0.25 * w:
                a = math.floor(p / w) * w
                if _h2(a) < h <= _h2(a + w):
                    return 0.5 * (a + (a + w))
                break
    lo, hi = 0.0, 0.5
    while hi - lo > _INV_H2_TOL:
        mid = 0.5 * (lo + hi)
        if _h2(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hoeffding_delta(x: float, eps: float) -> float:
    """Hoeffding fluctuation g(x, eps) = sqrt(2*x*ln(1/eps)).

    Parameters
    ----------
    x : float
        Non-negative count (the mean of the tallied quantity).
    eps : float
        Failure probability of the bound, in (0, 1).
    """
    if x < 0:
        raise ValueError(f"count must be non-negative, got {x}")
    _check_failure_prob(eps)
    return math.sqrt(2.0 * x * math.log(1.0 / eps))


def serfling_fraction_gamma(x: float, y: float, eps: float) -> float:
    """Fractional Serfling deviation sqrt((x+1)*ln(1/eps) / (2*y*(x+y))).

    Bounds how far the fraction observed on a size-y sample (drawn
    without replacement from a population of x+y items) can sit from the
    population fraction, except with probability eps. Strictly
    decreasing in y for fixed x and eps.
    """
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if y < 1:
        raise ValueError(f"sample size y must be >= 1, got {y}")
    _check_failure_prob(eps)
    return math.sqrt((x + 1.0) * math.log(1.0 / eps) / (2.0 * y * (x + y)))


def serfling_count_gamma(x: float, y: float, eps: float) -> float:
    """Count-form Serfling deviation sqrt((x+1)*(x+y)*ln(1/eps)/(2*y)).

    Equals (x+y) * serfling_fraction_gamma(x, y, eps): the same tail
    bound expressed in counts on the unobserved part rather than as a
    fraction.
    """
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if y < 1:
        raise ValueError(f"sample size y must be >= 1, got {y}")
    _check_failure_prob(eps)
    return math.sqrt((x + 1.0) * (x + y) * math.log(1.0 / eps) / (2.0 * y))


def sampling_lambda(x: float, y: float, eps: float) -> float:
    """Serfling deviation for a size-y sample from a size-x population.

    Lambda(x, y, eps) = sqrt((x - y + 1) * y * ln(1/eps) / (2*x)),
    in count units on the sample. Valid for 1 <= y <= x.
    """
    if x <= 0:
        raise ValueError(f"population x must be positive, got {x}")
    if y < 1 or y > x:
        raise ValueError(f"sample size must satisfy 1 <= y <= x, got y={y}, x={x}")
    _check_failure_prob(eps)
    return math.sqrt((x - y + 1.0) * y * math.log(1.0 / eps) / (2.0 * x))


def test_sample_penalty(length: float, n_test: float, eps: float) -> float:
    """Additive error-rate penalty from an n_test-bit error test.

    Transfers the test-sample error rate to the kept half (length/2
    bits) of a signature block of the given length:

        (2/L) * sqrt((L/2 + 1)(L/2 + n_test) * ln(1/eps) / (2 * n_test))

    Strictly decreasing in n_test.
    """
    if length < 2:
        raise ValueError(f"block length must be >= 2, got {length}")
    if n_test < 1:
        raise ValueError(f"n_test must be >= 1, got {n_test}")
    _check_failure_prob(eps)
    half = length / 2.0
    return (2.0 / length) * math.sqrt(
        (half + 1.0) * (half + n_test) * math.log(1.0 / eps) / (2.0 * n_test)
    )
