"""Desk-scale Monte Carlo of the messaging stage and the tail bounds.

Two families of experiments:

* Messaging-stage simulators. Honest runs draw mismatch patterns at a
  given error rate and count aborts against the authentication
  threshold. The repudiation simulator plays a malicious signer who
  plants mismatches in both recipients' strings and relies on the
  random half-exchange to skew the two views apart; the forging
  simulator plays a recipient who must guess the kept half at error
  rate p_E. Signature strings are modeled as disjoint freshly drawn
  blocks of key material.

* Coverage tests for the deviation functions: each bound id maps to the
  random experiment its inequality speaks about (Poisson tallies for the
  Hoeffding fluctuation, hypergeometric draws for the
  without-replacement bounds) and counts how often the one-sided bound
  is violated. The violation frequency must stay at or below the bound's
  failure probability; these runs use inflated eps values (1e-2 to 1e-3)
  because violations at 1e-12 are unobservable at desk scale. A
  hypergeometric experiment is drawn once into a histogram of its
  outcomes, which the ids that share it (``serfling_fraction``,
  ``serfling_count`` and ``sampling_lambda``) count their violations on.

The repudiation simulator runs one batch, at the mismatch count m whose
exact success probability is largest. The signer succeeds when the
difference d = h_bb - h_cc of the two recipients' kept counts is below
both(m) = min(t_a - m, m + 1 - t_v), where t_a and t_v are the least
counts whose fractions of L reach s_a and s_v. Going from m to m + 1
planted mismatches can be coupled so that each kept count gains 0 or 1,
so d moves by at most one. both(m) rises by one per step up to the
crossing c = (t_a + t_v - 1) // 2 and falls by one per step from c + 1
on, so the success probability cannot fall before c nor rise after
c + 1: the largest is at c or c + 1, near L(s_a + s_v)/2. Exact tail
sums over the hypergeometric pmf compare the two, with no loop over all
L + 1 counts, and a tie goes to c. The sums are plain floats: below
about 1e-300 they read 0.

Each check draws from ``default_rng(seed)``, except that the repudiation
batch draws each recipient's half from its own spawned child of
``seed``. Draws are made and counted in chunks of a fixed size, and each
generator's chunks join up to its own one-shot draw of all trials, so a
check's memory does not grow with the number of trials. Every check
rejects more than 1e8 trials before it draws.

Since every check draws from generators of its own, checks are
independent jobs: ``run_jobs`` runs them side by side on the usable
CPUs (numpy releases the interpreter lock while it samples) and returns
their results in a fixed order, so a report built from them is
byte-identical at any CPU count. On one CPU it runs them in order on
the calling thread.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bounds import (
    hoeffding_delta,
    sampling_lambda,
    serfling_count_gamma,
    serfling_fraction_gamma,
    test_sample_penalty,
)

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator, Sequence

    import numpy as np

__all__ = [
    "BOUND_IDS",
    "SHARED_DRAW_IDS",
    "TrialStats",
    "KeyMaterial",
    "make_key_material",
    "recipient_mismatches",
    "wilson_upper",
    "simulate_honest",
    "simulate_repudiation",
    "simulate_forging",
    "validate_bound",
    "run_jobs",
]

BOUND_IDS = ("hoeffding", "serfling_fraction", "serfling_count",
             "sampling_lambda", "eq3_penalty")
# The ids whose checks count one hypergeometric draw (see validate_bound)
SHARED_DRAW_IDS = ("serfling_fraction", "serfling_count", "sampling_lambda")

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_CHUNK = 8_192  # trials drawn and counted at a time
_MAX_TRIALS = 10**8  # --trials comes from outside: bound the time one check may take


def wilson_upper(successes: int, trials: int) -> float:
    """Wilson score 99% upper confidence limit for a binomial proportion."""
    if trials <= 0:
        return 1.0
    p_hat = successes / trials
    denom = 1.0 + _Z99 * _Z99 / trials
    center = p_hat + _Z99 * _Z99 / (2.0 * trials)
    half = _Z99 * math.sqrt(p_hat * (1.0 - p_hat) / trials
                            + _Z99 * _Z99 / (4.0 * trials * trials))
    return min((center + half) / denom, 1.0)


@dataclass(frozen=True)
class TrialStats:
    """Outcome counts of one Monte Carlo batch."""

    label: str
    trials: int
    successes: int
    frequency: float
    wilson99_upper: float
    bound: float
    seed: int
    detail: dict


def _check_trials(trials: int) -> None:
    # a frequency needs at least one trial
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # checked before any draw
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials must be <= {_MAX_TRIALS}, got {trials}")


def _chunks(trials: int) -> Iterator[int]:
    """Sizes of consecutive chunks of at most _CHUNK trials that sum to trials."""
    for start in range(0, trials, _CHUNK):
        yield min(_CHUNK, trials - start)


def _count(trials: int, draw: Callable[[int], np.ndarray],
           hit: Callable[[np.ndarray], np.ndarray]) -> int:
    """How many of ``trials`` draws ``hit`` marks, drawn _CHUNK at a time.

    A generator's draws of n values and then m values are its one draw
    of n + m values, so the count is that of one draw of all trials from
    each generator ``draw`` uses.
    """
    return sum(int(hit(draw(size)).sum()) for size in _chunks(trials))


def _stats(label: str, trials: int, successes: int, bound: float, seed: int,
           detail: dict) -> TrialStats:
    return TrialStats(label=label, trials=trials, successes=int(successes),
                      frequency=successes / trials,
                      wilson99_upper=wilson_upper(int(successes), trials),
                      bound=bound, seed=seed, detail=detail)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def run_jobs(jobs: Sequence[Callable[[], object]]) -> list:
    """The results of ``jobs``, in their order, run side by side.

    min(len(jobs), usable CPUs) threads, the calling thread one of them,
    pull the jobs from one queue in their order, so with one CPU no
    thread starts and the jobs run in order on the calling thread. Every
    helper thread is joined before this returns or raises. Once a job
    raises, no job that has not started runs; the first exception in
    the jobs' order is re-raised as it is.
    """
    results: list = [None] * len(jobs)
    failed: dict[int, BaseException] = {}
    lock = threading.Lock()
    queue = iter(range(len(jobs)))

    def work() -> None:
        while True:
            with lock:
                index = None if failed else next(queue, None)
            if index is None:
                return
            try:
                results[index] = jobs[index]()
            except BaseException as exc:  # re-raised on the calling thread
                with lock:
                    failed[index] = exc
                return

    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(min(len(jobs), _usable_cpus()) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]
    return results


# ---------------------------------------------------------------------------
# messaging stage


@dataclass(frozen=True)
class KeyMaterial:
    """One message value's signature and recipient strings.

    sig_b/sig_c are the signer's strings, key_b/key_c the recipients'
    correlated copies; keep_b/keep_c mark the random halves each
    recipient keeps, the complements being forwarded to the other
    recipient during symmetrization.
    """

    sig_b: np.ndarray
    sig_c: np.ndarray
    key_b: np.ndarray
    key_c: np.ndarray
    keep_b: np.ndarray
    keep_c: np.ndarray

    def __post_init__(self) -> None:
        length = self.sig_b.size
        if not (self.sig_c.size == self.key_b.size == self.key_c.size == length):
            raise ValueError("all strings must share one length")
        if not (self.keep_b.size == self.keep_c.size == length
                and self.keep_b.sum() == self.keep_c.sum() == length // 2):
            raise ValueError("each recipient must keep exactly half of its string")


def make_key_material(rng: np.random.Generator, length: int,
                      mismatches_b: int = 0, mismatches_c: int = 0) -> KeyMaterial:
    """Draw signature/key strings with planted mismatch counts.

    The signer's strings are uniform; each recipient string differs from
    the corresponding signature string at exactly the requested number
    of uniformly placed positions. Keep masks select a uniform random
    half per recipient.
    """
    import numpy as np
    if length % 2:
        raise ValueError(f"length must be even, got {length}")
    sig_b = rng.integers(0, 2, length, dtype=np.int8)
    sig_c = rng.integers(0, 2, length, dtype=np.int8)
    key_b, key_c = sig_b.copy(), sig_c.copy()
    for key, count in ((key_b, mismatches_b), (key_c, mismatches_c)):
        key[rng.choice(length, size=count, replace=False)] ^= 1
    keep_b, keep_c = np.zeros((2, length), dtype=bool)
    for keep in (keep_b, keep_c):
        keep[rng.choice(length, size=length // 2, replace=False)] = True
    return KeyMaterial(sig_b, sig_c, key_b, key_c, keep_b, keep_c)


def recipient_mismatches(km: KeyMaterial) -> tuple[int, int]:
    """Mismatch counts seen by each recipient after symmetrization.

    A recipient's symmetrized string holds its own kept half plus the
    half forwarded by the other recipient, so both views have full
    length and jointly cover every planted mismatch exactly once.
    """
    diff_b = km.key_b != km.sig_b
    diff_c = km.key_c != km.sig_c
    bob = int(diff_b[km.keep_b].sum() + diff_c[~km.keep_c].sum())
    charlie = int(diff_c[km.keep_c].sum() + diff_b[~km.keep_b].sum())
    return bob, charlie


def _check_length(length: int) -> None:
    # below 2 the forger's unknown half L // 2 is empty: its frequency is 0/0
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def simulate_honest(length: int, error_rate: float, s_a: float,
                    trials: int, seed: int = 0) -> TrialStats:
    """Abort frequency of honest runs at a given channel error rate.

    Each trial draws a length-bit mismatch pattern at the given rate;
    the run aborts when the mismatch fraction reaches s_a. The attached
    bound is the Hoeffding tail exp(-2 L (s_a - rate)^2) when the rate
    sits below the threshold.
    """
    _check_trials(trials)
    _check_length(length)
    _check_rate("error_rate", error_rate)
    _check_rate("s_a", s_a)
    import numpy as np
    rng = np.random.default_rng(seed)
    abort = _threshold(length, s_a)  # k / length >= s_a  <=>  k >= abort
    aborts = _count(trials, lambda n: rng.binomial(length, error_rate, n), lambda k: k >= abort)
    bound = math.exp(-2.0 * length * (s_a - error_rate) ** 2) if error_rate < s_a else 1.0
    return _stats("honest-abort", trials, aborts, bound, seed,
                  {"length": length, "error_rate": error_rate, "s_a": s_a})


def _threshold(length: int, share: float) -> int:
    """Least k in [0, length] with ``k / length >= share``, or length + 1.

    A correctly rounded k / length never decreases as k grows, so a count
    k passes that float test exactly when it is at least the threshold.
    """
    return bisect.bisect_left(range(length + 1), True, key=lambda k: k / length >= share)


def _success_limit(length: int, mismatches: int, s_a: float, s_v: float) -> int:
    """The d = h_bb - h_cc below which a signer who plants ``mismatches``
    in each string repudiates: bob sees mismatches + d and accepts,
    charlie sees mismatches - d and rejects. As a function of the count
    it is the tent min(t_a - m, m + 1 - t_v) of the module docstring."""
    # bob / length < s_a  <=>  d < accept;  charlie / length >= s_v  <=>  d < reject
    accept = _threshold(length, s_a) - mismatches
    reject = mismatches + 1 - _threshold(length, s_v)
    return min(accept, reject)


def _repudiation_batch(rng_b: np.random.Generator, rng_c: np.random.Generator,
                       length: int, mismatches: int, s_a: float, s_v: float,
                       trials: int) -> int:
    """Repudiation successes at one mismatch count.

    The mismatches each recipient keeps are a hypergeometric draw of its
    half, the two strings' halves drawn independently: the counts
    recipient_mismatches takes from the bits of make_key_material.
    h_bb comes from rng_b and h_cc from rng_c, so each generator's
    chunks join up to its own one-shot draw. Success is one comparison
    of d = h_bb - h_cc with an integer threshold.
    """
    both = _success_limit(length, mismatches, s_a, s_v)
    draw = (mismatches, length - mismatches, length // 2)
    return _count(trials, lambda n: rng_b.hypergeometric(*draw, n) - rng_c.hypergeometric(*draw, n),
                  lambda d: d < both)


def _repudiation_probability(length: int, mismatches: int, s_a: float, s_v: float) -> float:
    """Exact success probability of _repudiation_batch, in plain floats.

    Each kept count has the hypergeometric pmf p of ``mismatches``
    marked bits among length // 2 drawn from length; with F its cdf,
    P(d < both) is the sum over j of p(j) F(j + both - 1), and both <= 0
    as s_a < s_v. p is built outward from its mode by the ratio
    recurrence, stops below 1e-300 of the mode, so it holds O(sqrt(L))
    terms, and is normalised by their sum.
    """
    draws, rest = length // 2, length - mismatches

    def ratio(k: int) -> float:  # p(k + 1) / p(k)
        return (mismatches - k) * (draws - k) / ((k + 1) * (rest - draws + k + 1))

    mode = (draws + 1) * (mismatches + 1) // (length + 2)
    up, down = [1.0], [1.0]
    while mode + len(up) - 1 < min(mismatches, draws) and up[-1] >= 1e-300:
        up.append(up[-1] * ratio(mode + len(up) - 1))
    while mode - len(down) + 1 > max(0, draws - rest) and down[-1] >= 1e-300:
        down.append(down[-1] / ratio(mode - len(down)))
    pmf = down[:0:-1] + up  # lowest count first, 1 at the mode
    both = _success_limit(length, mismatches, s_a, s_v)
    return sum(map(operator.mul, pmf[1 - both:], itertools.accumulate(pmf))) / sum(pmf) ** 2


def simulate_repudiation(length: int, s_a: float, s_v: float, trials: int,
                         seed: int = 0) -> TrialStats:
    """Repudiation success frequency of a mismatch-planting signer.

    Success means the first recipient accepts (fraction < s_a) while the
    second rejects the forwarded message (fraction >= s_v). One batch
    runs, at the per-string mismatch count whose exact success
    probability is largest: one of the two counts at the top of the
    threshold's tent (see the module docstring), the lower one on a
    tie. No loop runs over every count. The recipients' halves are
    drawn from spawned children 0 and 1 of ``seed``. The attached bound
    is 2*exp(-(1/4)(s_v-s_a)^2 L); ``detail`` holds the count and its
    exact probability.
    """
    _check_trials(trials)
    _check_length(length)
    if not 0.0 <= s_a < s_v <= 1.0:
        raise ValueError(f"need 0 <= s_a < s_v <= 1, got s_a={s_a}, s_v={s_v}")
    bound = 2.0 * math.exp(-0.25 * (s_v - s_a) ** 2 * length)
    # where _success_limit's tent min(t_a - m, m + 1 - t_v) peaks
    cross = (_threshold(length, s_a) + _threshold(length, s_v) - 1) // 2
    # max keeps the first of equal probabilities, so ties go to the lower m
    m, exact = max(((m, _repudiation_probability(length, m, s_a, s_v))
                    for m in (cross, cross + 1)), key=lambda run: run[1])
    import numpy as np
    rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    successes = _repudiation_batch(*rngs, length, m, s_a, s_v, trials)
    return _stats("repudiation", trials, successes, bound, seed,
                  {"mismatches": m, "exact": exact, "length": length, "s_a": s_a, "s_v": s_v})


def simulate_forging(length: int, p_e: float, s_v: float, trials: int,
                     seed: int = 0) -> TrialStats:
    """Forging success frequency at forced error rate p_e.

    The forger errs independently at rate p_e on the unknown L/2 half
    and wins when the error fraction on that half stays below s_v. The
    attached bound is the Hoeffding tail exp(-2 (L/2) (p_e - s_v)^2)
    when p_e exceeds s_v (vacuous bound 1 otherwise).
    """
    _check_trials(trials)
    _check_length(length)
    _check_rate("p_e", p_e)
    _check_rate("s_v", s_v)
    import numpy as np
    rng = np.random.default_rng(seed)
    half = length // 2
    caught = _threshold(half, s_v)  # k / half < s_v  <=>  k < caught
    successes = _count(trials, lambda n: rng.binomial(half, p_e, size=n), lambda k: k < caught)
    gap = p_e - s_v
    bound = math.exp(-2.0 * half * gap * gap) if gap > 0 else 1.0
    return _stats("forging", trials, successes, bound, seed,
                  {"length": length, "p_e": p_e, "s_v": s_v})


# ---------------------------------------------------------------------------
# coverage of the deviation functions


def _draw_outcomes(experiment: tuple[int, int, int], trials: int,
                   seed: int) -> np.ndarray:
    """How often each count 0..sample comes up in ``trials`` hypergeometric
    draws of ``experiment`` = (marked, unmarked, sample) from
    ``default_rng(seed)``, drawn _CHUNK at a time."""
    import numpy as np
    marked, unmarked, sample = experiment
    rng = np.random.default_rng(seed)
    outcomes = np.zeros(sample + 1, dtype=np.int64)
    for size in _chunks(trials):
        draw = rng.hypergeometric(marked, unmarked, sample, size)
        outcomes += np.bincount(draw, minlength=sample + 1)
    return outcomes


def validate_bound(bound: str, eps: float, trials: int, seed: int = 0,
                   population: int = 100_000, sample: int = 1_000,
                   drawn: dict | None = None) -> TrialStats:
    """Empirical violation frequency of one deviation bound.

    Each bound id maps to the experiment its inequality describes, with
    a worst-case-variance half-marked population:

    - ``hoeffding``: Poisson tally with mean ``population``; violation
      when the draw falls below mean - g(mean, eps).
    - ``serfling_fraction``: sample of ``sample`` items from
      ``population``; violation when the sample fraction exceeds the
      population fraction by more than the fractional deviation.
    - ``serfling_count``: same draw; violation when the unobserved
      part's count falls below its proportional estimate minus the
      count-form deviation.
    - ``sampling_lambda``: same draw; violation when the sampled count
      falls below the proportional share minus the sample deviation.
    - ``eq3_penalty``: error test with ``sample`` test bits against a
      kept half of ``population``/2 bits; violation when the kept-half
      error rate exceeds the test rate plus the penalty.

    The violation frequency is expected at or below eps in every case.
    A hypergeometric id counts the outcomes 0..``sample`` its inequality
    marks on a histogram of one chunked draw. ``drawn`` holds those
    histograms, keyed by (experiment, trials, seed), for the calls that
    pass the same dict: ``serfling_fraction``, ``serfling_count`` and
    ``sampling_lambda`` share one experiment (``sample`` items from
    ``population`` with half marked: 1,000 from 100,000 at the
    defaults), so one ``verify`` run draws it once, and their checks are
    not independent. With ``drawn`` omitted the call draws afresh.
    """
    _check_trials(trials)
    if eps < 1e-3:
        raise ValueError("coverage runs need eps >= 1e-3 to be measurable")
    import numpy as np
    detail = {"population": population, "sample": sample, "eps": eps}
    if bound == "hoeffding":
        rng = np.random.default_rng(seed)
        mean = float(population)
        lim = mean - hoeffding_delta(mean, eps)
        violations = _count(trials, lambda n: rng.poisson(mean, size=n),
                            lambda draws: draws < lim)
        return _stats(bound, trials, violations, eps, seed, detail)
    # each outcome k, as the int64 a draw holds, through the same comparison
    k = np.arange(sample + 1, dtype=np.int64)
    if bound in SHARED_DRAW_IDS:
        y = sample
        x = population - y
        marked = population // 2
        experiment = (marked, population - marked, y)
        if bound == "serfling_fraction":
            violated = k / y > marked / population + serfling_fraction_gamma(x, y, eps)
        elif bound == "serfling_count":
            violated = marked - k < x * k / y - serfling_count_gamma(x, y, eps)
        else:
            violated = k < y * marked / population - sampling_lambda(population, y, eps)
    elif bound == "eq3_penalty":
        # a kept half of population / 2 bits and a test of sample bits
        half = population // 2
        total = half + sample
        marked = total // 2
        experiment = (marked, total - marked, sample)
        violated = (marked - k) / half > k / sample + test_sample_penalty(population, sample, eps)
    else:
        raise ValueError(f"unknown bound id {bound!r}; expected one of {BOUND_IDS}")
    drawn = {} if drawn is None else drawn
    key = (experiment, trials, seed)
    if key not in drawn:
        drawn[key] = _draw_outcomes(experiment, trials, seed)
    violations = int(drawn[key][violated].sum())
    return _stats(bound, trials, violations, eps, seed, detail)
