"""Security-layer tests: entropy bounds, thresholds, probabilities, solver."""
import math

import numpy as np
import pytest

from mdiqds import security
from mdiqds.bounds import binary_entropy
from mdiqds.security import SecurityBudget
import reference_chain

EPS12 = 1e-12
NEAR_ONE = 1.0 - 1e-15


class TestMinEntropy:
    def test_uniform_error_gives_zero(self):
        assert security.min_entropy(1e4, binary_entropy(0.5)) == 0.0

    def test_error_free(self):
        assert security.min_entropy(1e4, binary_entropy(0.0)) == 1e4

    def test_known_value(self):
        assert security.min_entropy(1e4, binary_entropy(0.11)) == pytest.approx(5000.9, abs=0.5)
        assert security.min_entropy(1e4, binary_entropy(0.11)) == pytest.approx(5000.84041835472, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            security.min_entropy(10.0, 1.5)


class TestEveErrorRate:
    def test_saturated_rhs(self):
        assert security.eve_error_rate(n_l1=1e4, h_l1=0.0, length=2e4) == 0.5

    def test_zero_rhs(self):
        assert security.eve_error_rate(n_l1=0.0, h_l1=0.0, length=100) == 0.0

    def test_half_entropy_point(self):
        # n_L1/(L/2) = 0.5 with no errors solves H2(p) = 0.5
        got = security.eve_error_rate(n_l1=2500.0, h_l1=0.0, length=10_000)
        assert got == pytest.approx(0.11003, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            security.eve_error_rate(10.0, 0.1, length=1)


class TestKeepErrorBound:
    def test_vanishing_confidence(self):
        got = reference_chain.keep_error_bound(0.02, 1e4, 1e3, NEAR_ONE)
        assert got == pytest.approx(0.02, abs=1e-4)

    def test_known_value(self):
        got = reference_chain.keep_error_bound(0.02, 1e4, 1e3, EPS12)
        assert got == pytest.approx(0.1488, abs=1e-3)

    def test_penalty_shrinks_with_test_size(self):
        assert (reference_chain.keep_error_bound(0.02, 1e4, 1e4, EPS12)
                < reference_chain.keep_error_bound(0.02, 1e4, 1e3, EPS12))

    def test_capped_at_one(self):
        assert reference_chain.keep_error_bound(0.9, 100, 1, 1e-9) == 1.0


class TestThresholds:
    def test_even_split(self):
        s_a, s_v, ok = security.thresholds(0.0, 0.3)
        assert (s_a, s_v) == (pytest.approx(0.1), pytest.approx(0.2))
        assert ok

    def test_degenerate_gap(self):
        s_a, s_v, ok = security.thresholds(0.2, 0.2)
        assert s_a == s_v
        assert not ok

    def test_known_value(self):
        s_a, s_v, ok = security.thresholds(0.01, 0.11003)
        assert s_a == pytest.approx(0.04334, abs=1e-5)
        assert s_v == pytest.approx(0.07669, abs=1e-5)
        assert ok

    def test_large_keep_error_infeasible(self):
        _, _, ok = security.thresholds(0.55, 0.6)
        assert not ok


class TestSecurityProbabilities:
    BUDGET = SecurityBudget()

    def test_robustness_is_twice_eps_pe(self):
        p_rob, _, _ = security.security_probabilities(
            0.04, 0.06, 1e4, 0.1, self.BUDGET, 0.0, 0.0)
        assert p_rob == pytest.approx(2e-12)

    def test_vacuous_repudiation_bound(self):
        _, p_rep, _ = security.security_probabilities(
            0.05, 0.05, 1e4, 0.1, self.BUDGET, 0.0, 0.0)
        assert p_rep == 2.0

    def test_repudiation_known_value(self):
        _, p_rep, _ = security.security_probabilities(
            0.0, 0.03334, 43917, 0.5, self.BUDGET, 0.0, 0.0)
        assert p_rep == pytest.approx(1e-5, rel=0.05)

    def test_forging_assembly(self):
        eps_n, eps_e = 3e-12, 4e-12
        _, _, p_forge = security.security_probabilities(
            0.04, 0.06, 1e4, 0.1, self.BUDGET, eps_n, eps_e)
        p_f = math.exp(-2.0 * 5e3 * (0.1 - 0.06) ** 2)
        assert p_forge == pytest.approx(p_f + 1e-12 + 1e-12 + eps_n + eps_e, rel=1e-9)

    def test_forging_vacuous_when_threshold_reaches_pe(self):
        _, _, p_forge = security.security_probabilities(
            0.04, 0.12, 1e4, 0.1, self.BUDGET, 0.0, 0.0)
        assert p_forge >= 1.0


class TestSolveSignatureLength:
    def test_trivial_target_gives_minimal_block(self):
        assert security.solve_signature_length(lambda L: True, 10_000) == 2

    def test_infeasible_everywhere(self):
        assert security.solve_signature_length(lambda L: False, 10_000) is None

    def test_threshold_predicate(self):
        for lmin in (2, 4, 36, 514, 9998, 10_000):
            got = security.solve_signature_length(lambda L: L >= lmin, 10_000)
            assert got == lmin
        # start >= cap, and answers below start as on the block-size path
        for start in (1, 1024, 10_000, 20_000):
            for nmin in (1, 2, 37, 1023, 1024, 1025, 9999, 10_000):
                got = security.smallest_feasible(lambda n: n >= nmin, start, 10_000)
                assert got == nmin

    def test_cap_excludes_solution(self):
        assert security.solve_signature_length(lambda L: L >= 2048, 2000) is None
        # an infeasible cap ends the search after that one probe
        probes: list[int] = []
        got = security.smallest_feasible(lambda n: probes.append(n) or n >= 2048,
                                         1024, 2000)
        assert got is None
        assert probes == [2000]

    def test_odd_cap(self):
        assert security.solve_signature_length(lambda L: L >= 1999, 2001) == 2000

    def test_non_monotone_island_found_by_bracket(self):
        feasible = {6, 8, 12}.union(range(64, 10_001))
        got = security.solve_signature_length(lambda L: L in feasible, 10_000)
        assert got == 6

    def test_answer_is_a_transition_of_a_non_monotone_predicate(self):
        # feasible from 9 on, except at 10: the bracket (4, 16] bisects
        # through 10 onto 11, a feasible size whose predecessor is not,
        # although 9 is smaller and feasible
        got = security.smallest_feasible(lambda n: n >= 9 and n != 10, 1, 100)
        assert got == 11

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SecurityBudget(epsilon=0.0)
        with pytest.raises(ValueError):
            SecurityBudget(eps_pe=1.0)


def seeded_predicate(rng, cap):
    """A monotone threshold, or a threshold with a dense seeded hole pattern."""
    threshold = int(rng.integers(1, cap + 2))
    if rng.uniform() < 0.25:
        return lambda n: n >= threshold
    a, b, m = (int(v) for v in rng.integers(1, 10_007, size=3))
    share = rng.uniform(0.2, 0.9)
    return lambda n: n >= threshold and (a * n + b) % m < share * m


class TestStoppedSearch:
    """smallest_feasible with a stop, over non-monotone predicates."""

    def test_stop_keeps_a_prefix_of_the_probes_and_the_answer_below_it(self):
        rng = np.random.default_rng(2024)
        outcomes = {"answer": 0, "stopped": 0, "infeasible": 0}
        for _ in range(600):
            cap = int(10 ** rng.uniform(0.0, 7.0))
            start = int(rng.choice([1, 1024, int(rng.integers(1, cap + 1))]))
            predicate = seeded_predicate(rng, cap)
            full: list[int] = []
            answer = security.smallest_feasible(lambda n: full.append(n) or predicate(n),
                                                start, cap)
            # the answer is a feasible size whose predecessor is not
            if answer is not None:
                assert predicate(answer)
                assert answer == 1 or answer - 1 in full and not predicate(answer - 1)
            stop = int(rng.integers(1, cap + 3))
            if answer is not None and rng.uniform() < 0.3:
                stop = answer + int(rng.integers(-1, 2))  # stops next to the answer
            probes: list[int] = []
            got = security.smallest_feasible(lambda n: probes.append(n) or predicate(n),
                                             start, cap, stop)
            assert probes == full[:len(probes)]
            if answer is not None and answer < stop:
                assert got == answer
                assert probes == full
                outcomes["answer"] += 1
            else:
                assert got is None
                outcomes["stopped" if answer is not None else "infeasible"] += 1
        assert min(outcomes.values()) >= 50, outcomes

    def test_stop_at_or_below_one_probes_nothing(self):
        probes: list[int] = []
        for stop in (-3, 0, 1):
            assert security.smallest_feasible(lambda n: probes.append(n) or True,
                                              1, 100, stop) is None
        assert probes == []

    def test_solve_signature_length_takes_a_half_length_stop(self):
        # L = 36 is the answer: its half-length 18 is below stop 19 only
        assert security.solve_signature_length(lambda L: L >= 36, 10_000, stop=19) == 36
        assert security.solve_signature_length(lambda L: L >= 36, 10_000, stop=18) is None


class TestFlooredLengthSolve:
    """solve_signature_length with a stop, over monotone threshold predicates."""

    def test_cold_answer_below_the_stop_else_one_probe(self):
        rng = np.random.default_rng(2501)
        outcomes = {"answer": 0, "stopped": 0, "infeasible": 0}
        for _ in range(600):
            l_max = int(10 ** rng.uniform(0.0, 12.0))
            threshold = int(10 ** rng.uniform(0.0, math.log10(l_max + 1)))
            if rng.uniform() < 0.15:
                threshold = l_max + int(rng.integers(1, 3))  # no length is feasible
            cold = security.solve_signature_length(lambda L: L >= threshold, l_max)
            stop = int(10 ** rng.uniform(0.0, math.log10(l_max + 2)))
            if cold is not None and rng.uniform() < 0.3:
                stop = cold // 2 + int(rng.integers(-1, 3))  # stops next to the answer
            probes: list[int] = []
            got = security.solve_signature_length(
                lambda L: probes.append(L) or L >= threshold, l_max, stop=stop)
            top = min(l_max // 2, stop - 1)
            if cold is not None and cold < 2 * stop:
                assert got == cold
                # a gallop and a bisection over the gap below the first probe
                gap = top - cold // 2
                assert probes[0] == 2 * top
                assert len(probes) <= 2 * gap.bit_length() + 2
                outcomes["answer"] += 1
            else:
                assert got is None
                assert probes == ([2 * top] if top >= 1 else [])
                outcomes["stopped" if cold is not None else "infeasible"] += 1
        assert min(outcomes.values()) >= 50, outcomes

    def test_without_a_stop_the_probes_are_the_bracketing_search(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            l_max = int(10 ** rng.uniform(0.0, 12.0))
            threshold = int(rng.integers(1, l_max + 3))
            probes: list[int] = []
            security.solve_signature_length(
                lambda L: probes.append(L) or L >= threshold, l_max)
            halves: list[int] = []
            security.smallest_feasible(
                lambda k: halves.append(k) or 2 * k >= threshold, 1, l_max // 2)
            assert probes == [2 * k for k in halves]

    def test_answer_at_the_first_probe_and_at_the_bottom(self):
        probes: list[int] = []
        got = security.solve_signature_length(lambda L: probes.append(L) or L >= 36,
                                              10_000, stop=19)
        assert got == 36
        assert probes == [36, 34]  # feasible at 2 * (stop - 1), infeasible below it
        probes.clear()
        got = security.solve_signature_length(lambda L: probes.append(L) or True,
                                              10_000, stop=100)
        assert got == 2
        assert probes[0] == 198 and probes[-1] == 2
