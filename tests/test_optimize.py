"""Coordinate-descent optimizer tests."""
from dataclasses import replace

import numpy as np
import pytest

from mdiqds import optimize
from mdiqds.channel import IntensityConfig, SystemParams
from mdiqds.models import run_smb1
from mdiqds.optimize import (
    MIN_STEP,
    REFERENCE_VECTOR,
    OptimalPoint,
    SearchSpace,
    config_from_vector,
    coordinate_descent,
    multi_start,
    optimize_models,
    qds_search_space,
    rate_objective,
)


def box2(initial=(0.9, 0.1)) -> SearchSpace:
    return SearchSpace(names=("x", "y"), lower=(0.0, 0.0), upper=(1.0, 1.0),
                       initial=initial)


class TestCoordinateDescent:
    def test_constant_objective_returns_start(self):
        point = coordinate_descent(lambda x: 1.0, box2())
        assert point.x == (0.9, 0.1)
        assert point.converged
        assert point.cycles == 1

    def test_concave_quadratic_with_cross_term(self):
        def f(v):
            dx, dy = v[0] - 0.3, v[1] - 0.6
            return -(dx * dx) - 2.0 * dy * dy - 0.5 * dx * dy

        point = coordinate_descent(f, box2())
        assert abs(point.x[0] - 0.3) <= 1e-4
        assert abs(point.x[1] - 0.6) <= 1e-4
        assert point.converged

    def test_monotone_accepted_values(self):
        def f(v):
            return -(v[0] - 0.4) ** 2 - (v[1] - 0.2) ** 2

        point = coordinate_descent(f, box2())
        assert all(a < b for a, b in zip(point.history, point.history[1:]))

    def test_deterministic_given_seed(self):
        space = SearchSpace(names=("x", "y"), lower=(0.0, 0.0), upper=(1.0, 1.0))
        f = lambda v: -(v[0] - 0.5) ** 2 - (v[1] - 0.5) ** 2  # noqa: E731
        a = coordinate_descent(f, space, seed=17)
        b = coordinate_descent(f, space, seed=17)
        assert a == b
        c = coordinate_descent(f, space, seed=18)
        assert c.x != a.x  # different random start

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(names=("x",), lower=(1.0,), upper=(0.0,))


def reference_descent(objective, space, seed=0):
    """coordinate_descent without the point memo, and its call list.

    Every candidate is scored, repeats included.
    """
    calls = []

    def scored(x):
        calls.append(x.tobytes())
        return float(objective(x))

    x = optimize._start_vector(space, seed)
    f = scored(x)
    history = [f]
    base = space.base_steps()
    cur_step = base.copy()
    converged = False
    cycle = 0
    for cycle in range(1, optimize._MAX_CYCLES + 1):
        f_start = f
        for i in range(len(space.names)):
            step = min(base[i], cur_step[i] * 2.0)
            while step >= MIN_STEP:
                moved = False
                for direction in (+1.0, -1.0):
                    cand = x.copy()
                    cand[i] += direction * step
                    cand = space.clip_project(cand)
                    fc = scored(cand)
                    if fc > f:
                        x, f = cand, fc
                        history.append(fc)
                        moved = True
                        while True:
                            cand = x.copy()
                            cand[i] += direction * step
                            cand = space.clip_project(cand)
                            fc = scored(cand)
                            if fc > f:
                                x, f = cand, fc
                                history.append(fc)
                            else:
                                break
                        break
                if moved:
                    cur_step[i] = step
                    break
                step /= 2.0
            else:
                cur_step[i] = MIN_STEP
        if f - f_start <= optimize._REL_TOL * abs(f_start):
            converged = True
            break
    point = OptimalPoint(x=tuple(float(v) for v in x), value=f, cycles=cycle,
                         converged=converged, evaluations=len(calls),
                         history=tuple(history))
    return point, calls


def seeded_quadratic(seed, dim):
    """Concave quadratic with a seeded centre and cross terms."""
    rng = np.random.default_rng(seed)
    centre = rng.uniform(size=dim)
    a = rng.normal(size=(dim, dim))
    hessian = a @ a.T + dim * np.eye(dim)

    def f(v):
        d = np.asarray(v) - centre
        return float(-(d @ hessian @ d))
    return f


def seeded_terraces(seed, dim):
    """Piecewise-constant objective: flat terraces make the search revisit."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(1.0, 3.0, size=dim)
    centre = rng.uniform(size=dim)

    def f(v):
        return float(-np.floor(20.0 * np.abs(np.asarray(v) - centre)) @ weights)
    return f


def memo_cases():
    """(name, objective, space, seed): seeded 2-D and qds_search_space() cases."""
    cases = []
    for seed in range(6):
        free = SearchSpace(names=("x", "y"), lower=(0.0, 0.0), upper=(1.0, 1.0))
        cases.append((f"terraces-2d-{seed}", seeded_terraces(seed, 2), free, seed))
        qds = qds_search_space(initial=None)
        cases.append((f"quadratic-qds-{seed}", seeded_quadratic(seed, 5), qds, seed))
        cases.append((f"terraces-qds-{seed}", seeded_terraces(seed, 5), qds, seed))
    # start on the upper bound of x with the optimum beyond it: clip_project
    # maps every +step candidate back onto the current point
    cases.append(("upper-bound-start", lambda v: float(v[0] - (v[1] - 0.3) ** 2),
                  box2(initial=(1.0, 0.7)), 0))
    cases.append(("qds-upper-bound-start", seeded_quadratic(9, 5),
                  qds_search_space(initial=(1.0, 0.3, 0.5, 0.4, 0.999)), 0))
    return cases


MEMO_CASES = memo_cases()
memo_case = pytest.mark.parametrize("name,objective,space,seed", MEMO_CASES,
                                    ids=[case[0] for case in MEMO_CASES])


class TestPointMemo:
    @memo_case
    def test_same_descent_as_without_memo(self, name, objective, space, seed):
        reference, calls = reference_descent(objective, space, seed)
        point = coordinate_descent(objective, space, seed)
        # same x, value, cycles, converged and history; one call per point
        assert point == replace(reference, evaluations=len(set(calls)))

    def test_revisits_are_common_in_these_cases(self):
        repeats = 0
        for _, objective, space, seed in MEMO_CASES:
            _, calls = reference_descent(objective, space, seed)
            repeats += len(calls) - len(set(calls))
        assert repeats > 100

    @memo_case
    def test_each_point_scored_once(self, name, objective, space, seed):
        seen = []

        def counting(x):
            seen.append(x.tobytes())
            return objective(x)

        point = coordinate_descent(counting, space, seed)
        assert len(seen) == len(set(seen))
        assert point.evaluations == len(seen)

    def test_rate_objective_same_descent_as_without_memo(self):
        objective = rate_objective(SystemParams(distance_km=100.0, n_pulses=1e12), "smb1")
        space = qds_search_space()
        reference, calls = reference_descent(objective, space)
        seen = []

        def counting(x):
            seen.append(x.tobytes())
            return objective(x)

        point = coordinate_descent(counting, space)
        assert point == replace(reference, evaluations=len(seen))
        assert len(seen) == len(set(seen)) == len(set(calls)) < len(calls)


class TestMultiStart:
    @staticmethod
    def bumps(v):
        # two separated maxima, the better one away from the default start
        big = 2.0 * np.exp(-40.0 * ((v[0] - 0.8) ** 2 + (v[1] - 0.8) ** 2))
        small = 1.0 * np.exp(-40.0 * ((v[0] - 0.15) ** 2 + (v[1] - 0.15) ** 2))
        return float(big + small)

    def test_k1_reduces_to_coordinate_descent(self):
        space = box2(initial=(0.1, 0.1))
        single = coordinate_descent(self.bumps, space, seed=5)
        multi = multi_start(self.bumps, space, k=1, seed=5)
        assert multi.x == single.x
        assert multi.value == single.value
        assert multi.start_values == (single.value,)

    def test_more_starts_never_worse(self):
        space = box2(initial=(0.1, 0.1))
        v1 = multi_start(self.bumps, space, k=1, seed=5).value
        v5 = multi_start(self.bumps, space, k=5, seed=5).value
        assert v5 >= v1
        assert v5 > 1.5  # a random start reached the taller bump

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            multi_start(self.bumps, box2(), k=0)


class TestRateOptimization:
    PARAMS = SystemParams(distance_km=100.0, n_pulses=1e12)

    def test_improves_on_reference(self):
        objective = rate_objective(self.PARAMS, "smb1")
        reference_rate = objective(np.asarray(REFERENCE_VECTOR))
        point = coordinate_descent(objective, qds_search_space())
        assert reference_rate > 0.0
        assert point.value >= reference_rate

    def test_every_candidate_stays_feasible(self):
        objective = rate_objective(self.PARAMS, "smb1")
        seen: list[np.ndarray] = []

        def checked(x):
            seen.append(np.array(x))
            cfg = config_from_vector(x)  # raises if the invariants break
            assert isinstance(cfg, IntensityConfig)
            return objective(x)

        coordinate_descent(checked, qds_search_space())
        assert len(seen) > 10

    def test_optimize_models_orders_and_pools(self):
        results = optimize_models(self.PARAMS, seed=1, starts=1)
        assert results["smb1"].rate >= results["sob"].rate > 0.0
        assert results["smb1"].rate >= results["smb2"].rate
        reference = run_smb1(self.PARAMS, config_from_vector(REFERENCE_VECTOR))
        assert results["smb1"].rate >= reference.rate

    def test_optimize_models_scores_each_distinct_candidate_once(self, monkeypatch):
        """The pool holds REFERENCE_VECTOR twice when no warm start is given."""
        optima, scored = [], []
        search, run = optimize.multi_start, optimize.run_model

        def recording_search(*args, **kwargs):
            point = search(*args, **kwargs)
            optima.append(point.x)
            return point

        def counting_run(model, params, cfg, budget=None):
            scored.append((model, cfg))
            return run(model, params, cfg, budget)

        monkeypatch.setattr(optimize, "multi_start", recording_search)
        monkeypatch.setattr(optimize, "run_model", counting_run)
        models = ("smb1", "smb2")
        optimize_models(self.PARAMS, models=models, seed=1)
        distinct = {tuple(REFERENCE_VECTOR), *optima}
        assert len(scored) == len(distinct) * len(models)
        assert len(set(scored)) == len(scored)

    def test_repeated_objective_calls_are_deterministic(self):
        objective = rate_objective(self.PARAMS, "smb1")
        x = np.asarray(REFERENCE_VECTOR)
        first = objective(x)
        objective(np.asarray((0.3, 0.1, 0.5, 0.2, 0.7)))
        again = objective(x)
        assert first == again

    def test_custom_weak_decoy_intensity(self):
        results = optimize_models(self.PARAMS, models=("smb1",), seed=2,
                                  a_d2=1e-3)
        assert results["smb1"].feasible
        assert results["smb1"].config.a_d2 == 1e-3


@pytest.mark.slow
def test_multistart_agreement_at_150km():
    """Independent starts land on the same rate plateau within 2%."""
    params = SystemParams(distance_km=150.0, n_pulses=1e14)
    point = multi_start(rate_objective(params, "smb1"), qds_search_space(),
                        k=5, seed=3)
    values = np.asarray(point.start_values)
    assert values.min() > 0.0
    assert (values.max() - values.min()) / values.max() <= 0.02
