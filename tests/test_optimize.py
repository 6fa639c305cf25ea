"""Coordinate-descent optimizer tests."""
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from mdiqds import models, optimize
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


def clamp01(x):
    return [min(max(v, 0.0), 1.0) for v in x]


def box2(initial=(0.9, 0.1)) -> SearchSpace:
    return SearchSpace(names=("x", "y"), lower=(0.0, 0.0), upper=(1.0, 1.0),
                       initial=initial, steps=(0.05, 0.05), project=clamp01)


def drawn(space: SearchSpace, seed: int) -> SearchSpace:
    """space starting from its seeded uniform draw, projected."""
    return replace(space, initial=tuple(space.clip_project(optimize._uniform_draw(space, seed))))


class TestCoordinateDescent:
    def test_constant_objective_returns_start(self):
        point = coordinate_descent(lambda x, floor: 1.0, box2())
        assert point.x == (0.9, 0.1)
        assert point.converged
        assert point.cycles == 1

    def test_concave_quadratic_with_cross_term(self):
        def f(v, floor):
            dx, dy = v[0] - 0.3, v[1] - 0.6
            return -(dx * dx) - 2.0 * dy * dy - 0.5 * dx * dy

        point = coordinate_descent(f, box2())
        assert abs(point.x[0] - 0.3) <= 1e-4
        assert abs(point.x[1] - 0.6) <= 1e-4
        assert point.converged

    def test_monotone_accepted_values(self):
        def f(v, floor):
            return -(v[0] - 0.4) ** 2 - (v[1] - 0.2) ** 2

        point = coordinate_descent(f, box2())
        assert all(a < b for a, b in zip(point.history, point.history[1:]))

    def test_deterministic_given_space(self):
        f = lambda v, floor: -(v[0] - 0.5) ** 2 - (v[1] - 0.5) ** 2  # noqa: E731
        a = coordinate_descent(f, drawn(box2(), 17))
        b = coordinate_descent(f, drawn(box2(), 17))
        assert a == b
        c = coordinate_descent(f, drawn(box2(), 18))
        assert c.x != a.x  # different start

    def test_uniform_draw_is_numpys_seeded_draw(self):
        """The extra starts' draw is numpy's seeded uniform draw over the box."""
        space = qds_search_space()
        lo, hi = np.asarray(space.lower), np.asarray(space.upper)
        for seed in range(4):
            draw = lo + np.random.default_rng(seed).uniform(size=5) * (hi - lo)
            assert optimize._uniform_draw(space, seed) == draw.tolist()
            # an ndarray clips to the same point (bench/run.py passes one)
            assert space.clip_project(draw) == space.clip_project(draw.tolist())

    @pytest.mark.parametrize("field", ["initial", "steps", "project"])
    def test_start_steps_and_projection_are_required(self, field):
        fields = dict(names=("x", "y"), lower=(0.0, 0.0), upper=(1.0, 1.0),
                      initial=(0.5, 0.5), steps=(0.05, 0.05), project=clamp01)
        del fields[field]
        with pytest.raises(TypeError, match=f"'{field}'"):
            SearchSpace(**fields)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(names=("x",), lower=(1.0,), upper=(0.0,), initial=(0.5,),
                        steps=(0.05,), project=clamp01)
        with pytest.raises(ValueError, match="^bounds must match the number of coordinates$"):
            replace(box2(), lower=(0.0,))

    @pytest.mark.parametrize("field", ["initial", "steps"])
    def test_vector_length_validation(self, field):
        with pytest.raises(ValueError, match=f"{field} must have 2 coordinates, got 3"):
            replace(box2(), **{field: (0.5, 0.5, 0.5)})
        with pytest.raises(ValueError, match=f"{field} must have 5 coordinates, got 4"):
            replace(qds_search_space(), **{field: (0.4, 0.05, 0.3, 0.3)})
        # clip_project would zip a longer vector down, and index past a shorter one
        for x in ([0.4, 0.05, 0.3, 0.3, 0.5, 0.1], [0.4, 0.05, 0.3, 0.3]):
            with pytest.raises(ValueError, match=f"vector must have 5 coordinates, got {len(x)}"):
                qds_search_space().clip_project(x)


EDGE = 1.0 - 1e-3  # p_as + p_ad1 at most, so that p_ad2 >= 1e-3


def edge_points(seed, count):
    """Seeded candidates: a third anywhere around the box, a third on the
    edge p_as + p_ad1 = 0.999 and a third within 1e-9 of it, either side."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        p_as = rng.uniform(-0.05, 1.05)
        p_ad1 = (rng.uniform(-0.05, 1.05), EDGE - p_as,
                 EDGE - p_as + rng.uniform(-1e-9, 1e-9))[i % 3]
        points.append([rng.uniform(-0.1, 1.1), rng.uniform(-0.05, 0.35), p_as, p_ad1,
                       rng.uniform(-0.05, 1.05)])
    return points


def bits(x):
    return [float(v).hex() for v in x]


class TestQdsProjection:
    """Candidates go to the nearest point of the box below the edge."""

    @pytest.mark.parametrize("a_d2", (5e-4, 0.06))
    def test_projected_points_lie_in_the_box_below_the_edge(self, a_d2):
        space = qds_search_space(a_d2=a_d2)
        for x in edge_points(3, 6000):
            y = space.clip_project(x)
            assert all(lo <= v <= hi for v, lo, hi in zip(y, space.lower, space.upper)), (x, y)
            assert y[2] + y[3] <= EDGE + 1e-15, (x, y)
            config_from_vector(y, a_d2)  # a valid configuration

    @pytest.mark.parametrize("a_d2", (5e-4, 0.06))
    def test_projection_is_idempotent_bit_for_bit(self, a_d2):
        space = qds_search_space(a_d2=a_d2)
        for x in edge_points(4, 6000):
            y = space.clip_project(x)
            assert bits(space.clip_project(y)) == bits(y), (x, y)

    @pytest.mark.parametrize("a_d2", (5e-4, 0.06))
    def test_projection_of_the_clamped_vector_bit_for_bit(self, a_d2):
        """clip_project leaves the box clamp to the projection, which
        clamps every coordinate into a sub-range of the box: projecting the
        box-clamped vector gives the same point, bit for bit."""
        space = qds_search_space(a_d2=a_d2)
        rng = random.Random(6)
        far = [[rng.uniform(-10.0, 10.0) for _ in range(5)] for _ in range(2000)]
        points = edge_points(6, 6000) + far + [[math.inf, -math.inf, math.inf, 0.0, -math.inf]]
        outside = 0
        for x in points:
            clamped = [min(max(v, lo), hi) for v, lo, hi in zip(x, space.lower, space.upper)]
            outside += clamped != x
            assert bits(space.clip_project(x)) == bits(space.project(clamped)), x
        assert outside > len(points) // 2

    def test_edge_step_moves_the_probability_by_half(self):
        """A step s on p_as (p_ad1) from the edge moves it by s/2, the other
        by -s/2, or both to their bounds. The step is clamped to 0.999
        first, as any coordinate is."""
        space = qds_search_space()
        rng = random.Random(5)
        moved = 0
        for _ in range(3000):
            x = space.clip_project([0.4, 0.05, rng.uniform(0.0, 1.0), 1.0, 0.5])
            assert x[3] == EDGE - x[2]  # on the edge
            i = rng.choice((2, 3))
            j = 5 - i
            s = 0.05 * 0.5 ** rng.randrange(17)
            cand = list(x)
            cand[i] += s
            y = space.clip_project(cand)
            half = (min(x[i] + s, EDGE) - x[i]) / 2.0
            assert math.isclose(y[i], min(x[i] + half, EDGE - 1e-3), rel_tol=0, abs_tol=1e-15)
            assert math.isclose(y[j], max(x[j] - half, 1e-3), rel_tol=0, abs_tol=1e-15)
            moved += y[i] < EDGE - 1e-3
        assert moved > 2000  # most steps stop short of the bound


def test_no_sweep_descent_exceeds_300_evaluations(sweep_pass):
    """The seed-0 sweep's 21 descents (7 points x 3 models) stay short.

    With a proportional rescale at the edge the 0 km descents crept to
    the corner in steps of ~1e-5 relative gain (smb1: 1,165 evaluations).
    """
    counts, _ = sweep_pass
    assert len(counts["descents"]) == 21
    assert max(counts["descents"]) <= 300, counts["descents"]


def test_sweep_reports_probabilities_inside_the_box(sweep_pass):
    counts, _ = sweep_pass
    rows = [line.split(",") for line in counts["stdout"].splitlines()
            if line and not line.startswith("#")]
    header, records = rows[0], [dict(zip(rows[0], row)) for row in rows[1:]]
    assert len(records) == 21 and "p_as" in header
    for rec in records:
        p_as, p_ad1 = float(rec["p_as"]), float(rec["p_ad1"])
        assert 1e-3 <= p_as <= EDGE and 1e-3 <= p_ad1 <= EDGE, rec
        assert p_as + p_ad1 <= EDGE + 1e-15, rec


def reference_descent(objective, space):
    """coordinate_descent without the point memo or floors, and its call list.

    Every candidate is scored exactly (floor -inf), repeats included.
    """
    calls = []

    def scored(x):
        calls.append(tuple(x))
        return float(objective(x, -math.inf))

    x = space.clip_project([float(v) for v in space.initial])
    f = scored(x)
    history = [f]
    base = space.base_steps()
    cur_step = list(base)
    converged = False
    cycle = 0
    for cycle in range(1, optimize._MAX_CYCLES + 1):
        f_start = f
        for i in range(len(space.names)):
            step = min(base[i], cur_step[i] * 2.0)
            while step >= MIN_STEP:
                moved = False
                for direction in (+1.0, -1.0):
                    cand = list(x)
                    cand[i] += direction * step
                    cand = space.clip_project(cand)
                    fc = scored(cand)
                    if fc > f:
                        x, f = cand, fc
                        history.append(fc)
                        moved = True
                        while True:
                            cand = list(x)
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

    def f(v, floor):
        d = np.asarray(v) - centre
        return float(-(d @ hessian @ d))
    return f


def seeded_terraces(seed, dim):
    """Piecewise-constant objective: flat terraces make the search revisit."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(1.0, 3.0, size=dim)
    centre = rng.uniform(size=dim)

    def f(v, floor):
        return float(-np.floor(20.0 * np.abs(np.asarray(v) - centre)) @ weights)
    return f


def memo_cases():
    """(name, objective, space): 2-D and qds_search_space() cases from seeded starts."""
    cases = []
    for seed in range(6):
        cases.append((f"terraces-2d-{seed}", seeded_terraces(seed, 2), drawn(box2(), seed)))
        qds = drawn(qds_search_space(), seed)
        cases.append((f"quadratic-qds-{seed}", seeded_quadratic(seed, 5), qds))
        cases.append((f"terraces-qds-{seed}", seeded_terraces(seed, 5), qds))
    # start on the upper bound of x with the optimum beyond it: clip_project
    # maps every +step candidate back onto the current point
    cases.append(("upper-bound-start", lambda v, floor: float(v[0] - (v[1] - 0.3) ** 2),
                  box2(initial=(1.0, 0.7))))
    cases.append(("qds-upper-bound-start", seeded_quadratic(9, 5),
                  qds_search_space(initial=(1.0, 0.3, 0.5, 0.4, 0.999))))
    return cases


MEMO_CASES = memo_cases()
memo_case = pytest.mark.parametrize("name,objective,space", MEMO_CASES,
                                    ids=[case[0] for case in MEMO_CASES])


class TestPointMemo:
    @memo_case
    def test_same_descent_as_without_memo(self, name, objective, space):
        reference, calls = reference_descent(objective, space)
        point = coordinate_descent(objective, space)
        # same x, value, cycles, converged and history; one call per point
        assert point == replace(reference, evaluations=len(set(calls)))

    def test_revisits_are_common_in_these_cases(self):
        repeats = 0
        for _, objective, space in MEMO_CASES:
            _, calls = reference_descent(objective, space)
            repeats += len(calls) - len(set(calls))
        assert repeats > 100

    @memo_case
    def test_each_point_scored_once(self, name, objective, space):
        seen = []

        def counting(x, floor):
            seen.append(tuple(x))
            return objective(x, floor)

        point = coordinate_descent(counting, space)
        assert len(seen) == len(set(seen))
        assert point.evaluations == len(seen)

    def test_rate_objective_same_descent_as_without_memo(self):
        objective = rate_objective(SystemParams(distance_km=100.0, n_pulses=1e12), "smb1")
        space = qds_search_space()
        reference, calls = reference_descent(objective, space)
        seen = []

        def counting(x, floor):
            seen.append(tuple(x))
            return objective(x, floor)

        point = coordinate_descent(counting, space)
        assert point == replace(reference, evaluations=len(seen))
        assert len(seen) == len(set(seen)) == len(set(calls)) < len(calls)


class TestMultiStart:
    @staticmethod
    def bumps(v, floor):
        # two separated maxima, the better one away from the default start
        big = 2.0 * math.exp(-40.0 * ((v[0] - 0.8) ** 2 + (v[1] - 0.8) ** 2))
        small = 1.0 * math.exp(-40.0 * ((v[0] - 0.15) ** 2 + (v[1] - 0.15) ** 2))
        return big + small

    def test_k1_reduces_to_coordinate_descent(self):
        space = box2(initial=(0.1, 0.1))
        single = coordinate_descent(self.bumps, space)
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
        reference_rate = objective(REFERENCE_VECTOR, -math.inf)
        point = coordinate_descent(objective, qds_search_space())
        assert reference_rate > 0.0
        assert point.value >= reference_rate

    def test_every_candidate_stays_feasible(self):
        objective = rate_objective(self.PARAMS, "smb1")
        seen: list[tuple[float, ...]] = []

        def checked(x, floor):
            seen.append(tuple(x))
            cfg = config_from_vector(x)  # raises if the invariants break
            assert isinstance(cfg, IntensityConfig)
            return objective(x, floor)

        coordinate_descent(checked, qds_search_space())
        assert len(seen) > 10

    def test_invalid_configuration_raises_at_first_evaluation(self):
        """A vector that no projection yields raises; it is not scored 0."""
        objective = rate_objective(self.PARAMS, "smb1", a_d2=-0.01)
        with pytest.raises(ValueError, match="^intensities must satisfy a_s > a_d1 > a_d2"):
            objective(REFERENCE_VECTOR, -math.inf)

    def test_optimize_models_orders_and_pools(self):
        results = optimize_models(self.PARAMS, seed=1, starts=1)
        assert results["smb1"].rate >= results["sob"].rate > 0.0
        assert results["smb1"].rate >= results["smb2"].rate
        reference = run_smb1(self.PARAMS, config_from_vector(REFERENCE_VECTOR))
        assert results["smb1"].rate >= reference.rate

    def test_optimize_models_scores_each_distinct_candidate_once(self, monkeypatch):
        """The pool holds REFERENCE_VECTOR twice when no warm start is given.

        Each model is run once at most per distinct candidate, and not at
        all where its own descent holds the exact result, the winner
        included.
        """
        models = ("smb1", "smb2")
        _, optima, scored, runs = pooled_runs(monkeypatch, self.PARAMS, models=models, seed=1)
        pool = list(dict.fromkeys([tuple(REFERENCE_VECTOR), *optima]))
        assert_pooling_runs_only_what_it_lacks(optima, scored, runs, pool,
                                               tuple(REFERENCE_VECTOR), models)

    def test_repeated_objective_calls_are_deterministic(self):
        objective = rate_objective(self.PARAMS, "smb1")
        x = REFERENCE_VECTOR
        first = objective(x, -math.inf)
        objective((0.3, 0.1, 0.5, 0.2, 0.7), -math.inf)
        again = objective(x, -math.inf)
        assert first == again

    def test_custom_weak_decoy_intensity(self):
        results = optimize_models(self.PARAMS, models=("smb1",), seed=2,
                                  a_d2=1e-3)
        assert results["smb1"].feasible
        assert results["smb1"].config.a_d2 == 1e-3

    def test_weak_decoy_above_the_reference_decoy(self):
        """a_d2 above the reference vector's a_d1 still pools a valid reference."""
        params = SystemParams(distance_km=50.0, n_pulses=1e12)
        results = optimize_models(params, models=("smb1",), a_d2=0.06,
                                  initial=(0.5, 0.1, 1 / 3, 1 / 3, 0.5))
        assert results["smb1"].feasible
        assert results["smb1"].config.a_d2 == 0.06
        # the reference vector is used as projected, also as the default start
        results = optimize_models(params, models=("smb1",), a_d2=0.06)
        assert results["smb1"].feasible


@pytest.mark.slow
def test_multistart_agreement_at_150km():
    """Independent starts land on the same rate plateau within 2%."""
    params = SystemParams(distance_km=150.0, n_pulses=1e14)
    point = multi_start(rate_objective(params, "smb1"), qds_search_space(),
                        k=5, seed=3)
    values = np.asarray(point.start_values)
    assert values.min() > 0.0
    assert (values.max() - values.min()) / values.max() <= 0.02


class TestFlooredEvaluations:
    """Objectives scored against the incumbent give the exact-value results."""

    PARAMS = SystemParams(distance_km=80.0, n_pulses=1e13)

    @pytest.mark.parametrize("model", ("sob", "smb1", "smb2"))
    def test_descent_same_as_exact_reference(self, model):
        objective = rate_objective(self.PARAMS, model)
        # seeded random starts off every model's zero plateau
        for seed in (2, 3):
            space = drawn(qds_search_space(), seed)
            reference, calls = reference_descent(objective, space)
            point = coordinate_descent(objective, space)
            assert point == replace(reference, evaluations=len(set(calls)))
            assert point.value > 0.0

    def test_optimize_models_same_as_unbounded_pooling(self, monkeypatch):
        warm = (0.35, 0.12, 0.6, 0.2, 0.8)
        results, optima, scored, runs = pooled_runs(monkeypatch, self.PARAMS, initial=warm)
        pool = list(dict.fromkeys([tuple(REFERENCE_VECTOR), warm, *optima]))
        for model in ("sob", "smb1", "smb2"):
            unbounded = max((models.run_model(model, self.PARAMS, config_from_vector(vec))
                             for vec in pool), key=lambda r: r.rate)
            assert results[model] == unbounded
        # the pooling ran every candidate its descent had not scored, and
        # stopped some early
        assert_pooling_runs_only_what_it_lacks(optima, scored, runs, pool, warm,
                                               ("sob", "smb1", "smb2"))
        assert any(reason == models.FLOOR_REASON for *_, reason in runs)


def vector(cfg: IntensityConfig) -> tuple[float, ...]:
    return (cfg.a_s, cfg.a_d1, cfg.p_as, cfg.p_ad1, cfg.p_z)


def pooled_runs(monkeypatch, params, **kwargs):
    """optimize_models' results, each descent's optimum, the vectors each
    model's descents scored exactly (above the floor they were scored at),
    and the (model, vector, floor, reason) of every run_model call it makes
    after its descents (the sob descent calls run_model too)."""
    optima, runs, scored = [], [], {}
    search, run = optimize.multi_start, optimize.run_model
    objective_for = optimize.rate_objective
    count = len(kwargs.get("models", models.MODELS))

    def recording_search(*args, **kw):
        point = search(*args, **kw)
        optima.append(point.x)
        return point

    def recording_run(model, params, cfg, budget=None, floor=0.0):
        result = run(model, params, cfg, budget, floor)
        if len(optima) == count:
            runs.append((model, vector(cfg), floor, result.reason))
        return result

    def recording_objective(params, model, *args, **kw):
        objective = objective_for(params, model, *args, **kw)
        exact = scored.setdefault(model, set())

        def recorded(x, floor):
            value = objective(x, floor)
            if value > floor:
                exact.add(tuple(x))
            return value
        return recorded

    monkeypatch.setattr(optimize, "multi_start", recording_search)
    monkeypatch.setattr(optimize, "run_model", recording_run)
    monkeypatch.setattr(optimize, "rate_objective", recording_objective)
    return optimize_models(params, **kwargs), optima, scored, runs


def assert_pooling_runs_only_what_it_lacks(optima, scored, runs, pool, start, names):
    """Each model runs once at every pooled candidate its own descent did
    not score exactly, and at none it did, its winner included; the
    descent's start and optimum are among the ones it scored exactly."""
    assert len({(model, vec) for model, vec, *_ in runs}) == len(runs)
    for model, optimum in zip(names, optima):
        assert {start, optimum} <= scored[model]
        assert {vec for name, vec, *_ in runs if name == model} == set(pool) - scored[model]


# smb1's optimum at 75 km (1e13 pulses) in `mdiqds sweep --optimize --model all
# --pulses 1e13 --start 0 --stop 150 --step 25` under the earlier proportional
# rescale onto p_as + p_ad1 = 0.999 (so p_ad1 sits a hair below 1e-3), the warm
# start of its 100 km point; the descents start from its projection
SWEEP_WARM_100KM = (0.27617950439453126, 0.25000000000000006, 0.9980000010010001,
                    0.000999998999000001, 0.9699218750000004)


def test_floor_saves_sob_block_probes_in_a_warm_descent(monkeypatch):
    """A warm sob descent makes >= 25% fewer block probes with floors than without."""
    calls = {"probes": 0}
    block = models._sob_block

    def counting_block(*args):
        calls["probes"] += 1
        return block(*args)

    monkeypatch.setattr(models, "_sob_block", counting_block)
    objective = rate_objective(SystemParams(distance_km=100.0, n_pulses=1e13), "sob")
    space = qds_search_space(initial=SWEEP_WARM_100KM)
    floored = coordinate_descent(objective, space)
    probes_floored, calls["probes"] = calls["probes"], 0
    exact = coordinate_descent(lambda x, floor: objective(x, 0.0), space)
    assert floored == exact
    assert probes_floored <= 0.75 * calls["probes"]


def test_floored_sob_descent_build_count_is_bounded(monkeypatch):
    """The relaxed block probes certify most floored sob evaluations.

    Every pipeline build of the floored warm descent is counted, the
    relaxed probes' own included: 4,633 without them, 2,364 with the
    optimistic ones below the stop, 1,837 with the pessimistic
    certificate above it too. The bound is that count plus 3%.
    """
    calls = {"builds": 0}
    build = models._build_pipeline

    def counting_build(*args):
        calls["builds"] += 1
        return build(*args)

    monkeypatch.setattr(models, "_build_pipeline", counting_build)
    objective = rate_objective(SystemParams(distance_km=100.0, n_pulses=1e13), "sob")
    space = qds_search_space(initial=SWEEP_WARM_100KM)
    floored = coordinate_descent(objective, space)
    builds_floored = calls["builds"]
    assert floored == coordinate_descent(lambda x, floor: objective(x, 0.0), space)
    assert builds_floored <= 1900


@pytest.mark.parametrize("model", ("smb1", "smb2"))
def test_floor_saves_length_probes_in_a_warm_descent(model, monkeypatch):
    """A warm smb descent makes <= 25% of the length probes with floors."""
    calls = {"probes": 0}
    feasible_at = models._Pipeline.feasible_at

    def counting_feasible_at(self, length):
        calls["probes"] += 1
        return feasible_at(self, length)

    monkeypatch.setattr(models._Pipeline, "feasible_at", counting_feasible_at)
    objective = rate_objective(SystemParams(distance_km=100.0, n_pulses=1e13), model)
    space = qds_search_space(initial=SWEEP_WARM_100KM)
    floored = coordinate_descent(objective, space)
    probes_floored, calls["probes"] = calls["probes"], 0
    exact = coordinate_descent(lambda x, floor: objective(x, 0.0), space)
    assert floored == exact
    assert probes_floored <= 0.25 * calls["probes"]
