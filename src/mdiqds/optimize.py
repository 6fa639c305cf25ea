"""Signature-rate parameter optimization by coordinate descent.

Local search over (a_s, a_d1, p_as, p_ad1, p_z) with the weak decoy
intensity and the error-test fraction held fixed. Each coordinate visit
tries a step in both directions and halves the step until it finds an
improvement or hits the minimum step; a full cycle that improves the
objective by less than 1e-4 relative terminates the search. Each
candidate is clamped to the box and then goes to the nearest point of
the box below the simplex edge p_as + p_ad1 = 0.999 (see
_qds_projection), so a step along the edge moves the point by half the
step, not by the step scaled down by the other probability. Each
distinct projected point is scored once per descent, and infeasible
protocol configurations score 0 so the search can cross infeasible
regions.

An objective is called as objective(x, floor). It returns the exact
value at x when that value exceeds floor, and otherwise any value
<= floor; floor = -inf asks for the exact value. The descent passes its
incumbent value, which a candidate must beat to be accepted, so a rate
objective can stop its N_s or L search as soon as the candidate provably
cannot beat it (see models.run_model). The result is the same as with
exact values everywhere.

A descent is deterministic given its space; multi-start draws its
extra starting points from per-start seeded generators and evaluates
them in a fixed order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .channel import DEFAULT_A_D2, IntensityConfig, SystemParams
from .models import MODELS, RateResult, run_model, run_smb1, run_smb2
from .security import SecurityBudget

__all__ = [
    "MIN_STEP",
    "REFERENCE_VECTOR",
    "SearchSpace",
    "OptimalPoint",
    "coordinate_descent",
    "multi_start",
    "qds_search_space",
    "config_from_vector",
    "rate_objective",
    "optimize_models",
]

MIN_STEP = 1e-6
_MAX_CYCLES = 200
_REL_TOL = 1e-4

# a_s, a_d1, p_as, p_ad1, p_z: plain starting point used when nothing
# better is known (moderate signal, weak decoy, uniform selection).
REFERENCE_VECTOR = (0.4, 0.05, 1.0 / 3.0, 1.0 / 3.0, 0.5)

_QDS_NAMES = ("a_s", "a_d1", "p_as", "p_ad1", "p_z")
_PROB_LO, _PROB_HI = 1e-3, 1.0 - 1e-3
_A_D1_HI = 0.3  # cap on the strong decoy intensity


@dataclass(frozen=True)
class SearchSpace:
    """Box-constrained coordinate space with its start, steps and projection.

    A descent starts from the projection of initial, with steps as its
    per-coordinate base steps. project must map every vector into the
    box (the QDS projection clamps each coordinate into a sub-range of
    it), and must not modify its argument.
    """

    names: tuple[str, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    initial: tuple[float, ...]
    steps: tuple[float, ...]
    project: Callable[[Sequence[float]], list[float]]

    def __post_init__(self) -> None:
        k = len(self.names)
        if not (len(self.lower) == len(self.upper) == k):
            raise ValueError("bounds must match the number of coordinates")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("every lower bound must be below its upper bound")
        # the vectors are zipped against the bounds, which would drop extras
        for name in ("initial", "steps"):
            value = getattr(self, name)
            if len(value) != k:
                raise ValueError(f"{name} must have {k} coordinates, got {len(value)}")

    def clip_project(self, x: Sequence[float]) -> list[float]:
        if len(x) != len(self.names):
            raise ValueError(f"vector must have {len(self.names)} coordinates, got {len(x)}")
        return self.project(x)

    def base_steps(self) -> list[float]:
        return [float(s) for s in self.steps]


@dataclass(frozen=True)
class OptimalPoint:
    """Best point found, with the accepted-value history for auditing.

    evaluations is the number of objective calls the search made: one
    per distinct projected point, however often the search revisits it.
    """

    x: tuple[float, ...]
    value: float
    cycles: int
    converged: bool
    evaluations: int
    history: tuple[float, ...]
    start_values: tuple[float, ...] = ()


def _uniform_draw(space: SearchSpace, seed: int | list[int]) -> list[float]:
    """A uniform point of the box, drawn by numpy's generator from seed."""
    import numpy as np
    rng = np.random.default_rng(seed)
    lo = np.asarray(space.lower)
    hi = np.asarray(space.upper)
    return (lo + rng.uniform(size=len(space.names)) * (hi - lo)).tolist()


Objective = Callable[[Sequence[float], float], float]


def coordinate_descent(objective: Objective, space: SearchSpace) -> OptimalPoint:
    """Cyclic coordinate descent with backtracking step halving.

    Each coordinate visit starts from (twice) the step that last worked
    for that coordinate, halves on failure down to MIN_STEP, and walks
    repeatedly in an accepted direction while the objective keeps
    improving. Only strict improvements are accepted, so the value
    history is strictly increasing.

    The start is scored exactly; every candidate is scored with the
    incumbent value f as its floor (see the module docstring), and a
    value <= f is rejected whether exact or not, so the search takes the
    path it would take on exact values.

    Each distinct projected point is scored once: a candidate the
    descent has already scored takes its stored value, so the objective
    must be deterministic. A stored stand-in value was <= the floor it
    was scored at, and f never decreases, so it stays rejected.
    """
    scores: dict[tuple[float, ...], float] = {}

    def score(point: list[float], floor: float) -> float:
        key = tuple(point)
        if key not in scores:
            scores[key] = float(objective(point, floor))
        return scores[key]

    x = space.clip_project([float(v) for v in space.initial])
    f = score(x, -math.inf)
    history = [f]
    base = space.base_steps()
    cur_step = list(base)
    converged = False
    cycle = 0
    for cycle in range(1, _MAX_CYCLES + 1):
        f_start = f
        for i in range(len(space.names)):
            step = min(base[i], cur_step[i] * 2.0)
            while step >= MIN_STEP:
                moved = False
                for direction in (+1.0, -1.0):
                    # walk while the same move pays off; a direction that
                    # pays once is the visit's only one
                    while True:
                        cand = list(x)
                        cand[i] += direction * step
                        cand = space.clip_project(cand)
                        fc = score(cand, f)
                        if fc <= f:
                            break
                        x, f = cand, fc
                        history.append(fc)
                        moved = True
                    if moved:
                        break
                if moved:
                    cur_step[i] = step
                    break
                step /= 2.0
            else:
                cur_step[i] = MIN_STEP
        if f - f_start <= _REL_TOL * abs(f_start):
            converged = True
            break
    return OptimalPoint(x=tuple(float(v) for v in x), value=f, cycles=cycle,
                        converged=converged, evaluations=len(scores),
                        history=tuple(history))


def multi_start(objective: Objective, space: SearchSpace,
                k: int, seed: int = 0) -> OptimalPoint:
    """Best of k coordinate-descent runs; start 0 is the plain run.

    Extra starts are uniform draws over the box; a draw sitting on the
    zero plateau (local search cannot leave it) is repaired by halving
    towards the first run's solution until the objective turns positive,
    keeping every start useful while staying deterministic in the seed.
    The objective follows the module's (x, floor) contract; the repair
    check asks for exact values.
    """
    if k < 1:
        raise ValueError(f"start count must be >= 1, got {k}")
    results = [coordinate_descent(objective, space)]
    anchor = results[0].x
    for i in range(1, k):
        x0 = space.clip_project(_uniform_draw(space, [seed, i]))
        if results[0].value > 0.0:
            for _ in range(8):
                if objective(x0, -math.inf) > 0.0:
                    break
                x0 = space.clip_project([0.5 * (v + a) for v, a in zip(x0, anchor)])
        start_space = replace(space, initial=tuple(float(v) for v in x0))
        results.append(coordinate_descent(objective, start_space))
    best = max(results, key=lambda r: r.value)
    return replace(best, start_values=tuple(r.value for r in results))


def _qds_projection(a_d2: float) -> Callable[[Sequence[float]], list[float]]:
    """Restore intensity ordering and the selection-probability simplex.

    Each coordinate is clamped into its range of qds_search_space's box
    (a_s into a sub-range, above a_d1), so the projection needs no box
    clamp before it. The probabilities p_as and p_ad1 are clamped to
    [1e-3, 0.999]; a pair then beyond the edge p_as + p_ad1 = 0.999
    (which keeps p_ad2 >= 1e-3) goes to the nearest point of the box on
    that edge: the excess is taken from the two in equal halves, neither
    going below 1e-3. A step s on p_as at the edge so moves p_as by s/2.
    p_ad1 is set as 0.999 - p_as, the same expression the edge test
    compares it with, so a projected point never re-enters the branch
    and the projection is idempotent bit for bit, as the descent's point
    memo needs.
    """

    def project(x: Sequence[float]) -> list[float]:
        y = list(x)
        y[1] = min(max(y[1], a_d2 + 1e-4), _A_D1_HI)  # a_d1
        y[0] = min(max(y[0], y[1] + 1e-3), 1.0)      # a_s above a_d1
        y[2] = min(max(y[2], _PROB_LO), _PROB_HI)    # p_as
        y[3] = min(max(y[3], _PROB_LO), _PROB_HI)    # p_ad1
        if y[3] > _PROB_HI - y[2]:                   # keep p_ad2 >= floor
            y[2] = min(max(0.5 * (_PROB_HI + y[2] - y[3]), _PROB_LO),
                       _PROB_HI - _PROB_LO)
            y[3] = _PROB_HI - y[2]
        y[4] = min(max(y[4], _PROB_LO), _PROB_HI)    # p_z
        return y

    return project


def qds_search_space(initial: Sequence[float] = REFERENCE_VECTOR,
                     a_d2: float = DEFAULT_A_D2) -> SearchSpace:
    """Search space over (a_s, a_d1, p_as, p_ad1, p_z).

    a_d1 ranges over [a_d2 + 1e-4, 0.3], so a_d2 must lie below
    0.3 - 1e-4.
    """
    if a_d2 + 1e-4 >= _A_D1_HI:
        raise ValueError(f"a_d2 must leave a_d1 room below its {_A_D1_HI} cap "
                         f"(a_d2 + 1e-4 < {_A_D1_HI}), got a_d2 = {a_d2}")
    return SearchSpace(
        names=_QDS_NAMES,
        lower=(a_d2 + 1e-4 + 1e-3, a_d2 + 1e-4, _PROB_LO, _PROB_LO, _PROB_LO),
        upper=(1.0, _A_D1_HI, _PROB_HI, _PROB_HI, _PROB_HI),
        initial=tuple(initial),
        steps=(0.05, 0.01, 0.05, 0.05, 0.05),
        project=_qds_projection(a_d2),
    )


def config_from_vector(x: Sequence[float], a_d2: float = DEFAULT_A_D2) -> IntensityConfig:
    """The configuration at (a_s, a_d1, p_as, p_ad1, p_z), p_ad2 = 1 - p_as - p_ad1."""
    a_s, a_d1, p_as, p_ad1, p_z = map(float, x)
    return IntensityConfig(a_s, a_d1, a_d2, p_as, p_ad1, 1.0 - p_as - p_ad1, p_z)


def rate_objective(params: SystemParams, model: str,
                   budget: SecurityBudget | None = None,
                   a_d2: float = DEFAULT_A_D2, *,
                   exact: dict[tuple[float, ...], RateResult] | None = None) -> Objective:
    """Objective (config-vector, floor) -> signature rate; 0 on any infeasibility.

    A vector that is no valid configuration (one qds_search_space's
    projection never yields) raises config_from_vector's ValueError.

    floor goes to the model's runner, which returns the exact rate when
    it exceeds floor and may otherwise stop early with rate 0 <= floor,
    as the module's objective contract allows. The objective's values
    depend on (x, floor) alone.

    With exact given, each result whose rate exceeds the floor it was
    scored at is stored there under tuple(x): by run_model's contract it
    is the unfloored result. In a descent these are its start and every
    point it accepted.
    """

    def objective(x: Sequence[float], floor: float) -> float:
        cfg = config_from_vector(x, a_d2)
        if model in ("smb1", "smb2"):
            runner = run_smb1 if model == "smb1" else run_smb2
            result = runner(params, cfg, budget, floor=floor)
        else:
            result = run_model(model, params, cfg, budget, floor=floor)
        if exact is not None and result.rate > floor:
            exact[tuple(x)] = result
        return result.rate

    return objective


def optimize_models(params: SystemParams, models: Sequence[str] = MODELS,
                    budget: SecurityBudget | None = None, seed: int = 0,
                    starts: int = 1, a_d2: float = DEFAULT_A_D2,
                    initial: Sequence[float] | None = None) -> dict[str, RateResult]:
    """Optimize each model, then cross-evaluate the pooled optima.

    Every model is compared at every model's best configuration, at
    the plain reference vector and at the supplied warm start, and keeps
    its own argmax. The pooling costs a handful of extra evaluations and
    removes spurious cross-model rate inversions caused by one local
    search stopping short of a configuration another search found. Each
    candidate is scored with the best rate so far as its floor, so one
    that cannot beat it stops early; only a strictly higher rate
    replaces the best, so the first of equal rates is kept. A candidate
    the model's own descents scored exactly (their starts and accepted
    points, the optimum among them) is compared by the RateResult they
    hold and not run again, the winner included.

    The reference vector is pooled as projected into the search space
    of a_d2 (unchanged at the default a_d2), so a weak decoy above its
    a_d1 still gives a valid configuration.

    Parameters
    ----------
    initial : sequence of float, optional
        Warm-start vector (e.g. the optimum of a neighbouring sweep
        point); the projected reference vector is used when omitted.
    """
    space = qds_search_space(a_d2=a_d2)
    reference = tuple(space.clip_project(REFERENCE_VECTOR))
    start = reference if initial is None else tuple(initial)
    space = replace(space, initial=start)
    candidates: list[tuple[float, ...]] = [reference, start]
    # the unfloored result at every point each model's descents scored exactly
    known: dict[str, dict[tuple[float, ...], RateResult]] = {}
    for model in models:
        known[model] = {}
        point = multi_start(rate_objective(params, model, budget, a_d2, exact=known[model]),
                            space, k=starts, seed=seed)
        candidates.append(point.x)
    # a repeated candidate scores what its first copy did, and only a
    # higher rate replaces the best, so scoring it again changes nothing
    distinct = {vec: config_from_vector(vec, a_d2) for vec in candidates}
    results = {}
    for model in models:
        best = None
        for vec, cfg in distinct.items():
            result = known[model].get(vec)
            if result is None:
                result = run_model(model, params, cfg, budget,
                                   floor=0.0 if best is None else best.rate)
            if best is None or result.rate > best.rate:
                best = result
        results[model] = best
    return results
