"""Coordinate-descent parameter optimization at one operating point.

Starts from a plain reference configuration and tunes the signal/decoy
intensities, their selection probabilities and the basis bias for each
estimation model, printing the before/after configurations and the rate
improvements.
"""
from mdiqds.channel import SystemParams
from mdiqds.models import run_model
from mdiqds.optimize import (
    REFERENCE_VECTOR,
    config_from_vector,
    coordinate_descent,
    qds_search_space,
    rate_objective,
)

DISTANCE_KM = 100.0
N_PULSES = 1e13
NAMES = ("a_s", "a_d1", "p_as", "p_ad1", "p_z")


def show(label, vec, rate):
    pieces = ", ".join(f"{n}={v:.4f}" for n, v in zip(NAMES, vec))
    print(f"  {label:9}: rate = {rate:11.4e}  ({pieces})")


def main():
    params = SystemParams(distance_km=DISTANCE_KM, n_pulses=N_PULSES)
    print(f"# local search at d = {DISTANCE_KM} km, N = {N_PULSES:.0e}")
    warm = REFERENCE_VECTOR
    for model in ("sob", "smb1", "smb2"):
        objective = rate_objective(params, model)
        reference_rate = run_model(model, params,
                                   config_from_vector(REFERENCE_VECTOR)).rate
        point = coordinate_descent(objective, qds_search_space())
        restarted = False
        if point.value == 0.0:
            # stuck on the infeasible plateau around the reference start;
            # restart from the previous model's optimum
            point = coordinate_descent(objective, qds_search_space(initial=warm))
            restarted = True
        print(f"{model}:")
        show("reference", REFERENCE_VECTOR, reference_rate)
        show("optimized", point.x, point.value)
        if restarted:
            print("  (reference start infeasible; restarted from the previous optimum)")
        gain = point.value / reference_rate if reference_rate > 0 else float("inf")
        print(f"  {point.cycles} cycles, {point.evaluations} evaluations, "
              f"{len(point.history)} accepted steps, gain x{gain:.2f}\n")
        if point.value > 0.0:
            warm = point.x


if __name__ == "__main__":
    main()
