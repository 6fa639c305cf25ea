"""Fixtures shared by more than one test module."""
import contextlib
import io

import pytest

from mdiqds import cli, models, optimize

SWEEP_ARGV = ("sweep", "--optimize", "--model", "all", "--pulses", "1e13",
              "--start", "0", "--stop", "150", "--step", "25")


@pytest.fixture(scope="session")
def sweep_pass():
    """One seed-0 optimized sweep (the paper's curve), counted and recorded.

    Counts the forger-rate inversions (models.eve_error_rate, one inverse
    H2 each), the pipeline builds and the optimizer's evaluations, in all
    and per descent ("descents", in call order), keeps the CSV it prints
    ("stdout") and every (pipeline, L) the length searches probed.
    """
    counts = {"inverse": 0, "builds": 0, "evals": 0, "descents": []}
    probes = []
    eve, build = models.eve_error_rate, models._build_pipeline
    descent, feasible_at = optimize.coordinate_descent, models._Pipeline.feasible_at

    def counting_eve(*args):
        counts["inverse"] += 1
        return eve(*args)

    def counting_build(*args):
        counts["builds"] += 1
        return build(*args)

    def counting_descent(*args, **kwargs):
        point = descent(*args, **kwargs)
        counts["evals"] += point.evaluations
        counts["descents"].append(point.evaluations)
        return point

    def recording_feasible_at(self, length):
        probes.append((self, length))
        return feasible_at(self, length)

    patches = [(models, "eve_error_rate", counting_eve),
               (models, "_build_pipeline", counting_build),
               (optimize, "coordinate_descent", counting_descent),
               (models._Pipeline, "feasible_at", recording_feasible_at)]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(list(SWEEP_ARGV)) == 0
        counts["stdout"] = out.getvalue()
    finally:
        for owner, name, value in originals:
            setattr(owner, name, value)
    return counts, probes
