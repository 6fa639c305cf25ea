"""Guards for names that tooling outside the package relies on."""
import importlib

import pytest

# bench/run.py replaces these with a bare getattr to time its calls; a
# rename must fail here rather than in the benchmark run.
BENCH_PATCH_POINTS = {
    "mdiqds.optimize": ("run_model", "run_smb1", "run_smb2"),
    "mdiqds.cli": ("optimize_models", "validate_bound", "simulate_repudiation",
                   "simulate_forging"),
    "mdiqds.montecarlo": ("_repudiation_batch",),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in BENCH_PATCH_POINTS.items()
                                         for n in names])
def test_bench_patch_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
