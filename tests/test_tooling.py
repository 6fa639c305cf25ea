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


# bench/tracing.py wraps these at the name the caller resolves; a name it
# cannot find is skipped silently and its metrics read 0, so a rename must
# fail here instead.
TRACE_POINTS = {
    "mdiqds.models": ("_build_pipeline", "_Pipeline.outcome_at", "_Pipeline.feasible_at",
                      "single_photon_bounds", "eve_error_rate", "solve_signature_length"),
    "mdiqds.security": ("inverse_binary_entropy",),
    "mdiqds.optimize": ("coordinate_descent", "rate_objective"),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in TRACE_POINTS.items()
                                         for n in names])
def test_trace_point_resolves(module, name):
    owner = importlib.import_module(module)
    for attr in name.split("."):
        owner = getattr(owner, attr, None)
    assert callable(owner)


# bench/run.py calls these directly, and reads the pair-statistics cache
# through getattr(..., None): a break there reads as 0 cache hits or an
# uncleared cache rather than an error, so it must fail here instead.
BENCH_CALL_POINTS = {
    "mdiqds.channel": ("_pair_statistics.cache_info", "_pair_statistics.cache_clear",
                       "IntensityConfig.symmetric"),
    "mdiqds.optimize": ("config_from_vector", "qds_search_space"),
    "mdiqds.cli": ("record_dict", "render_csv"),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in BENCH_CALL_POINTS.items()
                                         for n in names])
def test_bench_call_point_resolves(module, name):
    owner = importlib.import_module(module)
    for attr in name.split("."):
        owner = getattr(owner, attr, None)
    assert callable(owner)


def test_bench_reference_vector_resolves():
    from mdiqds.optimize import REFERENCE_VECTOR, qds_search_space
    assert len(REFERENCE_VECTOR) == len(qds_search_space().names)
