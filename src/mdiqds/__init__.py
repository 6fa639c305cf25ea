"""Finite-size signature-rate analysis for MDI quantum digital signatures.

A plain-float engine that computes achievable signature rates of a
three-party measurement-device-independent quantum digital signature
protocol under three finite-size parameter-estimation models, optimizes
the protocol parameters by coordinate descent, and validates every tail
bound it relies on by Monte Carlo. Importing the package or computing a
rate loads no numpy; the Monte Carlo samplers, the 3x3 table oracles
and multi-start's random starts import it when called.

``import mdiqds`` loads only the rate engine (``bounds``, ``channel``,
``models`` and ``security``). The ``optimize`` and ``montecarlo``
submodules, and the names re-exported from them, load on first access.
"""

__version__ = "0.1.0"

from .bounds import (
    binary_entropy,
    hoeffding_delta,
    inverse_binary_entropy,
    sampling_lambda,
    serfling_count_gamma,
    serfling_fraction_gamma,
    test_sample_penalty,
)
from .channel import (
    IntensityConfig,
    SinglePhotonTruth,
    SystemParams,
    TallySet,
    expected_tallies,
    sample_tallies,
    single_photon_truth,
)
from .models import (
    MODELS,
    RateResult,
    run_model,
    run_smb1,
    run_smb2,
    run_sob,
)
from .security import SecurityBudget, SecurityOutcome, solve_signature_length

# Re-exported names whose submodule loads on first access, with that submodule.
_LAZY = {
    **dict.fromkeys(("BOUND_IDS", "TrialStats", "simulate_forging", "simulate_honest",
                     "simulate_repudiation", "validate_bound"), "montecarlo"),
    **dict.fromkeys(("OptimalPoint", "SearchSpace", "coordinate_descent", "multi_start",
                     "optimize_models"), "optimize"),
}

__all__ = [
    "bounds", "channel", "models", "montecarlo", "optimize", "security",
    "binary_entropy", "hoeffding_delta", "inverse_binary_entropy", "sampling_lambda",
    "serfling_count_gamma", "serfling_fraction_gamma", "test_sample_penalty",
    "IntensityConfig", "SinglePhotonTruth", "SystemParams", "TallySet",
    "expected_tallies", "sample_tallies", "single_photon_truth",
    "MODELS", "RateResult", "run_model", "run_smb1", "run_smb2", "run_sob",
    "SecurityBudget", "SecurityOutcome", "solve_signature_length",
    *_LAZY,
]


def __getattr__(name: str):
    from importlib import import_module
    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
