"""Finite-size signature-rate analysis for MDI quantum digital signatures.

A plain-float engine that computes achievable signature rates of a
three-party measurement-device-independent quantum digital signature
protocol under three finite-size parameter-estimation models, optimizes
the protocol parameters by coordinate descent, and validates every tail
bound it relies on by Monte Carlo. Importing the package or computing a
rate loads no numpy; the Monte Carlo samplers, the 3x3 table oracles
and multi-start's random starts import it when called.
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
from .montecarlo import (
    BOUND_IDS,
    TrialStats,
    simulate_forging,
    simulate_honest,
    simulate_repudiation,
    validate_bound,
)
from .optimize import (
    OptimalPoint,
    SearchSpace,
    coordinate_descent,
    multi_start,
    optimize_models,
)
from .security import SecurityBudget, SecurityOutcome, solve_signature_length
