"""Guards for names that tooling outside the package relies on."""
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mdiqds

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
                      "eve_error_rate", "solve_signature_length"),
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


# The rate engine runs without numpy: only the Monte Carlo samplers, the
# table oracles and multi-start's extra starts import it, when called. Nor
# does it load the optimizer or Monte Carlo modules, which the package loads
# on first access; mdiqds.cli imports both, so that bench/run.py can patch
# its handlers' names as module globals. The probe runs in a fresh
# interpreter, where no other test has loaded numpy or a submodule.
NUMPY_FREE_PROBE = """
import json, sys
import mdiqds
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "mdiqds")
params = mdiqds.SystemParams(distance_km=50.0, n_pulses=1e13)
cfg = mdiqds.IntensityConfig.symmetric(a_s=0.4, a_d1=0.05, p_as=1 / 3,
                                       p_ad1=1 / 3, p_z=0.5)
rates = [mdiqds.run_model(model, params, cfg).rate for model in mdiqds.MODELS]
engine = {"modules": loaded(), "numpy": "numpy" in sys.modules}
import mdiqds.cli
code = mdiqds.cli.main(["rate", "--model", "all", "--out", sys.argv[1]])
bench_names = [callable(getattr(mdiqds.cli, name, None)) for name in
               ("optimize_models", "validate_bound", "simulate_repudiation",
                "simulate_forging")]
bench_names.append(callable(getattr(mdiqds.montecarlo, "_repudiation_batch", None)))
print(json.dumps({"numpy": "numpy" in sys.modules, "code": code, "rates": rates,
                  "engine": engine, "modules": loaded(), "bench_names": bench_names}))
"""

ENGINE_MODULES = ["mdiqds", "mdiqds.bounds", "mdiqds.channel", "mdiqds.models",
                  "mdiqds.security"]


def run_fresh(probe, *args):
    """Run probe in a fresh interpreter that imports this package; its JSON."""
    src = str(Path(mdiqds.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", probe, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_engine_path_loads_no_numpy(tmp_path):
    probe = run_fresh(NUMPY_FREE_PROBE, str(tmp_path / "rate.csv"))
    assert probe["code"] == 0 and min(probe["rates"][:2]) > 0.0
    assert probe["engine"] == {"modules": ENGINE_MODULES, "numpy": False}
    assert probe["numpy"] is False
    assert {"mdiqds.cli", "mdiqds.optimize", "mdiqds.montecarlo"} <= set(probe["modules"])
    # the names bench/run.py patches still resolve, numpy or not
    assert probe["bench_names"] == [True] * 5


# The names `from mdiqds import *` bound when the package imported every
# submodule eagerly; the optimizer's and Monte Carlo's now load on first use.
STAR_NAMES = {
    "bounds", "channel", "models", "montecarlo", "optimize", "security",
    "binary_entropy", "hoeffding_delta", "inverse_binary_entropy", "sampling_lambda",
    "serfling_count_gamma", "serfling_fraction_gamma", "test_sample_penalty",
    "IntensityConfig", "SinglePhotonTruth", "SystemParams", "TallySet",
    "expected_tallies", "sample_tallies", "single_photon_truth",
    "MODELS", "RateResult", "run_model", "run_smb1", "run_smb2", "run_sob",
    "SecurityBudget", "SecurityOutcome", "solve_signature_length",
    "OptimalPoint", "SearchSpace", "coordinate_descent", "multi_start", "optimize_models",
    "BOUND_IDS", "TrialStats", "simulate_forging", "simulate_honest",
    "simulate_repudiation", "validate_bound",
}
LAZY_NAMES = {
    "optimize": ("OptimalPoint", "SearchSpace", "coordinate_descent", "multi_start",
                 "optimize_models"),
    "montecarlo": ("BOUND_IDS", "TrialStats", "simulate_forging", "simulate_honest",
                   "simulate_repudiation", "validate_bound"),
}

LAZY_SUBMODULE_PROBE = """
import json, sys
import mdiqds
before = "mdiqds.optimize" in sys.modules or "mdiqds.montecarlo" in sys.modules
names = [mdiqds.optimize.__name__, mdiqds.montecarlo.__name__]
print(json.dumps({"before": before, "names": names}))
"""


def test_lazy_submodules_resolve_without_an_import():
    probe = run_fresh(LAZY_SUBMODULE_PROBE)
    assert probe == {"before": False, "names": ["mdiqds.optimize", "mdiqds.montecarlo"]}


def test_package_namespace_is_unchanged():
    star = {}
    exec("from mdiqds import *", star)
    assert len(STAR_NAMES) == 40 and set(star) - {"__builtins__"} == STAR_NAMES
    assert sorted(mdiqds.__all__) == sorted(STAR_NAMES)
    for module, names in LAZY_NAMES.items():
        owner = importlib.import_module(f"mdiqds.{module}")
        assert getattr(mdiqds, module) is owner
        for name in names:
            assert getattr(mdiqds, name) is getattr(owner, name)
    assert set(dir(mdiqds)) >= set(mdiqds.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        mdiqds.no_such_name
    from mdiqds import optimize_models
    assert optimize_models is mdiqds.optimize.optimize_models


def test_bench_reference_vector_resolves():
    from mdiqds.optimize import REFERENCE_VECTOR, qds_search_space
    assert len(REFERENCE_VECTOR) == len(qds_search_space().names)


# bench/tracing.py counts a solve as hinted when solve_signature_length gets
# a second positional argument (the length hint it once took), and bench/run.py
# gauges the host after each optimize.run_smb1 call: a floored evaluation must
# pass its stop by keyword and still go through that name.
def test_floored_smb1_passes_its_stop_by_keyword(monkeypatch):
    from mdiqds import models
    from mdiqds.channel import SystemParams
    from mdiqds.optimize import REFERENCE_VECTOR, config_from_vector

    solves = []
    solve = models.solve_signature_length

    def recording(feasible_at, *args, **kwargs):
        solves.append((args, kwargs))
        return solve(feasible_at, *args, **kwargs)

    monkeypatch.setattr(models, "solve_signature_length", recording)
    params = SystemParams(distance_km=50.0, n_pulses=1e13)
    cfg = config_from_vector(REFERENCE_VECTOR)
    exact = models.run_smb1(params, cfg)
    assert models.run_smb1(params, cfg, floor=0.5 * exact.rate) == exact
    assert len(solves) == 2
    for args, kwargs in solves:
        assert len(args) == 1
    assert solves[0][1] == {"stop": None}
    assert solves[1][1]["stop"] is not None


def test_floored_descent_calls_run_smb1_by_its_name(monkeypatch):
    from mdiqds import optimize
    from mdiqds.channel import SystemParams

    floors = []
    run = optimize.run_smb1

    def recording(*args, **kwargs):
        floors.append(kwargs["floor"])
        return run(*args, **kwargs)

    monkeypatch.setattr(optimize, "run_smb1", recording)
    objective = optimize.rate_objective(SystemParams(distance_km=100.0, n_pulses=1e12),
                                        "smb1")
    point = optimize.coordinate_descent(objective, optimize.qds_search_space())
    assert len(floors) == point.evaluations
    assert sum(floor > 0.0 for floor in floors) >= 0.9 * len(floors)


# bench/tracing.py counts length probes by wrapping the feasible_at that
# models.solve_signature_length receives: every probe of an smb evaluation
# must go through that argument, floored or not.
@pytest.mark.parametrize("runner", ("run_smb1", "run_smb2"))
def test_every_length_probe_goes_through_solve_signature_length(runner, monkeypatch):
    from mdiqds import models
    from mdiqds.channel import IntensityConfig, SystemParams

    calls = {"direct": 0, "solve": 0}
    feasible_at, solve = models._Pipeline.feasible_at, models.solve_signature_length

    def direct(self, length):
        calls["direct"] += 1
        return feasible_at(self, length)

    def counted_solve(feasible_at, *args, **kwargs):
        def probe(length):
            calls["solve"] += 1
            return feasible_at(length)
        return solve(probe, *args, **kwargs)

    monkeypatch.setattr(models._Pipeline, "feasible_at", direct)
    monkeypatch.setattr(models, "solve_signature_length", counted_solve)
    run = getattr(models, runner)
    params = SystemParams(distance_km=50.0, n_pulses=1e13)
    cfg = IntensityConfig.symmetric(a_s=0.3, a_d1=0.05, p_as=0.95, p_ad1=0.03, p_z=0.9)
    exact = run(params, cfg)
    assert exact.feasible
    for floor in (0.5 * exact.rate, math.nextafter(exact.rate, 0.0), exact.rate,
                  2.0 * exact.rate):
        run(params, cfg, floor=floor)
    assert calls["direct"] == calls["solve"] > 0


# bench/tracing.py counts pipeline builds by wrapping models._build_pipeline:
# the relaxed probes of a floored sob evaluation, optimistic and pessimistic
# (the certificate above the stop), must build through that name too, or
# models.pipeline_builds and builds_per_sob_eval miss them.
def test_relaxed_sob_probes_build_through_build_pipeline(monkeypatch):
    from mdiqds import models
    from mdiqds.channel import SystemParams
    from mdiqds.optimize import REFERENCE_VECTOR, config_from_vector

    calls = {"builds": 0, "blocks": 0, True: 0, False: 0}

    def counting(name, key):
        fn = getattr(models, name)

        def call(*args):
            calls[key(args)] += 1
            return fn(*args)
        monkeypatch.setattr(models, name, call)

    counting("_build_pipeline", lambda args: "builds")
    counting("_sob_block", lambda args: "blocks")
    counting("_sob_relaxed", lambda args: args[-1])  # its direction, optimistic or not
    params = SystemParams(distance_km=75.0, n_pulses=1e13)
    cfg = config_from_vector(REFERENCE_VECTOR)
    exact = models.run_sob(params, cfg)
    assert exact.feasible and calls[True] == calls[False] == 0
    for floor in (0.5 * exact.rate, math.nextafter(exact.rate, 0.0), exact.rate,
                  2.0 * exact.rate):
        models.run_sob(params, cfg, floor=floor)
    assert calls[True] > 0 and calls[False] > 0
    assert calls["builds"] == calls["blocks"] + calls[True] + calls[False]


# A stale __all__ entry fails only on `from ... import *`, which nothing in
# the suite runs: check every entry, and every name the package re-exports.
# (mdiqds.cli, a front end, keeps no __all__.)
EXPORTING = sorted(m.name for m in pkgutil.iter_modules(mdiqds.__path__) if m.name != "cli")


@pytest.mark.parametrize("module", EXPORTING)
def test_every_all_entry_resolves(module):
    owner = importlib.import_module(f"mdiqds.{module}")
    assert [name for name in owner.__all__ if not hasattr(owner, name)] == []


def test_package_exports_are_module_exports():
    exported = {}
    for module in EXPORTING:
        owner = importlib.import_module(f"mdiqds.{module}")
        exported.update((name, getattr(owner, name)) for name in owner.__all__)
    names = set(mdiqds.__all__) | {name for name in vars(mdiqds) if not name.startswith("_")}
    public = {name: getattr(mdiqds, name) for name in names
              if not isinstance(getattr(mdiqds, name), types.ModuleType)}
    assert public and {name: exported.get(name) for name in public} == public
