"""Command-line front end: rate points, sweeps, optimization, verification.

Configuration comes from built-in defaults, an optional JSON config file
and command-line flags, in that precedence order (flags win). Records go
to stdout or --out as CSV (fixed, versioned column set with metadata in
comment lines) or JSON. All output is byte-deterministic for a fixed
seed: no timestamps, full-precision shortest-round-trip numbers.

Exit codes: 0 success, 1 invalid configuration, 2 every requested result
infeasible under --strict, 3 verification failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass

from . import __version__
from .channel import DEFAULT_A_D2, IntensityConfig, SystemParams
from .models import MODELS, RateResult, run_model
from .montecarlo import (
    BOUND_IDS,
    SHARED_DRAW_IDS,
    run_jobs,
    simulate_forging,
    simulate_honest,
    simulate_repudiation,
    validate_bound,
)
from .optimize import optimize_models
from .security import SecurityBudget

SCHEMA_VERSION = "1"
# Where the records' single-photon bounds come from: the channel model's
# (1,1) means, not decoy-state estimates from tallies
ESTIMATOR = "channel-model (1,1) means"

CSV_COLUMNS = ("model", "distance_km", "N", "a_s", "a_d1", "a_d2", "p_as",
               "p_ad1", "p_z", "L", "n_bits", "R", "p_E", "s_a", "s_v",
               "P_rob", "P_rep", "P_forge", "feasible")

# Largest (stop - start) / step a --start/--stop/--step sweep accepts.
MAX_SWEEP_SPAN = 1e6

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3

# JSON values each RunConfig field type accepts, and how an error names them
_JSON_KINDS = {"bool": ((bool,), "true or false"), "int": ((int,), "an integer"),
               "float": ((int, float), "a number"), "str": ((str,), "a string")}


@dataclass
class RunConfig:
    """Effective configuration of one CLI invocation."""

    alpha: float = 0.2
    eta_d: float = 0.5
    p_dc: float = 1e-7
    e_d: float = 0.03
    r_test: float = 0.055
    epsilon: float = 1e-5
    eps_pe: float = 1e-12
    eps_sf: float = 1e-12
    g_prob: float = 1e-12
    distance_km: float = 100.0
    pulses: float = 1e12
    a_s: float = 0.4
    a_d1: float = 0.05
    a_d2: float = DEFAULT_A_D2
    p_as: float = 1.0 / 3.0
    p_ad1: float = 1.0 / 3.0
    p_z: float = 0.5
    model: str = "smb1"
    optimize: bool = False
    starts: int = 1
    seed: int = 0
    format: str = "csv"

    def system_params(self, distance_km: float | None = None,
                      pulses: float | None = None) -> SystemParams:
        return SystemParams(
            alpha=self.alpha, eta_d=self.eta_d, p_dc=self.p_dc, e_d=self.e_d,
            distance_km=self.distance_km if distance_km is None else distance_km,
            n_pulses=self.pulses if pulses is None else pulses,
            r_test=self.r_test)

    def intensity_config(self) -> IntensityConfig:
        return IntensityConfig.symmetric(a_s=self.a_s, a_d1=self.a_d1,
                                         p_as=self.p_as, p_ad1=self.p_ad1,
                                         p_z=self.p_z, a_d2=self.a_d2)

    def budget(self) -> SecurityBudget:
        return SecurityBudget(epsilon=self.epsilon, eps_pe=self.eps_pe,
                              eps_sf=self.eps_sf, g_prob=self.g_prob)

    def models(self) -> tuple[str, ...]:
        return MODELS if self.model == "all" else (self.model,)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        kinds = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(kinds)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            types, what = _JSON_KINDS[kinds[key]]
            # bool is an int subclass: only a bool field takes true/false
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise ValueError(f"config key {key!r} must be {what}, got {value!r}")
        return cls(**data)

    def validate(self) -> None:
        if self.model not in MODELS + ("all",):
            raise ValueError(f"model must be one of {MODELS + ('all',)}, got {self.model!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.starts < 1:
            raise ValueError(f"starts must be >= 1, got {self.starts}")
        _check_seed(self.seed)
        # constructing the engine records runs their range checks
        self.system_params()
        self.intensity_config()
        self.budget()


def _fmt(value) -> str:
    """Shortest round-trip text for numbers; lowercase booleans."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    return str(value)


def record_dict(result: RateResult, fallback_cfg: IntensityConfig) -> dict:
    cfg = result.config if result.config is not None else fallback_cfg
    return {
        "model": result.model,
        "distance_km": result.distance_km,
        "N": result.n_pulses,
        "a_s": cfg.a_s, "a_d1": cfg.a_d1, "a_d2": cfg.a_d2,
        "p_as": cfg.p_as, "p_ad1": cfg.p_ad1, "p_z": cfg.p_z,
        "L": result.length, "n_bits": result.n_bits, "R": result.rate,
        "p_E": result.p_e, "s_a": result.s_a, "s_v": result.s_v,
        "P_rob": result.p_robust, "P_rep": result.p_repudiation,
        "P_forge": result.p_forge, "feasible": result.feasible,
        "N_s": result.block_size, "n_pool": result.n_pool,
        "reason": result.reason,
    }


def render_csv(records: list[dict], seed: int, optimized: bool) -> str:
    lines = [f"# mdiqds csv schema v{SCHEMA_VERSION}",
             f"# engine={__version__} seed={seed} optimized={_fmt(optimized)}",
             f"# estimator={ESTIMATOR}",
             ",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(rec[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(records: list[dict], seed: int, optimized: bool) -> str:
    doc = {"schema": f"mdiqds-records-v{SCHEMA_VERSION}",
           "engine_version": __version__, "seed": seed,
           "optimized": optimized, "estimator": ESTIMATOR, "records": records}
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting with status 2."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ValueError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--dump-config", metavar="PATH",
                   help="write the effective configuration as JSON and continue")
    p.add_argument("--model", choices=MODELS + ("all",))
    p.add_argument("--optimize", action="store_true", default=None)
    p.add_argument("--starts", type=int, help="optimizer multi-start count")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when every requested result is infeasible")
    # one flag per float field of RunConfig: --eta-d sets eta_d
    for field_ in dataclasses.fields(RunConfig):
        if field_.type == "float":
            p.add_argument("--" + field_.name.replace("_", "-"), type=float, dest=field_.name)


def build_parser() -> _Parser:
    parser = _Parser(prog="mdiqds",
                     description="Finite-size signature rates for MDI quantum "
                                 "digital signatures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="signature rate at one configuration")
    _add_common(p_rate)

    p_sweep = sub.add_parser("sweep", help="rate table over one axis")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=("distance", "pulses"), default="distance")
    p_sweep.add_argument("--start", type=float)
    p_sweep.add_argument("--stop", type=float)
    p_sweep.add_argument("--step", type=float)
    p_sweep.add_argument("--values", help="comma-separated axis values (overrides start/stop/step)")

    p_opt = sub.add_parser("optimize", help="optimize parameters at one point")
    _add_common(p_opt)

    p_verify = sub.add_parser("verify", help="Monte Carlo checks of every tail bound")
    p_verify.add_argument("--eps", type=float, default=0.01)
    p_verify.add_argument("--trials", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--bounds", default="all",
                          help=f"comma list from {', '.join(BOUND_IDS)} or 'all'")
    p_verify.add_argument("--out", help="output path (default stdout)")

    p_sim = sub.add_parser("simulate-protocol",
                           help="messaging-stage Monte Carlo at explicit thresholds")
    p_sim.add_argument("--length", type=int, default=2000)
    p_sim.add_argument("--error-rate", type=float, default=0.02, dest="error_rate")
    p_sim.add_argument("--s-a", type=float, default=0.05, dest="s_a")
    p_sim.add_argument("--s-v", type=float, default=0.15, dest="s_v")
    p_sim.add_argument("--p-e", type=float, default=0.3, dest="p_e")
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", help="output path (default stdout)")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"config {args.config}: JSON nested too deeply") from None
    cfg = RunConfig.from_dict(data)
    for field_ in dataclasses.fields(RunConfig):
        value = getattr(args, field_.name, None)
        if value is not None:
            setattr(cfg, field_.name, value)
    cfg.validate()
    return cfg


def _config_vector(cfg: IntensityConfig) -> tuple[float, ...]:
    """The optimizer's search vector (a_s, a_d1, p_as, p_ad1, p_z) of cfg."""
    return (cfg.a_s, cfg.a_d1, cfg.p_as, cfg.p_ad1, cfg.p_z)


def _point_records(cfg: RunConfig, distance_km: float, pulses: float,
                   warm: tuple[float, ...] | None) -> tuple[list[dict], tuple[float, ...] | None]:
    """Records for all requested models at one axis point."""
    params = cfg.system_params(distance_km=distance_km, pulses=pulses)
    budget = cfg.budget()
    fallback = cfg.intensity_config()
    records = []
    if cfg.optimize:
        results = optimize_models(params, cfg.models(), budget=budget,
                                  seed=cfg.seed, starts=cfg.starts,
                                  a_d2=cfg.a_d2,
                                  initial=warm or _config_vector(fallback))
        for model in cfg.models():
            records.append(record_dict(results[model], fallback))
        feasible = [r for r in results.values() if r.feasible]
        if feasible:
            warm = _config_vector(max(feasible, key=lambda r: r.rate).config)
    else:
        for model in cfg.models():
            records.append(record_dict(run_model(model, params, fallback, budget),
                                       fallback))
    return records, warm


def _axis_values(args: argparse.Namespace) -> list[float]:
    if args.values:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    else:
        if args.start is None or args.stop is None or args.step is None:
            raise ValueError("sweep needs either --values or --start/--stop/--step")
        if not all(math.isfinite(v) for v in (args.start, args.stop, args.step)):
            raise ValueError("--start/--stop/--step must be finite")
        if args.step <= 0:
            raise ValueError(f"step must be positive, got {args.step}")
        # start + i*step, not a running sum, so the end point does not drift
        stop = args.stop + 1e-9 * max(1.0, abs(args.stop))
        span = (stop - args.start) / args.step
        # a tiny step, or bounds whose difference overflows, make it infinite
        if not math.isfinite(span):
            raise ValueError(f"sweep from {args.start} to {args.stop} in steps of "
                             f"{args.step} has no finite point count")
        # checked before the list is built: a huge count would exhaust memory
        if span > MAX_SWEEP_SPAN:
            raise ValueError(f"sweep from {args.start} to {args.stop} in steps of "
                             f"{args.step} has more than {MAX_SWEEP_SPAN:g} steps")
        values = [args.start + i * args.step for i in range(math.floor(span) + 1)]
    if not values:
        raise ValueError("sweep range is empty")
    if sorted(values) != values:
        raise ValueError("axis values must be ascending")
    return values


def cmd_points(args: argparse.Namespace) -> int:
    """rate, optimize and sweep: records at each (distance, pulses) point.

    rate and optimize evaluate the one configured point; sweep walks its
    axis, each optimized point starting from the previous point's best
    configuration.
    """
    cfg = load_config(args)
    if args.command == "optimize":
        cfg.optimize = True
    if args.dump_config:
        _emit(json.dumps(cfg.to_dict(), indent=2) + "\n", args.dump_config)
    if args.command != "sweep":
        points = [(cfg.distance_km, cfg.pulses)]
    elif args.axis == "distance":
        points = [(value, cfg.pulses) for value in _axis_values(args)]
    else:
        points = [(cfg.distance_km, value) for value in _axis_values(args)]
    records: list[dict] = []
    warm: tuple[float, ...] | None = None
    for distance, pulses in points:
        point, warm = _point_records(cfg, distance, pulses, warm)
        records.extend(point)
    render = render_csv if cfg.format == "csv" else render_json
    _emit(render(records, cfg.seed, cfg.optimize), args.out)
    if args.strict and not any(r["feasible"] for r in records):
        return EXIT_INFEASIBLE
    return EXIT_OK


def _check_seed(seed: int) -> None:
    # numpy's generators reject a negative seed with a bare message
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def cmd_verify(args: argparse.Namespace) -> int:
    """Monte Carlo checks of the chosen bound ids and of the repudiation
    and forging simulators.

    Each random experiment is one job, and ``run_jobs`` runs the jobs
    side by side on the usable CPUs (on one CPU, in order on the calling
    thread). The report lists the checks in a fixed order, so its bytes
    do not depend on the CPU count.
    """
    _check_seed(args.seed)
    if args.bounds == "all":
        bound_ids = list(BOUND_IDS)
    else:
        bound_ids = [b.strip() for b in args.bounds.split(",") if b.strip()]
        if not bound_ids:
            raise ValueError("--bounds names no bound id")
        for b in bound_ids:
            if b not in BOUND_IDS:
                raise ValueError(f"unknown bound id {b!r}")
    # the positions of the ids on each experiment: the ids that share a draw
    # are one job, which draws it once
    groups: dict[str, list[int]] = {}
    for at, bound in enumerate(bound_ids):
        groups.setdefault("shared" if bound in SHARED_DRAW_IDS else bound, []).append(at)

    def check_bounds(positions: list[int]) -> dict:
        drawn: dict = {}
        return {at: validate_bound(bound_ids[at], eps=args.eps, trials=args.trials,
                                   seed=args.seed, drawn=drawn) for at in positions}

    *bound_runs, rep, forge = run_jobs([
        *(functools.partial(check_bounds, positions) for positions in groups.values()),
        lambda: simulate_repudiation(2000, s_a=0.05, s_v=0.15, trials=args.trials,
                                     seed=args.seed),
        lambda: simulate_forging(200, p_e=0.3, s_v=0.25, trials=args.trials,
                                 seed=args.seed),
    ])
    stats = {}
    for run in bound_runs:
        stats.update(run)
    checks = [(f"bound:{bound}", stats[at].frequency, stats[at].bound)
              for at, bound in enumerate(bound_ids)]
    checks.append(("simulator:repudiation", rep.frequency, rep.bound))
    checks.append(("simulator:forging", forge.frequency, forge.bound))

    lines = [f"# mdiqds verify v{SCHEMA_VERSION} engine={__version__} "
             f"seed={args.seed} trials={args.trials} eps={_fmt(args.eps)}"]
    failures = 0
    for name, freq, target in checks:
        ok = freq <= target
        failures += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} empirical={_fmt(freq)} "
                     f"target={_fmt(target)}")
    lines.append(f"{'FAIL' if failures else 'PASS'} overall failures={failures}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def cmd_simulate_protocol(args: argparse.Namespace) -> int:
    """The honest, repudiation and forging simulators at explicit
    thresholds, run side by side as verify's checks are."""
    _check_seed(args.seed)
    honest, rep, forge = run_jobs([
        lambda: simulate_honest(args.length, args.error_rate, args.s_a,
                                args.trials, args.seed),
        lambda: simulate_repudiation(args.length, args.s_a, args.s_v,
                                     args.trials, args.seed),
        lambda: simulate_forging(args.length, args.p_e, args.s_v,
                                 args.trials, args.seed),
    ])
    lines = [f"# mdiqds simulate-protocol v{SCHEMA_VERSION} engine={__version__} "
             f"seed={args.seed} trials={args.trials} L={args.length}"]
    for stats in (honest, rep, forge):
        lines.append(f"{stats.label}: frequency={_fmt(stats.frequency)} "
                     f"wilson99={_fmt(stats.wilson99_upper)} bound={_fmt(stats.bound)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "rate": cmd_points,
            "sweep": cmd_points,
            "optimize": cmd_points,
            "verify": cmd_verify,
            "simulate-protocol": cmd_simulate_protocol,
        }[args.command]
        return handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ModuleNotFoundError as exc:
        # the Monte Carlo commands and multi-start's extra starts import numpy
        # when they run; the rate engine does without it
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy, which is not installed",
              file=sys.stderr)
        return EXIT_INVALID


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
