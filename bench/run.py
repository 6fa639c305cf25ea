"""Benchmark of the mdiqds rate engine: end-to-end and per-layer metrics.

Run from the repository root; the package is imported from ``src/``:

    python3 bench/run.py --workload optimized-sweep --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all      # every workload, one table

Workloads (``bench/README.md`` says why each was chosen):

- ``optimized-sweep``: ``mdiqds sweep --optimize --model all --pulses 1e13
  --start 0 --stop 150 --step 25``, run through ``mdiqds.cli.main``.
- ``rate-grid``: ``run_model`` for every model over distance 0-300 km
  (step 5) and pulses 1e11-1e16, no optimizer, rendered with
  ``mdiqds.cli.render_csv``.
- ``mc-verify``: ``mdiqds verify --eps 0.01 --trials 1000000`` over five
  pinned bound ids.

Seed 0 gives the stock inputs; any other seed perturbs the start vector
(optimized-sweep), the intensity configuration (rate-grid) or the Monte
Carlo seed (mc-verify). Each pass starts with a cold pair-statistics
cache, as a fresh CLI process does.

``--trace 0`` reports the end-to-end metrics of untraced passes. Their
times are scaled by a gauge of the host's speed taken between the
program's calls (see ``Gauge``), so that they follow the program rather
than the neighbours' load on a shared host; the raw medians are report
fields.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead; the spans
go to ``bench/out/``. Before the last line the run prints a table and a
``report`` JSON line (versions, output SHA-256, sample counts); the last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import os

# Fixed before numpy is imported, so every run uses one BLAS/OpenMP thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("optimized-sweep", "rate-grid", "mc-verify")

EPSILON = 1e-5  # security level of every workload (the CLI default)
SETUP_REPEATS = 5
SEED_JITTER = 0.01  # relative spread of a non-default seed's start vector

SWEEP_ARGS = ["sweep", "--optimize", "--model", "all", "--pulses", "1e13",
              "--start", "0", "--stop", "150", "--step", "25"]
SWEEP_POINTS = 7
GRID_DISTANCES = tuple(float(d) for d in range(0, 301, 5))
GRID_PULSES = (1e11, 1e12, 1e13, 1e14, 1e15, 1e16)
# Pinned rather than "all", so a bound id added later does not read as a
# slower verify.
VERIFY_BOUNDS = ("hoeffding", "serfling_fraction", "serfling_count",
                 "sampling_lambda", "eq3_penalty")
VERIFY_CHECKS = tuple(f"bound:{b}" for b in VERIFY_BOUNDS) + (
    "simulator:repudiation", "simulator:forging")
CHECK_FUNCTIONS = ("validate_bound", "simulate_repudiation", "simulate_forging")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_p50_ms": "ms",
                    "peak_rss_mb": "MB"}

# The host's speed drifts with its neighbours' load, by up to half again
# within seconds, and the slowdown shows in CPU time as well as in wall
# time. So the benchmark gauges it: a fixed loop that resembles the
# workload's kind of work runs between the program's calls, and every time
# is scaled to a host on which one loop takes its nominal time. The loops
# do not touch the program, so a change to the program moves the scaled
# times in full.


def python_loop() -> float:
    """Fixed pure-Python arithmetic, about 10 us."""
    x = 0.5
    for _ in range(60):
        x = math.exp(-x) * 0.9 + math.log1p(x) * 0.1
    return x


def numpy_loop() -> int:
    """Fixed numpy sampling and counting, about 0.3 ms."""
    k = np.random.default_rng(7).hypergeometric(5000, 5000, 100, size=2000)
    return int((k < 50).sum())


@dataclass(frozen=True)
class Gauge:
    """A fixed loop, run between the program's calls, that times the host."""

    loop: Callable[[], object]
    nominal: float   # seconds one loop takes on the reference host
    span: float      # seconds of the run that one loop gauges (~1% overhead)


PYTHON_GAUGE = Gauge(python_loop, 10e-6, 1e-3)
NUMPY_GAUGE = Gauge(numpy_loop, 300e-6, 30e-3)


def host_speed(slowness) -> float:
    """Reciprocal of the mean of loop times over their nominal time.

    A loop slower than three times the median was preempted, not slowed
    with the program, and is left out.
    """
    cap = 3.0 * statistics.median(slowness)
    return 1.0 / statistics.fmean(x for x in slowness if x <= cap)


# Time from a fresh interpreter to the first rate of every model, with the
# host's speed gauged just before and just after.
SETUP_PROBE = inspect.getsource(python_loop) + """
import math, sys, time


def gauge():
    out = []
    for _ in range(100):
        t = time.perf_counter()
        python_loop()
        out.append(time.perf_counter() - t)
    return out


refs = gauge()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mdiqds
params = mdiqds.SystemParams(distance_km=50.0, n_pulses=1e13)
cfg = mdiqds.IntensityConfig.symmetric(a_s=0.4, a_d1=0.05, p_as=1/3,
                                       p_ad1=1/3, p_z=0.5)
for model in mdiqds.MODELS:
    mdiqds.run_model(model, params, cfg)
setup = time.perf_counter() - t0
print(repr(setup), *map(repr, refs + gauge()))
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import mdiqds from this checkout's src/, never from elsewhere."""
    if not (SRC / "mdiqds" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'mdiqds'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mdiqds
    import mdiqds.cli
    if Path(mdiqds.__file__).resolve().parent != SRC / "mdiqds":
        fail(f"imported mdiqds from {mdiqds.__file__}, not from {SRC}")
    return mdiqds


@dataclass
class Pass:
    """One pass over a workload's fixed work."""

    sha256: str      # digest of the rendered output (the text is not kept)
    calls: array     # seconds per top-level call, gauge loops excluded
    slowness: array  # each gauge loop's time over its nominal time
    attempted: int   # top-level calls the pass makes
    failed: int      # calls that raised, exited non-zero or broke an invariant
    wall: float      # seconds of program work (output checks and gauges excluded)


class CallLog:
    """Times of the top-level calls of a pass, and the gauge loops run
    between calls and after each unit inside them.

    A unit is a call the program makes inside a top-level call (for the
    sweep, one rate evaluation of the optimizer), so that a long call
    still has the host's speed gauged every few milliseconds.
    """

    def __init__(self, gauge: Gauge | None) -> None:
        self.gauge = gauge
        self.calls = array("d")
        self.slowness = array("d")
        self.gauge_total = 0.0
        self.last = perf_counter()

    def gauge_host(self) -> None:
        """Gauge the host: one loop per gauge span since the last gauge
        (at least one), so every stretch of the pass weighs in by its
        length. Without a gauge (traced passes) it does nothing.
        """
        if self.gauge is None:
            return
        loop, nominal = self.gauge.loop, self.gauge.nominal
        start = perf_counter()
        for _ in range(1 + int((start - self.last) / self.gauge.span)):
            t0 = perf_counter()
            loop()
            self.slowness.append((perf_counter() - t0) / nominal)
        self.last = perf_counter()
        self.gauge_total += self.last - start

    def timed(self, fn, *args, **kwargs):
        """Call fn, record its time as a top-level call, then gauge."""
        gauged0 = self.gauge_total
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append(perf_counter() - t0 - (self.gauge_total - gauged0))
            self.gauge_host()

    def top(self, fn):
        return lambda *args, **kwargs: self.timed(fn, *args, **kwargs)

    def unit(self, fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.gauge_host()
        return call


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record_ok(rec: dict) -> bool:
    """Output invariants of one rate record (CSV column names)."""
    r, n, bits = float(rec["R"]), float(rec["N"]), float(rec["n_bits"])
    # R is n_bits/N (or 1/N_s), so R*N rounds back to within 2 ulp of n_bits
    if abs(r * n - bits) > 2.0 * math.ulp(bits):
        return False
    if rec["feasible"] in (True, "true"):
        worst = max(float(rec[k]) for k in ("P_rob", "P_rep", "P_forge"))
        return worst <= EPSILON and 0.0 < float(rec["s_a"]) < float(rec["s_v"]) < 0.5
    return True


@contextlib.contextmanager
def patched(targets, wrap):
    """Replace each module.<name> in targets with wrap(original)."""
    originals = [(module, name, getattr(module, name))
                 for module, names in targets for name in names]
    for module, name, fn in originals:
        setattr(module, name, wrap(fn))
    try:
        yield
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


def run_cli(mdiqds, argv: list[str], gauge: Gauge | None, top: tuple[str, ...],
            units=()):
    """Run the CLI in-process, timing the calls made through the named cli
    functions and the unit calls made through ``units`` inside them.

    Returns (exit code or None when it raised, stdout text, log, wall
    without the gauge loops).
    """
    buf = io.StringIO()
    log = CallLog(gauge)
    with patched([(mdiqds.cli, top)], log.top), patched(units, log.unit), \
            contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            code = mdiqds.cli.main(argv)
        except Exception:  # counted as failed calls; keep measuring
            traceback.print_exc(file=sys.stderr)
            code = None
        wall = perf_counter() - t0 - log.gauge_total
    return code, buf.getvalue(), log, wall


def jittered_vector(seed: int) -> tuple[float, ...]:
    """REFERENCE_VECTOR, or a point near it inside qds_search_space()."""
    from mdiqds.optimize import REFERENCE_VECTOR, qds_search_space
    if seed == 0:
        return tuple(REFERENCE_VECTOR)
    rng = random.Random(seed)
    x = [v * (1.0 + rng.uniform(-SEED_JITTER, SEED_JITTER)) for v in REFERENCE_VECTOR]
    return tuple(float(v) for v in qds_search_space().clip_project(np.array(x)))


def sweep_workload(mdiqds, seed: int):
    argv = SWEEP_ARGS + ["--seed", str(seed)]
    if seed != 0:
        for flag, v in zip(("--a-s", "--a-d1", "--p-as", "--p-ad1", "--p-z"),
                           jittered_vector(seed)):
            argv += [flag, repr(v)]

    # the rate evaluations of the optimizer, its descents and its pooling
    units = [(mdiqds.optimize, ("run_model", "run_smb1", "run_smb2"))]

    def run(gauge: Gauge | None) -> Pass:
        code, text, log, wall = run_cli(mdiqds, argv, gauge, ("optimize_models",), units)
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        if code != 0 or len(log.calls) != SWEEP_POINTS or len(rows) != 1 + 3 * SWEEP_POINTS:
            failed = SWEEP_POINTS
        else:
            header = rows[0].split(",")
            records = [dict(zip(header, row.split(","))) for row in rows[1:]]
            failed = len({rec["distance_km"] for rec in records if not record_ok(rec)})
        return Pass(digest(text), log.calls, log.slowness, SWEEP_POINTS, failed, wall)

    return run


def grid_workload(mdiqds, seed: int):
    from mdiqds.optimize import config_from_vector
    cfg = config_from_vector(jittered_vector(seed))
    points = [(mdiqds.SystemParams(distance_km=d, n_pulses=n), model)
              for d in GRID_DISTANCES for n in GRID_PULSES for model in mdiqds.MODELS]

    def run(gauge: Gauge | None) -> Pass:
        log = CallLog(gauge)
        results = []
        errors: list[str] = []
        t0 = perf_counter()
        for params, model in points:
            try:
                results.append(log.timed(mdiqds.run_model, model, params, cfg))
            except Exception:  # counted as a failed call; keep measuring
                errors.append(traceback.format_exc())
        records = [mdiqds.cli.record_dict(r, cfg) for r in results]
        text = mdiqds.cli.render_csv(records, seed, False)
        wall = perf_counter() - t0 - log.gauge_total
        sys.stderr.write("".join(errors))
        failed = len(errors) + sum(not record_ok(r) for r in records)
        return Pass(digest(text), log.calls, log.slowness, len(points), failed, wall)

    return run


def verify_workload(mdiqds, seed: int):
    argv = ["verify", "--eps", "0.01", "--trials", "1000000", "--seed", str(seed),
            "--bounds", ",".join(VERIFY_BOUNDS)]
    # the repudiation check's batches, one per mismatch count it tries
    units = [(mdiqds.montecarlo, ("_repudiation_batch",))]

    def run(gauge: Gauge | None) -> Pass:
        code, text, log, wall = run_cli(mdiqds, argv, gauge, CHECK_FUNCTIONS, units)
        lines = text.splitlines()
        passed = sum(any(line.startswith(f"PASS {name} ") for line in lines)
                     for name in VERIFY_CHECKS)
        failed = len(VERIFY_CHECKS) - passed
        if (code != 0 and failed == 0) or len(log.calls) != len(VERIFY_CHECKS):
            failed = len(VERIFY_CHECKS)
        return Pass(digest(text), log.calls, log.slowness, len(VERIFY_CHECKS), failed, wall)

    return run


WORKLOAD_FACTORIES = {"optimized-sweep": sweep_workload, "rate-grid": grid_workload,
                      "mc-verify": verify_workload}
# The engine workloads are interpreter-bound; mc-verify is numpy sampling.
WORKLOAD_GAUGES = {"optimized-sweep": PYTHON_GAUGE, "rate-grid": PYTHON_GAUGE,
                   "mc-verify": NUMPY_GAUGE}


def fresh_caches(mdiqds) -> None:
    """Empty the channel's pair-statistics cache, as in a new process."""
    cache = getattr(mdiqds.channel, "_pair_statistics", None)
    if cache is not None:
        cache.cache_clear()


def setup_probe() -> tuple[float, float]:
    """Fresh-process import plus first evaluation of every model.

    Returns (seconds, host speed around them).
    """
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    setup, *refs = map(float, proc.stdout.split())
    return setup, host_speed([t / PYTHON_GAUGE.nominal for t in refs])


def environment(mdiqds) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "mdiqds": mdiqds.__version__,
            **{var: os.environ[var] for var in THREAD_VARS}}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            per_layer_units: dict[str, str]) -> dict:
    mdiqds = import_package()
    run = WORKLOAD_FACTORIES[workload](mdiqds, seed)
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    # set-up probes are spread over the run, so they see more than one
    # speed state of the host
    probe_at = [] if trace else [seconds * k / SETUP_REPEATS
                                 for k in range(SETUP_REPEATS)]
    setup: list[tuple[float, float]] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    deadline = start + seconds
    while True:
        while probe_at and perf_counter() - start >= probe_at[0]:
            probe_at.pop(0)
            setup.append(setup_probe())
        fresh_caches(mdiqds)
        plain.append(run(WORKLOAD_GAUGES[workload]))
        if tracer is not None:
            # ungauged, so that no gauge loop lands inside a traced span
            fresh_caches(mdiqds)
            tracer.install()
            try:
                traced.append(run(None))
            finally:
                tracer.uninstall()
        # start another pass if at least half of it is due to fit, so that a
        # run lasts about `seconds` on average and uses the whole of it
        step = sum(statistics.median(p.wall for p in side) for side in (plain, traced) if side)
        if perf_counter() + step / 2 > deadline:
            break
    setup += [setup_probe() for _ in probe_at]

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    hashes = {p.sha256 for p in passes}
    speeds = [host_speed(p.slowness) for p in plain]
    wall = statistics.median(p.wall * v for p, v in zip(plain, speeds))
    calls = [t * v for p, v in zip(plain, speeds) for t in p.calls]
    report = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(plain), "traced_passes": len(traced), "calls": attempted,
        "failed_frac": failed / attempted,
        "output_sha256": sorted(hashes)[0], "deterministic": len(hashes) == 1,
        "env": environment(mdiqds),
        "samples": {"setup_s": len(setup), "wall_s": len(plain),
                    "call_p50_ms": len(calls)},
        "setup_raw_s": statistics.median(t for t, _ in setup) if setup else None,
        "wall_raw_s": statistics.median(p.wall for p in plain),
        "host_speed": statistics.median(speeds),
    }
    if len(calls) >= 1000:  # at least ten samples beyond p99
        report["call_p99_ms"] = statistics.quantiles(calls, n=100)[98] * 1e3
    if tracer is not None:
        metrics = tracer.metrics(passes=len(traced))
        metrics["trace.overhead"] = (statistics.median(p.wall for p in traced)
                                     / report["wall_raw_s"] - 1.0)
        if set(metrics) != set(per_layer_units):
            fail(f"per-layer metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(per_layer_units))}")
        units = per_layer_units
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.npz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(t * v for t, v in setup),
            "wall_s": wall,
            "call_p50_ms": statistics.median(calls) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0 and len(hashes) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return {"report": report, "result": result}


def load_per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_run(out: dict) -> None:
    report, result = out["report"], out["result"]
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"passes={report['passes']} calls={report['calls']} "
          f"failed_frac={report['failed_frac']:.6g}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    if "call_p99_ms" in report:
        print(f"  {'call_p99_ms':34s} {report['call_p99_ms']:>16.6g} ms "
              f"(n={report['samples']['call_p50_ms']}, report only)")
    print(json.dumps({"report": report}))


def run_all(args) -> int:
    """Every workload in its own process; one table, then all results."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json at {ROOT}")
    if args.workload == "all":
        return run_all(args)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  load_per_layer_units())
    print_run(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
