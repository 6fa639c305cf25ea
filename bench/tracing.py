"""Outside-in layer tracing for the benchmark.

The tracer replaces functions of the ``mdiqds`` modules with wrappers
that record one span (name, start, end, parent) per call, plus counters
for calls too frequent to span. Each wrapper is installed at the name
its caller resolves: ``models`` and ``optimize`` import functions by
name, so ``mdiqds.models.expected_tallies`` is wrapped, not
``mdiqds.channel.expected_tallies``. Nothing in ``src/`` knows about
the tracer. A target that a later refactor removes is skipped, and its
metrics then read 0.

Spans are kept in flat arrays while the traced passes run and written
to one ``.npz`` file afterwards.
"""
from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODELS = ("sob", "smb1", "smb2")
_EVALS = tuple(f"models.eval.{m}" for m in MODELS)
_OPTIMIZE_SPANS = ("optimize.point", "optimize.descent", "optimize.objective")


class Tracer:
    """Spans and counters of the traced passes of one benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cells: dict[str, list[int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(result) may count."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        start, end, names, parent, stack = (self.start, self.end, self.name,
                                            self.parent, self.stack)

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def counted(self, key: str, fn):
        """Wrap a one-argument fn to count calls only, at least cost.

        For calls too frequent to span; the fixed signature and the list
        cell keep the wrapper near the cost of a bare call.
        """
        cell = self.cells.setdefault(key, [0])

        def wrapper(x):
            cell[0] += 1
            return fn(x)

        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every traced function at the name its caller resolves."""
        mod = {n: importlib.import_module(f"mdiqds.{n}")
               for n in ("bounds", "security", "models", "optimize", "cli")}
        c = self.counts

        def tally(key: str, test):
            def after(result):
                c[key] += bool(test(result))
            return after

        def spanned(name, after=None):
            return lambda fn: self.span(name, fn, after)

        # cli: the rendering of records and the calls cli makes into layers
        def count_records(fn):
            def render(records, *args, **kwargs):
                c["cli.records"] += len(records)
                return fn(records, *args, **kwargs)
            return self.span("cli.render", render)

        self._patch(mod["cli"], "render_csv", count_records)
        self._patch(mod["cli"], "optimize_models", spanned("optimize.point"))
        check_failed = tally("montecarlo.checks_failed",
                             lambda r: r.frequency > r.bound)

        def check(result):
            c["montecarlo.trials"] += result.trials
            check_failed(result)

        for name in ("validate_bound", "simulate_repudiation", "simulate_forging"):
            self._patch(mod["cli"], name, spanned("montecarlo.check", check))

        # optimize: descents report their own work in the OptimalPoint
        def descent(point):
            c["optimize.descents"] += 1
            c["optimize.evals"] += point.evaluations
            c["optimize.cycles"] += point.cycles
            c["optimize.accepted"] += len(point.history) - 1

        self._patch(mod["optimize"], "coordinate_descent",
                    spanned("optimize.descent", descent))
        zero = tally("optimize.zero_evals", lambda value: value == 0.0)
        self._patch(mod["optimize"], "rate_objective",
                    lambda fn: lambda *a, **k: self.span(
                        "optimize.objective", fn(*a, **k), zero))

        # models: the three runners, at both names they are resolved by
        for model in MODELS:
            feasible = tally(f"models.feasible.{model}", lambda r: r.feasible)
            self._patch(mod["models"], f"run_{model}",
                        spanned(f"models.eval.{model}", feasible))
            if model != "sob":
                self._patch(mod["optimize"], f"run_{model}",
                            spanned(f"models.eval.{model}", feasible))
        self._patch(mod["models"], "_build_pipeline", spanned("models.build"))
        pipeline = getattr(mod["models"], "_Pipeline", None)
        if pipeline is not None:
            self._patch(pipeline, "outcome_at", spanned("models.outcome_at"))

        # channel, decoy, security and bounds, as models and security see them
        self._patch(mod["models"], "expected_tallies", spanned("channel.tallies"))
        self._patch(mod["models"], "single_photon_truth", spanned("channel.truth"))
        self._patch(mod["models"], "single_photon_bounds",
                    spanned("decoy.bounds", tally("decoy.gate_fails",
                                                  lambda r: not r.valid)))
        self._patch(mod["models"], "eve_error_rate", spanned("security.eve_rate"))

        def solve(fn):
            def solve_signature_length(feasible_at, *args, **kwargs):
                hint = kwargs.get("hint", args[1] if len(args) > 1 else None)
                c["security.hinted_solves"] += hint is not None
                return fn(self.counted("security.l_probes", feasible_at),
                          *args, **kwargs)
            return self.span("security.solve", solve_signature_length)

        self._patch(mod["models"], "solve_signature_length", solve)
        self._patch(mod["security"], "inverse_binary_entropy",
                    spanned("bounds.inv_h2"))
        self._patch(mod["bounds"], "binary_entropy",
                    lambda fn: self.counted("bounds.h2_in_inv", fn))

    def uninstall(self) -> None:
        """Restore every patched name and read the pair-statistics cache."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        stats = getattr(importlib.import_module("mdiqds.channel"),
                        "_pair_statistics", None)
        if stats is not None:
            info = stats.cache_info()
            self.counts["channel.pair_hits"] += info.hits
            self.counts["channel.pair_misses"] += info.misses

    # -- reading ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so that no numpy view pins the growable buffers
        return {"start": np.frombuffer(self.start, dtype=float).copy(),
                "end": np.frombuffer(self.end, dtype=float).copy(),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "names": np.array(self.names)}

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per traced pass (ratios are per their base)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - child, minlength=k)
        ids = self._ids
        c = self.counts + Counter({key: cell[0] for key, cell in self.cells.items()})

        def n(name):
            return float(calls[ids[name]]) if name in ids else 0.0

        def s(name, arr=total):
            return float(arr[ids[name]]) if name in ids else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        sob_builds = self._builds_under_sob(a)
        evals = {m: n(f"models.eval.{m}") for m in MODELS}
        all_evals = sum(evals.values())
        feasible = sum(c[f"models.feasible.{m}"] for m in MODELS)
        pair = c["channel.pair_hits"] + c["channel.pair_misses"]
        out = {
            "models.pipeline_builds": n("models.build") / passes,
            "models.builds_per_sob_eval": ratio(sob_builds, evals["sob"]),
            "models.build_self_s": s("models.build", own) / passes,
            "models.outcome_at_calls": n("models.outcome_at") / passes,
            **{f"models.evals.{m}": evals[m] / passes for m in MODELS},
            **{f"models.eval_s.{m}": s(f"models.eval.{m}") / passes for m in MODELS},
            "models.feasible_ratio": ratio(feasible, all_evals),
            "channel.tallies_calls": n("channel.tallies") / passes,
            "channel.tallies_s": s("channel.tallies") / passes,
            "channel.truth_calls": n("channel.truth") / passes,
            "channel.truth_s": s("channel.truth") / passes,
            "channel.pair_stats_hit_ratio": ratio(c["channel.pair_hits"], pair),
            "decoy.bounds_calls": n("decoy.bounds") / passes,
            "decoy.bounds_s": s("decoy.bounds") / passes,
            "decoy.gate_fail_ratio": ratio(c["decoy.gate_fails"], n("decoy.bounds")),
            "bounds.inv_h2_calls": n("bounds.inv_h2") / passes,
            "bounds.inv_h2_s": s("bounds.inv_h2") / passes,
            "bounds.h2_calls_per_inv": ratio(c["bounds.h2_in_inv"], n("bounds.inv_h2")),
            "security.eve_rate_calls": n("security.eve_rate") / passes,
            "security.eve_rate_s": s("security.eve_rate") / passes,
            "security.solves": n("security.solve") / passes,
            "security.solve_s": s("security.solve") / passes,
            "security.l_probes_per_solve": ratio(c["security.l_probes"],
                                                 n("security.solve")),
            "security.hinted_solve_share": ratio(c["security.hinted_solves"],
                                                 n("security.solve")),
            "optimize.points": n("optimize.point") / passes,
            "optimize.descents": c["optimize.descents"] / passes,
            "optimize.evals": c["optimize.evals"] / passes,
            "optimize.evals_per_point": ratio(c["optimize.evals"], n("optimize.point")),
            "optimize.cycles_per_descent": ratio(c["optimize.cycles"],
                                                 c["optimize.descents"]),
            "optimize.accepted_ratio": ratio(c["optimize.accepted"], c["optimize.evals"]),
            "optimize.zero_eval_ratio": ratio(c["optimize.zero_evals"],
                                              n("optimize.objective")),
            "optimize.self_s": sum(s(x, own) for x in _OPTIMIZE_SPANS) / passes,
            "montecarlo.checks": n("montecarlo.check") / passes,
            "montecarlo.check_s": s("montecarlo.check") / passes,
            "montecarlo.trials_per_s": ratio(c["montecarlo.trials"],
                                             s("montecarlo.check")),
            "montecarlo.checks_failed": c["montecarlo.checks_failed"] / passes,
            "cli.records": c["cli.records"] / passes,
            "cli.render_s": s("cli.render") / passes,
            "trace.spans": len(dur) / passes,
        }
        return out

    def _builds_under_sob(self, a: dict[str, np.ndarray]) -> int:
        """Pipeline builds whose nearest enclosing evaluation is sob."""
        ids = self._ids
        if "models.build" not in ids or "models.eval.sob" not in ids:
            return 0
        evals = {ids[name] for name in _EVALS if name in ids}
        sob, build = ids["models.eval.sob"], ids["models.build"]
        names, parents = a["name"].tolist(), a["parent"].tolist()
        owner = [-1] * len(names)  # name id of the nearest enclosing eval span
        count = 0
        for i, (nid, p) in enumerate(zip(names, parents)):
            owner[i] = nid if nid in evals else (owner[p] if p >= 0 else -1)
            count += nid == build and owner[i] == sob
        return count
