"""Command-line interface tests (invoked in-process through main)."""
import collections
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from mdiqds import SecurityBudget, SystemParams, cli
from mdiqds import montecarlo as mc
from mdiqds.channel import DEFAULT_A_D2
from mdiqds.cli import (
    CSV_COLUMNS,
    EXIT_INVALID,
    EXIT_VERIFY_FAILED,
    MAX_SWEEP_SPAN,
    _fmt,
    main,
)
from mdiqds.optimize import REFERENCE_VECTOR


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, hide_numpy=False) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter on this package; with hide_numpy,
    as if numpy were not installed."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    hide = "sys.modules['numpy'] = None; " if hide_numpy else ""
    probe = f"import sys; {hide}from mdiqds.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def parse_csv(text: str) -> tuple[list[str], list[dict], list[str]]:
    comments = [line for line in text.splitlines() if line.startswith("#")]
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    records = [dict(zip(header, line.split(","))) for line in rows[1:]]
    return header, records, comments


class TestRate:
    def test_defaults_echo_table_values(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--format", "json",
                               "--distance-km", "50")
        assert code == 0
        doc = json.loads(out)
        rec = doc["records"][0]
        assert doc["seed"] == 0
        assert rec["model"] == "smb1"
        assert rec["a_d2"] == 5e-4
        assert rec["a_s"] == 0.4
        assert rec["p_z"] == 0.5
        assert rec["feasible"] is True
        assert rec["R"] > 0

    def test_far_distance_reports_infeasible(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--distance-km", "10000")
        assert code == 0
        _, records, _ = parse_csv(out)
        assert records[0]["feasible"] == "false"
        assert records[0]["R"] == "0"

    def test_strict_infeasible_exit(self, capsys):
        code, _, _ = run_cli(capsys, "rate", "--distance-km", "10000", "--strict")
        assert code == 2

    def test_invalid_config_exit(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--a-d1", "0.5")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("flag,value,field", [
        ("--pulses", "inf", "n_pulses"), ("--pulses", "nan", "n_pulses"),
        ("--distance-km", "nan", "distance_km"), ("--distance-km", "inf", "distance_km"),
        ("--alpha", "nan", "alpha"), ("--alpha", "inf", "alpha"),
        ("--a-s", "inf", "a_s"),
    ])
    def test_non_finite_params_rejected(self, capsys, flag, value, field):
        code, out, err = run_cli(capsys, "rate", flag, value)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    def test_pulse_count_above_limit_rejected(self, capsys):
        code, out, err = run_cli(capsys, "rate", "--pulses", "1e160")
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and "n_pulses must be <= 1e+150" in err

    def test_pulse_count_at_limit_runs(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--model", "all", "--pulses", "1e150")
        assert code == 0
        _, records, _ = parse_csv(out)
        assert [r["feasible"] for r in records] == ["true", "true", "false"]

    def test_epsilon_flag_sets_the_security_level(self, capsys):
        """--epsilon reaches the budget: the solved length meets 1e-8, not 1e-5."""
        code, out, _ = run_cli(capsys, "rate", "--epsilon", "1e-8", "--format", "json")
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["feasible"] is True
        assert 1e-9 < rec["P_rep"] <= 1e-8

    def test_unknown_flag_exit(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--no-such-flag", "1")
        assert code == 1

    def test_model_all_emits_three_records(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--model", "all",
                               "--distance-km", "50")
        assert code == 0
        _, records, _ = parse_csv(out)
        assert [r["model"] for r in records] == ["sob", "smb1", "smb2"]

    def test_x_sample_below_one_reports_infeasible(self, capsys):
        """The decoy gates pass but n_X1 < 1: an infeasible record, exit 0."""
        code, out, err = run_cli(capsys, "rate", "--model", "smb1", "--distance-km", "200",
                                 "--p-dc", "1e-5", "--pulses", "276292500.9",
                                 "--a-s", "0.9857", "--a-d1", "0.0095", "--p-as", "0.5572",
                                 "--p-ad1", "0.4418", "--p-z", "0.5683", "--format", "json")
        assert code == 0, err
        rec = json.loads(out)["records"][0]
        assert rec["feasible"] is False
        assert rec["reason"] == "x-basis single-photon bound below one"

    @pytest.mark.slow
    def test_optimized_rate_positive(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--model", "smb1",
                               "--distance-km", "150", "--pulses", "1e14",
                               "--optimize", "--format", "json")
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["feasible"] is True
        assert rec["R"] > 0


# SHA-256 of the stdout of `mdiqds sweep --optimize --model all --pulses 1e13
# --start 0 --stop 150 --step 25`, version comment included
OPTIMIZED_SWEEP_SHA256 = "87615349374f562cccb05bba2981e4807597a67ceab95cf35a897e6ddd525c01"
# SHA-256 of the stdout of `mdiqds verify --eps 0.01 --trials 1000000 --seed 0
# --bounds hoeffding,serfling_fraction,serfling_count,sampling_lambda,eq3_penalty`
MC_VERIFY_ARGV = ("verify", "--eps", "0.01", "--trials", "1000000", "--seed", "0",
                  "--bounds", "hoeffding,serfling_fraction,serfling_count,"
                              "sampling_lambda,eq3_penalty")
MC_VERIFY_SHA256 = "5a316b4e0dd355be068df27a609641fbb854c68fef808febe69fca4e933dc48f"
# SHA-256 of the stdout of `mdiqds simulate-protocol`, all options at their
# defaults
SIMULATE_PROTOCOL_SHA256 = "afe8066352ea5587b84c3414a791f540cb66b05b401eddc369c67206ef341b7e"


class TestSweep:
    def test_distance_grid_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "distance",
                               "--start", "0", "--stop", "300", "--step", "10",
                               "--model", "all", "--pulses", "1e12")
        assert code == 0
        header, records, comments = parse_csv(out)
        assert header == list(CSV_COLUMNS)
        assert len(records) == 3 * 31
        assert comments[0].startswith("# mdiqds csv schema v")
        assert "seed=0" in comments[1]
        assert comments[2] == "# estimator=channel-model (1,1) means"
        distances = [float(r["distance_km"]) for r in records]
        assert distances == sorted(distances)

    def test_sob_constant_in_pulse_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "pulses",
                               "--values", "1e13,1e14,1e15,1e16",
                               "--distance-km", "150", "--model", "sob",
                               "--a-s", "0.28", "--p-as", "0.9",
                               "--p-ad1", "0.05", "--p-z", "0.9")
        assert code == 0
        _, records, _ = parse_csv(out)
        assert len(records) == 4
        assert all(r["feasible"] == "true" for r in records)
        assert len({r["R"] for r in records}) == 1

    def test_empty_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "distance",
                               "--start", "100", "--stop", "50", "--step", "10")
        assert code == 1

    def test_fractional_step_hits_stop_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "distance", "--format", "json",
                               "--start", "0", "--stop", "1", "--step", "0.1")
        assert code == 0
        distances = [r["distance_km"] for r in json.loads(out)["records"]]
        assert len(distances) == 11
        assert distances[-1] == 1.0

    def test_missing_range_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--axis", "distance")
        assert code == 1
        code, _, err = run_cli(capsys, "sweep", "--axis", "distance",
                               "--start", "0", "--stop", "inf", "--step", "10")
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("start,stop,step", [
        ("0", "1e300", "1e-300"),          # the quotient overflows
        ("-1.7e308", "1.7e308", "1"),      # the difference overflows
        ("-1.7e308", "1.7e308", "1e300"),
    ])
    def test_infinite_point_count_rejected(self, capsys, start, stop, step):
        code, out, err = run_cli(capsys, "sweep", f"--start={start}", f"--stop={stop}",
                                 "--step", step)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and "no finite point count" in err

    @pytest.mark.parametrize("axis,message", [
        (("--start", "0", "--stop", "10", "--step", "0"), "step must be positive, got 0.0"),
        (("--values", "2,1"), "axis values must be ascending"),
    ], ids=["zero-step", "descending-values"])
    def test_bad_axis_rejected(self, capsys, axis, message):
        code, out, err = run_cli(capsys, "sweep", *axis)
        assert (code, out, err) == (EXIT_INVALID, "", f"error: {message}\n")

    def test_oversized_point_count_rejected_before_any_point(self, capsys, monkeypatch):
        """1e18 points: rejected from the step count, before the list is built."""
        evaluated = []
        monkeypatch.setattr(cli, "_point_records",
                            lambda *args: evaluated.append(args) or ([], None))
        code, out, err = run_cli(capsys, "sweep", "--start", "0", "--stop", "1e15",
                                 "--step", "1e-3")
        assert code == EXIT_INVALID
        assert out == "" and evaluated == []
        assert err.startswith("error: ") and f"more than {MAX_SWEEP_SPAN:g} steps" in err

    def test_one_point_sweep_prints_the_rate(self, capsys):
        args = ("--model", "all", "--distance-km", "30", "--format", "json")
        rate = run_cli(capsys, "rate", *args)
        assert rate[0] == 0
        assert run_cli(capsys, "sweep", *args, "--values", "30") == rate

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "distance",
                               "--start", "40", "--stop", "80", "--step", "40",
                               "--model", "smb1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"].startswith("mdiqds-records-v")
        assert doc["estimator"] == "channel-model (1,1) means"
        assert len(doc["records"]) == 2
        assert all("n_pool" in r for r in doc["records"])

    @pytest.mark.slow
    def test_optimized_sweep_warm_chains(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "distance",
                               "--start", "40", "--stop", "80", "--step", "40",
                               "--model", "smb1", "--optimize", "--seed", "3",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["optimized"] is True
        rates = [r["R"] for r in doc["records"]]
        assert all(r > 0 for r in rates)
        assert rates[0] > rates[1]  # shorter distance wins

    def test_optimized_sweep_output_pinned(self, capsys):
        """The paper's rate-vs-distance curve, byte for byte (the benchmark's
        seed-0 optimized sweep). A change meant to leave the numbers alone
        must leave this digest alone."""
        code, out, _ = run_cli(capsys, "sweep", "--optimize", "--model", "all",
                               "--pulses", "1e13", "--start", "0", "--stop", "150",
                               "--step", "25")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == OPTIMIZED_SWEEP_SHA256

    def test_byte_deterministic(self, capsys, tmp_path):
        args = ("sweep", "--axis", "distance", "--start", "20", "--stop", "60",
                "--step", "20", "--model", "all", "--seed", "9")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestConfigRoundTrip:
    def test_dump_and_reload(self, capsys, tmp_path):
        first = tmp_path / "cfg1.json"
        second = tmp_path / "cfg2.json"
        code, _, _ = run_cli(capsys, "rate", "--distance-km", "42",
                             "--p-z", "0.7", "--model", "smb2",
                             "--dump-config", str(first))
        assert code == 0
        code, _, _ = run_cli(capsys, "rate", "--config", str(first),
                             "--dump-config", str(second))
        assert code == 0
        assert json.loads(first.read_text()) == json.loads(second.read_text())

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"distance_km": 42.0, "p_z": 0.7}))
        code, out, _ = run_cli(capsys, "rate", "--config", str(cfg),
                               "--distance-km", "55", "--format", "json")
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["distance_km"] == 55.0
        assert rec["p_z"] == 0.7

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        code, _, err = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == 1

    @pytest.mark.parametrize("document", [
        "5", "null", '["a_s"]', '{"a_s": "x"}', '{"pulses": "1e12"}', '{"pulses": true}',
        '{"starts": "3"}', '{"starts": 2.5, "optimize": true}', '{"seed": false}',
        '{"optimize": "no"}', '{"optimize": 0}', '{"model": 1}', '{"format": null}',
    ])
    def test_wrong_typed_values_rejected(self, capsys, tmp_path, document):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(document)
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: config ")

    @pytest.mark.parametrize("document,message", [
        ('{"model": "nope"}', "model must be one of ('sob', 'smb1', 'smb2', 'all'), "
                              "got 'nope'"),
        ('{"format": "xml"}', "format must be 'csv' or 'json', got 'xml'"),
        ('{"starts": 0}', "starts must be >= 1, got 0"),
    ], ids=["model", "format", "starts"])
    def test_out_of_range_values_rejected(self, capsys, tmp_path, document, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(document)
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg))
        assert (code, out, err) == (EXIT_INVALID, "", f"error: {message}\n")

    def test_deeply_nested_config_rejected(self, capsys, tmp_path):
        """Nesting past the JSON parser's recursion limit is a config error."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg))
        assert code == EXIT_INVALID
        assert out == ""
        assert err == f"error: config {cfg}: JSON nested too deeply\n"


class TestOptimize:
    @pytest.mark.slow
    def test_optimize_beats_plain_rate(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--model", "smb1",
                               "--distance-km", "50", "--format", "json",
                               "--seed", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["optimized"] is True
        optimized = doc["records"][0]["R"]
        code, out, _ = run_cli(capsys, "rate", "--model", "smb1",
                               "--distance-km", "50", "--format", "json")
        plain = json.loads(out)["records"][0]["R"]
        assert optimized >= plain > 0


    def test_weak_decoy_above_the_reference_decoy(self, capsys):
        # rate accepts this configuration; optimize must not reject it
        code, out, err = run_cli(capsys, "optimize", "--model", "smb1",
                                 "--a-d2", "0.06", "--a-d1", "0.1", "--a-s", "0.5",
                                 "--distance-km", "50", "--format", "json")
        assert code == 0, err
        rec = json.loads(out)["records"][0]
        assert rec["a_d2"] == 0.06
        assert rec["feasible"] is True

    @pytest.mark.parametrize("a_d2", ["0.3", "0.2999"])
    def test_weak_decoy_leaving_no_decoy_range_rejected(self, capsys, a_d2):
        # rate accepts this configuration, but the search range of a_d1,
        # [a_d2 + 1e-4, 0.3], is empty: the error names a_d2 and the cap
        code, out, err = run_cli(capsys, "optimize", "--a-d2", a_d2, "--a-d1", "0.31",
                                 "--a-s", "0.4")
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("error: a_d2 must leave a_d1 room below its 0.3 cap")
        assert f"got a_d2 = {a_d2}" in err


def usable_cpus(monkeypatch, count: int) -> None:
    """Make the Monte Carlo jobs see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "20000", "--seed", "1")
        assert code == 0
        assert "PASS overall failures=0" in out
        for line in out.splitlines():
            if line.startswith(("PASS", "FAIL")):
                assert line.startswith("PASS")

    def test_verify_output_pinned(self, capsys):
        """The benchmark's seed-0 verify report, byte for byte: its counts
        cross 122 chunk edges of every check."""
        code, out, _ = run_cli(capsys, *MC_VERIFY_ARGV)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == MC_VERIFY_SHA256

    def test_no_thread_outlives_the_run(self, capsys, monkeypatch):
        """The threads that run the checks side by side end with the call,
        in verify and in simulate-protocol."""
        usable_cpus(monkeypatch, 8)
        before = threading.active_count()
        for command in ("verify", "simulate-protocol"):
            code, _, _ = run_cli(capsys, command, "--trials", "2000")
            assert code == 0 and threading.active_count() == before

    def test_broken_bound_fails_the_report(self, capsys, monkeypatch):
        """A deviation half as wide as Hoeffding's is violated too often."""
        hoeffding_delta = mc.hoeffding_delta
        monkeypatch.setattr(mc, "hoeffding_delta",
                            lambda mean, eps: 0.5 * hoeffding_delta(mean, eps))
        code, out, _ = run_cli(capsys, "verify", "--trials", "5000",
                               "--bounds", "hoeffding")
        assert code == EXIT_VERIFY_FAILED
        lines = out.splitlines()
        assert lines[1].startswith("FAIL bound:hoeffding ")
        assert lines[-1] == "FAIL overall failures=1"

    def test_report_bytes_reproducible(self, tmp_path):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert main(["verify", "--trials", "20000", "--seed", "2",
                     "--out", str(out_a)]) == 0
        assert main(["verify", "--trials", "20000", "--seed", "2",
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bound_subset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "5000",
                               "--bounds", "hoeffding,sampling_lambda")
        assert code == 0
        assert out.count("bound:") == 2

    def test_unknown_bound_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--bounds", "nope")
        assert code == 1

    @pytest.mark.parametrize("bounds", [",", "", " , "])
    def test_empty_bound_list_rejected(self, capsys, bounds):
        code, out, err = run_cli(capsys, "verify", "--trials", "100", "--bounds", bounds)
        assert code == EXIT_INVALID
        assert out == ""
        assert err == "error: --bounds names no bound id\n"

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_non_positive_trials_rejected(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify", "--trials", trials)
        assert code == EXIT_INVALID
        assert out == ""
        assert err == f"error: trials must be >= 1, got {trials}\n"

    def test_shared_experiments_drawn_once(self, capsys, monkeypatch):
        """The three ids on one hypergeometric experiment share its draw."""
        draws = collections.Counter()
        draw_outcomes = mc._draw_outcomes

        def counting(experiment, trials, seed):
            draws[experiment, trials, seed] += 1
            return draw_outcomes(experiment, trials, seed)

        monkeypatch.setattr(mc, "_draw_outcomes", counting)
        code, _, _ = run_cli(capsys, "verify", "--trials", "2000", "--seed", "3",
                             "--bounds", ",".join(mc.BOUND_IDS))
        assert code == 0
        assert draws == {((50_000, 50_000, 1_000), 2000, 3): 1,
                         ((25_500, 25_500, 1_000), 2000, 3): 1}

    def test_no_draw_outlives_the_run(self, capsys):
        """Runs in one process print what fresh processes print."""
        runs = [run_cli(capsys, "verify", "--trials", "20000", "--seed", seed)
                for seed in ("1", "2")]
        fresh = [run_fresh("verify", "--trials", "20000", "--seed", seed)
                 for seed in ("1", "2")]
        assert [(code, out) for code, out, _ in runs] == [
            (proc.returncode, proc.stdout) for proc in fresh]
        assert runs[0][1] != runs[1][1]


class TestChecksSideBySide:
    """verify and simulate-protocol run their checks as jobs on the usable
    CPUs: the reports, exit codes and errors do not depend on how many."""

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_reports_pinned_at_any_cpu_count(self, capsys, monkeypatch, cpus):
        usable_cpus(monkeypatch, cpus)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        code, out, _ = run_cli(capsys, *MC_VERIFY_ARGV)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == MC_VERIFY_SHA256
        code, out, _ = run_cli(capsys, "simulate-protocol")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_PROTOCOL_SHA256
        # one thread per job up to the CPU count, the calling thread among
        # them: verify has 5 jobs, simulate-protocol 3, and one CPU starts none
        assert len(started) == min(5, cpus) - 1 + min(3, cpus) - 1

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("argv,message", [
        (("--eps", "1e-4"), "coverage runs need eps >= 1e-3 to be measurable"),
        (("--trials", "0"), "trials must be >= 1, got 0"),
    ], ids=["eps", "trials"])
    def test_rejections_at_any_cpu_count(self, capsys, monkeypatch, cpus, argv, message):
        usable_cpus(monkeypatch, cpus)
        assert run_cli(capsys, "verify", *argv) == (EXIT_INVALID, "", f"error: {message}\n")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_job_starts_after_a_failure(self, capsys, monkeypatch, cpus):
        """Every bound check raises: the first job's error is reported, and
        neither simulator, whose jobs come after the failures, runs."""
        usable_cpus(monkeypatch, cpus)
        called = collections.Counter()

        def failing(bound, **kwargs):
            called[bound] += 1
            raise ValueError(f"{bound} failed")

        monkeypatch.setattr(cli, "validate_bound", failing)
        for name in ("simulate_repudiation", "simulate_forging"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: called.update([name]))
        code, out, err = run_cli(capsys, "verify", "--trials", "100")
        assert (code, out, err) == (EXIT_INVALID, "", "error: hoeffding failed\n")
        # the second CPU may take the shared-draw job before the first fails
        assert called["hoeffding"] == 1
        assert set(called) <= {"hoeffding", "serfling_fraction"}

    def test_checks_after_a_failure_on_one_cpu_do_not_run(self, capsys, monkeypatch):
        """On one CPU the jobs run in order: the bound checks up to the one
        that raises run, the simulators after it do not."""
        usable_cpus(monkeypatch, 1)
        called = []
        validate_bound = cli.validate_bound

        def failing_at_eq3(bound, **kwargs):
            called.append(bound)
            if bound == "eq3_penalty":
                raise ValueError("eq3_penalty failed")
            return validate_bound(bound, **kwargs)

        monkeypatch.setattr(cli, "validate_bound", failing_at_eq3)
        for name in ("simulate_repudiation", "simulate_forging"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: called.append(name))
        code, out, err = run_cli(capsys, "verify", "--trials", "100")
        assert (code, out, err) == (EXIT_INVALID, "", "error: eq3_penalty failed\n")
        assert called == list(mc.BOUND_IDS)


class TestSimulateProtocol:
    def test_report_lines(self, capsys):
        code, out, _ = run_cli(capsys, "simulate-protocol", "--trials", "5000",
                               "--length", "1000")
        assert code == 0
        for label in ("honest-abort", "repudiation", "forging"):
            assert label in out

    def test_default_report_pinned(self, capsys):
        """The default report, byte for byte: its repudiation check is
        simulate_repudiation, as verify's is: one batch, at the mismatch
        count of largest exact success probability, with each recipient's
        half drawn from its own generator."""
        code, out, _ = run_cli(capsys, "simulate-protocol")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_PROTOCOL_SHA256

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_non_positive_trials_rejected(self, capsys, trials):
        code, out, err = run_cli(capsys, "simulate-protocol", "--trials", trials)
        assert code == EXIT_INVALID
        assert out == ""
        assert err == f"error: trials must be >= 1, got {trials}\n"

    @pytest.mark.parametrize("length", ["0", "1", "-5"])
    def test_degenerate_length_rejected(self, capsys, length):
        code, out, err = run_cli(capsys, "simulate-protocol", "--trials", "100",
                                 "--length", length)
        assert code == EXIT_INVALID
        assert out == ""
        assert err == f"error: length must be >= 2, got {length}\n"

    @pytest.mark.parametrize("flag,name,value", [
        ("--error-rate", "error_rate", "2.0"), ("--error-rate", "error_rate", "-0.1"),
        ("--error-rate", "error_rate", "nan"), ("--p-e", "p_e", "1.5"),
        ("--s-a", "s_a", "-0.1"),
    ])
    def test_rate_outside_unit_interval_rejected(self, capsys, flag, name, value):
        code, out, err = run_cli(capsys, "simulate-protocol", "--trials", "100",
                                 flag, value)
        assert code == EXIT_INVALID
        assert out == ""
        assert err == f"error: {name} must be in [0, 1], got {value}\n"

    def test_verifier_threshold_above_one_rejected(self, capsys):
        code, out, err = run_cli(capsys, "simulate-protocol", "--trials", "1000",
                                 "--s-v", "5")
        assert code == EXIT_INVALID
        assert out == ""
        assert err == "error: need 0 <= s_a < s_v <= 1, got s_a=0.05, s_v=5.0\n"


@pytest.mark.parametrize("value,text", [
    (True, "true"), (3, "3"), (2.0, "2"), (0.5, "0.5"), (-0.0, "0"),
    (1e16, "1e+16"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (float("nan"), "nan"),
])
def test_fmt_shortest_text(value, text):
    """Integral floats below 1e16 print as integers, the rest as repr."""
    assert _fmt(value) == text


def test_run_config_defaults_are_the_engines():
    """The CLI's default flags build the engine's default records."""
    defaults = cli.RunConfig()
    assert defaults.system_params() == SystemParams()
    assert defaults.budget() == SecurityBudget()
    assert cli._config_vector(defaults.intensity_config()) == REFERENCE_VECTOR
    assert defaults.a_d2 == DEFAULT_A_D2


@pytest.mark.parametrize("argv,seed", [
    (("rate", "--seed", "-1"), -1),
    (("sweep", "--optimize", "--starts", "2", "--seed", "-2", "--values", "50"), -2),
    (("verify", "--trials", "100", "--seed", "-1"), -1),
    (("simulate-protocol", "--trials", "100", "--seed", "-1"), -1),
    (("rate", "--config", "{config}"), -1),
])
def test_negative_seed_rejected(capsys, tmp_path, argv, seed):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": -1}))
    code, out, err = run_cli(capsys, *(a.format(config=config) for a in argv))
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: seed must be >= 0, got {seed}\n"


# one more trial than the cap: rejected before any draw is made
@pytest.mark.parametrize("command", ["verify", "simulate-protocol"])
def test_trials_above_the_cap_rejected_before_drawing(capsys, monkeypatch, command):
    def no_draw(trials):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(mc, "_chunks", no_draw)
    trials = mc._MAX_TRIALS + 1
    code, out, err = run_cli(capsys, command, "--trials", str(trials))
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"error: trials must be <= {mc._MAX_TRIALS}, got {trials}\n"


# Without numpy the rate engine runs, and a command that draws exits 1
# with one line, not a traceback.
@pytest.mark.parametrize("argv", [
    ("verify", "--trials", "10"),
    ("simulate-protocol", "--trials", "10"),
    ("optimize", "--starts", "2"),
], ids=["verify", "simulate-protocol", "optimize"])
def test_numpy_commands_without_numpy_exit_1(argv):
    proc = run_fresh(*argv, hide_numpy=True)
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID, "")
    assert proc.stderr == f"error: {argv[0]} needs numpy, which is not installed\n"
