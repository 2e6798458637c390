"""Subcommand behavior, exit codes, manifests, and serialization."""

import dataclasses
import importlib.metadata
import inspect
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from math import exp, isfinite
from pathlib import Path

import numpy as np
import pytest

import raisepeel
import raisepeel.cli as cli_mod
import raisepeel.scgf as scgf_mod
import raisepeel.spinchain as spinchain_mod
import raisepeel.stationary as stationary_mod
import raisepeel.tq as tq_mod
from raisepeel.cli import main


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv)
    return code, json.loads(out)


def strip_timestamps(document):
    document = json.loads(json.dumps(document))
    document["manifest"].pop("started")
    document["manifest"].pop("finished")
    return document


def test_stationary_payload():
    code, doc = run_json(["stationary", "--length", "4", "--integers"])
    assert code == 0
    assert doc["drift_diamond"] == "12/5"
    assert doc["drift_global"] == "1/5"
    assert doc["expected_peaks"] == "8/5"
    assert doc["prob_omega_global"] == "1/5"
    assert doc["integer_sum"] == 10
    assert doc["integer_form"]["0,1,0,1"] == 3
    assert doc["state_count"] == 6
    assert all(doc["checks"].values())
    # exact values are fraction strings, never floats
    assert isinstance(doc["drift_diamond"], str)
    assert isinstance(doc["probabilities"]["2,1,2,3"], str)


def test_tile_balance_failure_is_a_failed_row(monkeypatch):
    # negative control: a peak mean off by one breaks the tile balance, and
    # the reports say so instead of ending in a traceback
    peaks = stationary_mod.expected_peaks
    monkeypatch.setattr(stationary_mod, "expected_peaks", lambda length: peaks(length) + 1)
    code, out = run_cli(["verify-all", "--lmax", "4", "--nmax", "1"])
    assert code == 1
    assert "  FAILED tile-balance-L04\n" in out
    code, doc = run_json(["stationary", "--length", "4"])
    assert code == 1
    assert doc["checks"]["tile_balance"] is False


def test_manifest_contents():
    code, doc = run_json(["stationary", "--length", "2"])
    manifest = doc["manifest"]
    assert manifest["subcommand"] == "stationary"
    assert manifest["parameters"]["length"] == 2
    assert manifest["version"]
    assert manifest["passed"] is True
    assert manifest["started"] <= manifest["finished"]


def test_tq_lambda_example():
    code, doc = run_json(["tq", "--n", "3", "--check", "lambda"])
    assert code == 0
    block = doc["checks"]["lambda"]
    assert block["alpha"] == "9/70"
    assert block["beta"] == "129/35"
    assert list(block) == ["alpha", "beta", "alpha_formula", "beta_formula",
                           "alpha_matches", "beta_matches", "passed"]
    assert block["alpha_matches"] is True and block["beta_matches"] is True
    assert block["passed"] is True


def test_tq_all_checks():
    code, doc = run_json(["tq", "--n", "2"])
    assert code == 0
    assert doc["passed"] is True
    assert set(doc["checks"]) == {"tq", "wronskian", "boundary", "worksheet",
                                  "lambda", "hyper", "recurrences", "bethe"}


def test_xxz_example():
    code, doc = run_json(["xxz", "--length", "6"])
    assert code == 0
    assert doc["ground_energy"] == pytest.approx(-4.5, abs=1e-10)
    assert doc["energy_error"] <= 1e-10
    assert doc["manifest"]["passed"] is True


def test_xxz_bridge_check():
    code, doc = run_json(["xxz", "--length", "4", "--alpha", "0.1",
                          "--beta", "-0.05", "--bridge-check"])
    assert code == 0
    assert doc["bridge_check"]["passed"] is True
    assert doc["bridge_check"]["difference"] <= 1e-8


def test_xxz_solves_the_ground_energy_once(monkeypatch):
    calls = []
    solve = spinchain_mod.ground_energy

    def counted(params):
        calls.append(params)
        return solve(params)

    monkeypatch.setattr(spinchain_mod, "ground_energy", counted)
    code, doc = run_json(["xxz", "--length", "8", "--alpha", "0.1", "--beta", "-0.05"])
    assert code == 0
    assert len(calls) == 1
    assert doc["lambda_bridge"] == -exp(doc["beta"]) * doc["ground_energy"] - 0.75 * 8


def test_scgf_fd_check_solves_the_origin_once(monkeypatch):
    calls = []
    solve = scgf_mod.scgf_value

    def counted(length, alpha=0.0, beta=0.0):
        calls.append((alpha, beta))
        return solve(length, alpha, beta)

    monkeypatch.setattr(scgf_mod, "scgf_value", counted)
    code, doc = run_json(["scgf", "--length", "6", "--fd-check"])
    assert code == 0
    assert calls == [(0.0, 0.0)]
    assert doc["fd_check"]["lambda_origin"] == doc["lambda"]


@pytest.mark.parametrize("beta", ["10", "40"])
def test_large_tilts_end_cleanly(beta, capsys):
    # the root outgrows what float64 resolves at the 1e-13 tolerance (and at
    # beta=40 the weights reach e^480): a prompt answer or a clean refusal
    started = time.perf_counter()
    code = main(["scgf", "--length", "12", "--beta", beta])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert elapsed < 2.0
    assert code in (0, 3)
    assert "nan" not in (captured.out + captured.err).lower()
    if code == 3:
        width = re.search(r"stalled at width (\S+) ", captured.err).group(1)
        assert isfinite(float(width))


def run_scgf_process(*argv):
    """`raisepeel scgf` in a fresh process: the completed process and its
    wall time."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "raisepeel.cli", "scgf", *argv],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    return proc, time.perf_counter() - started


# Perron roots of the full 70-state tilted generator at L=8, from mpmath
# eigensolves at 50 digits of the dense matrix, made outside the package
ROOT_L8_BETA_MINUS_4 = -3.997314960332769789847
ROOT_L8_BETA_10 = 392071.6560756244151628580


def test_hard_negative_tilt_certifies_its_root():
    # at beta=-4 the two leading eigenvalues of the full matrix nearly
    # coincide, and its enclosure stalled near width 1e-8; the second one
    # lies in another symmetry sector, so the orbit matrix certifies
    proc, _ = run_scgf_process("--length", "8", "--beta", "-4")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["residual"] < 1e-13
    assert abs(doc["lambda"] - ROOT_L8_BETA_MINUS_4) <= doc["residual"]


def test_float_resolution_tilt_is_refused_with_its_enclosure():
    # at beta=10 the root is about 3.9e5, where float64 cannot resolve an
    # absolute width of 1e-13: exit 3, nothing on stdout, and a named
    # enclosure around the root
    proc, _ = run_scgf_process("--length", "8", "--beta", "10")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: convergence failure: Perron enclosure stalled")
    assert re.search(r"float64 spacing \S+ at the shifted lower bound \S+ exceeds the tolerance",
                     proc.stderr)
    lo, hi = map(float, re.search(r"narrowest enclosure \[(\S+), (\S+)\]", proc.stderr).groups())
    assert lo <= ROOT_L8_BETA_10 <= hi


@pytest.mark.parametrize("length", ["10", "12", "14"])
def test_beta_minus_three_certifies_promptly(length):
    # the full matrices' two leading eigenvalues nearly coincide here (at
    # L=10 the enclosure ran 1e6 matvecs and 18 s before its refusal); on
    # the orbit matrix the root certifies at once
    proc, elapsed = run_scgf_process("--length", length, "--beta", "-3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["residual"] < 1e-13
    assert elapsed < 2.0


def test_xxz_reruns_print_the_same_json():
    # two fresh processes: the tilted ground energy is an ARPACK solve
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    runs = [subprocess.run(
        [sys.executable, "-m", "raisepeel.cli", "xxz", "--length", "12",
         "--alpha", "0.1", "--beta", "-0.05"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path)) for _ in range(2)]
    first, second = (strip_timestamps(json.loads(run.stdout)) for run in runs)
    assert first == second


def test_scgf_fd_check():
    code, doc = run_json(["scgf", "--length", "4", "--fd-check"])
    assert code == 0
    fd = doc["fd_check"]
    assert fd["exact_alpha"] == "1/5"
    assert fd["exact_beta"] == "12/5"
    assert fd["relative_error_alpha"] <= 1e-6
    assert fd["relative_error_beta"] <= 1e-6


def test_simulate_payload_and_determinism():
    argv = ["simulate", "--length", "8", "--time", "200", "--seed", "7"]
    code_a, doc_a = run_json(argv)
    code_b, doc_b = run_json(argv)
    assert code_a == code_b == 0
    assert strip_timestamps(doc_a) == strip_timestamps(doc_b)
    summary = doc_a["summary"]
    assert summary["counters"]["n_total"] > 0
    assert summary["drift_diamond_hat"]["value"] > 0
    assert doc_a["manifest"]["seed"] == 7


def test_simulate_replicas():
    code, doc = run_json(["simulate", "--length", "4", "--time", "100",
                          "--replicas", "3", "--seed", "1"])
    assert code == 0
    assert len(doc["replicas"]) == 3
    assert doc["pooled"]["drift_diamond_hat"]["stderr"] > 0


@pytest.mark.parametrize("argv, stepper", [
    (["--length", "8", "--time", "50"], "table"),
    (["--length", "14", "--time", "20"], "ring"),
    (["--length", "8", "--time", "50", "--replicas", "3"], "table"),
])
def test_simulate_logs_event_rate_and_stepper(caplog, argv, stepper):
    with caplog.at_level(logging.INFO, logger="raisepeel.cli"):
        code, doc = run_json(["simulate", *argv, "--seed", "3"])
    assert code == 0
    runs = doc["replicas"] if "replicas" in doc else [doc["summary"]]
    events = sum(run["counters"]["n_total"] for run in runs)
    [line] = [r.getMessage() for r in caplog.records if "events/s" in r.getMessage()]
    assert line.startswith(f"simulated {events} events over time ")
    assert line.endswith(f" events/s, {stepper} stepper)")


@pytest.mark.parametrize("module", [tq_mod, spinchain_mod], ids=lambda m: m.__name__)
def test_passed_is_a_property(module):
    # _jsonable reads `passed` by attribute: a method there would serialise
    # as a bound method, always truthy, whatever the report holds
    own = [cls for _, cls in inspect.getmembers(module, inspect.isclass)
           if cls.__module__ == module.__name__]
    defined = {cls.__name__: inspect.getattr_static(cls, "passed")
               for cls in own if hasattr(cls, "passed")}
    assert defined
    assert [name for name, attr in defined.items() if not isinstance(attr, property)] == []


def test_serialised_relation_report_fails_on_large_errors():
    report = spinchain_mod.tl_relations_check(4)
    assert cli_mod._jsonable(report)["passed"] is True
    broken = dataclasses.replace(report, quotient_error=1.0)
    assert cli_mod._jsonable(broken)["passed"] is False


def test_serializer_writes_nonfinite_floats_as_null_and_keeps_passed_fields():
    # strict JSON has no NaN or Infinity, wherever the float sits; a passed
    # field is written as it is (None on a run that checked nothing), and
    # only a passed property adds a verdict
    manifest = cli_mod.RunManifest("scgf", {"alpha": float("nan")}, None, "v", "", "", None)
    doc = cli_mod._jsonable({"manifest": manifest, "lambda": float("inf"),
                             "values": [float("-inf"), 1.5, (float("nan"),)]})
    assert doc["manifest"]["passed"] is None
    assert doc["manifest"]["parameters"]["alpha"] is None
    assert doc["lambda"] is None
    assert doc["values"] == [None, 1.5, [None]]
    json.dumps(doc, allow_nan=False)


@pytest.mark.parametrize("value, name", [(np.int64(5), "int64"), (object(), "object")])
def test_serializer_refuses_unknown_types(value, name):
    # a numpy integer must not be written as the string "5"
    with pytest.raises(TypeError, match=f"cannot serialize a value of type {name}"):
        cli_mod._jsonable({"values": [value]})


def test_negative_seed_is_refused_by_name():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "raisepeel.cli", "simulate", "--length", "4", "--time", "1",
         "--seed", "-1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: seed must be nonnegative, got -1\n"


def test_verify_all_small():
    code, out = run_cli(["verify-all", "--lmax", "4", "--nmax", "2"])
    assert code == 0
    lines = out.splitlines()
    assert any("all" in line and "rows passed" in line for line in lines)
    row_lines = [l for l in lines if "  pass  " in l or "  FAIL  " in l]
    keys = [l.split()[0] for l in row_lines]
    assert keys == sorted(keys)
    assert any("drift-diamond-L04" in k for k in keys)
    # the length-4 row shows the expected fractions
    l4 = next(l for l in row_lines if "drift-diamond-L04" in l)
    assert "12/5" in l4


def test_verify_all_default_matrix(tmp_path):
    # every row of the default matrix: key, detail, expected value and pass
    # flag, plus the actual value wherever it is exact (floating-point
    # residuals vary between runs and are not pinned)
    fixture = json.loads(
        (Path(__file__).parent / "data" / "verify_all_default.json").read_text())
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["verify-all", "--out", str(out_path)])
    doc = json.loads(out_path.read_text())
    assert code == 0
    assert (doc["lmax"], doc["nmax"]) == (fixture["lmax"], fixture["nmax"])
    assert len(doc["rows"]) == len(fixture["rows"]) == 75
    got = [{k: v for k, v in row.items() if k != "actual" or "actual" in pinned}
           for row, pinned in zip(doc["rows"], fixture["rows"])]
    assert got == fixture["rows"]


def test_tq_suite_row_names_the_failing_reports(monkeypatch, tmp_path):
    # every suite report runs, and the row lists each one that failed
    boundary = tq_mod.boundary_values
    monkeypatch.setattr(tq_mod, "boundary_values", lambda n: dataclasses.replace(
        boundary(n), factorial_descent_ok=False))
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["verify-all", "--lmax", "2", "--nmax", "1", "--out", str(out_path)])
    doc = json.loads(out_path.read_text())
    assert code == 1
    assert doc["failures"] == ["tq-suite-N01"]
    row = next(r for r in doc["rows"] if r["row"] == "tq-suite-N01")
    assert row["actual"] == "FAIL: boundary"


def test_tq_n3_reports_pinned():
    # every tq report at N = 3 as JSON, boundary entry names and worksheet
    # symbol keys included
    fixture = json.loads((Path(__file__).parent / "data" / "tq_n3.json").read_text())
    code, doc = run_json(["tq", "--n", "3"])
    assert code == 0
    assert list(doc["checks"]) == list(fixture)
    assert doc["checks"] == fixture


@pytest.mark.parametrize("n", [1, 12, 40])
def test_tq_all_checks_pinned(n):
    # every report of `tq --n N --check all` at the smallest order, at the
    # largest order verify-all runs by default, and at N = 40
    fixture = json.loads((Path(__file__).parent / "data" / f"tq_n{n}.json").read_text())
    code, doc = run_json(["tq", "--n", str(n), "--check", "all"])
    assert code == 0
    assert list(doc["checks"]) == list(fixture)
    assert doc["checks"] == fixture


def test_verify_all_out_file(tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["verify-all", "--lmax", "2", "--nmax", "1",
                       "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["failures"] == []
    assert doc["row_count"] == len(doc["rows"])
    assert doc["manifest"]["passed"] is True


def test_out_flag_quiets_stdout(tmp_path):
    out_path = tmp_path / "stationary.json"
    code, out = run_cli(["stationary", "--length", "2", "--out", str(out_path)])
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["drift_diamond"] == "1"


@pytest.mark.parametrize("argv, target", [
    (["stationary", "--length", "4", "--out"], "missing/x.json"),
    (["verify-all", "--lmax", "4", "--nmax", "1", "--out"], "."),
    (["simulate", "--length", "4", "--time", "10", "--report-every", "1", "--log"],
     "missing/x.jsonl"),
])
def test_unwritable_paths_exit_2(tmp_path, capsys, argv, target):
    path = tmp_path / target
    code = main([*argv, str(path)])
    [line] = capsys.readouterr().err.splitlines()
    assert code == 2
    assert line.startswith("error: cannot write --") and str(path) in line


def test_verify_all_checks_its_out_path_before_the_first_row(tmp_path, monkeypatch, capsys):
    rows = []
    monkeypatch.setattr(stationary_mod, "exact_drifts",
                        lambda length: rows.append(length))
    code = main(["verify-all", "--lmax", "4", "--nmax", "1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and rows == []
    assert captured.err == f"error: cannot write --out {tmp_path}: Is a directory\n"


def test_out_path_check_creates_no_file(tmp_path, capsys):
    # a usable path is left alone until the document is written, so a run
    # that fails first leaves no file behind
    out_path = tmp_path / "x.json"
    assert main(["stationary", "--length", "3", "--out", str(out_path)]) == 2
    capsys.readouterr()
    assert not out_path.exists()


def test_config_defaults_and_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"length": 4, "integers": True}))
    code, doc = run_json(["stationary", "--config", str(config)])
    assert code == 0
    assert doc["length"] == 4
    assert "integer_form" in doc
    # explicit flags beat config values
    code, doc = run_json(["stationary", "--config", str(config),
                          "--length", "2"])
    assert doc["length"] == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--length", "7", "--time", "10"],
    ["simulate", "--length", "4"],
    ["simulate", "--length", "4", "--time", "10", "--events", "5"],
    ["simulate", "--length", "4", "--time", "10", "--log", "x.jsonl"],
    ["stationary", "--length", "3"],
    ["stationary"],
    ["scgf", "--length", "5", "--fd-check"],
    ["tq", "--check", "lambda"],
    ["tq", "--n", "0"],
    ["xxz", "--length", "6", "--beta", "-5.0"],
    ["xxz", "--length", "40"],
    ["verify-all", "--lmax", "3"],
    ["no-such-command"],
    ["simulate", "--length", "4", "--time", "10", "--report-every", "1"],
    ["simulate", "--length", "4", "--time", "10", "--replicas", "2", "--report-every", "1"],
])
def test_usage_errors_exit_2(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--length", "4", "--time", "inf"], "t_max must be finite"),
    (["xxz", "--length", "4", "--beta", "inf"], "beta = inf is not a finite tilt"),
    (["xxz", "--length", "4", "--alpha", "nan"], "alpha = nan is not a finite tilt"),
    (["scgf", "--length", "4", "--alpha", "nan"], "(nan, 0.0) gives non-finite move weights"),
    (["scgf", "--length", "4", "--beta", "1000"], "(0.0, 1000.0) gives non-finite move weights"),
])
def test_nonfinite_inputs_exit_2_before_solving(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


def test_odd_length_parity_message(capsys):
    code = main(["simulate", "--length", "7", "--time", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert "even" in err and "parity" in err


def test_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    for unknown in ("lenth", "help"):
        config.write_text(json.dumps({unknown: 4, "length": 2}))
        code = main(["stationary", "--config", str(config)])
        assert f"unknown config keys: {unknown}" in capsys.readouterr().err
        assert code == 2
    config.write_text("[1, 2]")
    code = main(["stationary", "--config", str(config)])
    capsys.readouterr()
    assert code == 2
    # values meet their flag's type, choices or switch, as on the command line
    for argv, bad in [
        (["simulate", "--length", "4", "--time", "10"], {"seed": 1.5}),
        (["simulate", "--length", "4", "--time", "10"], {"replicas": 2.5}),
        (["simulate", "--length", "4", "--time", "10"], {"seed": True}),
        (["tq", "--n", "1"], {"check": "bogus"}),
        (["stationary", "--length", "2"], {"integers": "no"}),
        (["stationary", "--length", "2"], {"length": "4"}),
        (["stationary", "--length", "2"], {"out": 5}),
        (["simulate", "--length", "4"], {"time": 10 ** 400}),
    ]:
        config.write_text(json.dumps(bad))
        code = main([*argv, "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 2, bad
        assert f"config key {next(iter(bad))!r}" in captured.err
        assert captured.out == ""


def test_config_values_take_the_flag_type(tmp_path):
    # a JSON integer for a float flag is converted as argparse would, and
    # null leaves a flag whose default is None unset
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"time": 10, "events": None, "integers": False}))
    code, doc = run_json(["simulate", "--length", "2", "--config", str(config)])
    assert code == 0
    assert doc["manifest"]["parameters"]["time"] == 10.0
    assert isinstance(doc["manifest"]["parameters"]["time"], float)
    assert doc["manifest"]["parameters"]["events"] is None


def test_verify_all_refuses_lmax_above_the_cap_before_solving(monkeypatch, capsys):
    solved = []

    def counted(length):
        solved.append(length)
        raise RuntimeError("stationary solve started")

    monkeypatch.setattr(stationary_mod, "stationary_distribution", counted)
    code = main(["verify-all", "--lmax", "20"])
    captured = capsys.readouterr()
    assert code == 2
    assert "exceeds the enumeration cap 18" in captured.err
    assert solved == []


def test_xxz_bridge_check_refuses_lengths_above_the_cap_before_solving(monkeypatch, capsys):
    solved = []

    def counted(params):
        solved.append(params)
        raise RuntimeError("ground state solve started")

    monkeypatch.setattr(spinchain_mod, "ground_energy", counted)
    code = main(["xxz", "--length", "20", "--bridge-check"])
    captured = capsys.readouterr()
    assert code == 2
    assert "enumeration cap of the tilted generator" in captured.err
    assert solved == []


def test_sign_flip_negative_control(monkeypatch, capsys):
    # a build with a flipped sign in one closed form must fail loudly
    original = stationary_mod.peak_mean_formula
    monkeypatch.setattr(stationary_mod, "peak_mean_formula",
                        lambda length: -original(length))
    code = main(["verify-all", "--lmax", "4", "--nmax", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED conjecture-peaks-L02" in out
    assert "FAILED conjecture-peaks-L04" in out


def test_convergence_failure_exits_3(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise scgf_mod.ConvergenceError("iteration stalled")

    monkeypatch.setattr(scgf_mod, "scgf_value", explode)
    code = main(["scgf", "--length", "4"])
    err = capsys.readouterr().err
    assert code == 3
    assert "convergence" in err


def test_unconverged_spin_chain_solve_exits_3(monkeypatch, capsys):
    # a Lanczos step budget too small to converge in
    monkeypatch.setattr(spinchain_mod, "_LANCZOS_STEPS", 4)
    code = main(["xxz", "--length", "10"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: convergence failure: extremal eigensolve failed "
                                   "on sector dimension 252")


@pytest.mark.parametrize("n", [24, 40])
def test_tq_all_checks_pass_at_high_orders(n):
    # the root equations are decided exactly, so no order refuses: every
    # check at N = 24 and 40 runs and passes
    code, doc = run_json(["tq", "--n", str(n), "--check", "all"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["checks"]["bethe"]["passed"] is True


def test_memory_estimate_refusal_exits_3_before_enumerating():
    # a fresh process, so no table is cached; the available memory is
    # pinned at 1 MB, below the estimate at L=18
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "import raisepeel.profiles as profiles\n"
            "from raisepeel.cli import main\n"
            "profiles._available_memory = lambda: 1 << 20\n"
            "sys.exit(main(['stationary', '--length', '18']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("error: out of memory (the exact pipeline at length 18 needs "
                           "about 213.9 MB, and 1.0 MB is available); reduce --length\n")


def test_oversized_progress_log_exits_2_at_once(capsys):
    # 1e9 records asked for; refused before the run, naming both counts
    started = time.perf_counter()
    code = main(["simulate", "--length", "4", "--time", "1", "--report-every", "1e-9",
                 "--log", os.devnull])
    elapsed = time.perf_counter() - started
    err = capsys.readouterr().err
    assert code == 2
    assert elapsed < 1.0
    assert "1e+09 records" in err
    assert f"more than the {raisepeel.simulate._MAX_LOG_RECORDS} " in err


@pytest.mark.parametrize("argv", [
    ["stationary", "--length", "4"], ["scgf", "--length", "6", "--fd-check"],
    ["xxz", "--length", "10", "--bridge-check"], ["tq", "--n", "3"],
    ["simulate", "--length", "4", "--time", "10"], ["verify-all", "--lmax", "4", "--nmax", "2"],
], ids=lambda argv: argv[0])
def test_every_subcommand_runs_without_scipy(argv):
    # a fresh process in which importing scipy fails
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from raisepeel.cli import main\n"
            f"sys.exit(main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("argv", [
    ["stationary", "--length", "2"], ["scgf", "--length", "2", "--fd-check"],
    ["xxz", "--length", "2", "--bridge-check"], ["tq", "--n", "1"],
    ["verify-all", "--lmax", "2", "--nmax", "1"],
    ["simulate", "--length", "4", "--time", "10"], ["simulate", "--length", "14", "--time", "1"],
], ids=lambda argv: "-".join(argv[:3]))
def test_cold_call_imports_nothing_inside_main(argv):
    # a module imported lazily inside a call (numpy.ma from np.unique costs
    # 9-16 ms) lands in every cold call's wall time; only argparse's
    # gettext lookup, which imports locale, is allowed.  L = 4 and 14 run
    # the table and the ring stepper.
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import contextlib, io, sys\n"
            "from raisepeel.cli import main\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, *sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    status, *loaded = proc.stdout.split()
    assert status == "0"
    assert [name for name in loaded if name not in ("locale", "_locale")
            and not name.startswith("encodings.")] == []


def test_memory_refusal_names_verify_all_flags():
    # verify-all enumerates up to --lmax, so the hint names its own flags
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "import raisepeel.profiles as profiles\n"
            "from raisepeel.cli import main\n"
            "profiles._available_memory = lambda: 1 << 20\n"
            "sys.exit(main(['verify-all', '--lmax', '18']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 3
    assert proc.stdout == ""
    # the first length past the pinned memory is 12, whose estimate is about
    # 1.16 MB: one decimal keeps the two figures apart
    assert proc.stderr == ("error: out of memory (the exact pipeline at length 12 needs "
                           "about 1.2 MB, and 1.0 MB is available); reduce --lmax or --nmax\n")


def test_memory_failure_in_tq_names_n(monkeypatch, capsys):
    def explode(n):
        raise MemoryError

    monkeypatch.setattr(tq_mod, "verify_tq", explode)
    assert main(["tq", "--n", "1", "--check", "tq"]) == 3
    assert capsys.readouterr().err == "error: out of memory; reduce --n\n"


def test_memory_failure_exits_3(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(stationary_mod, "stationary_distribution", explode)
    code = main(["stationary", "--length", "4"])
    capsys.readouterr()
    assert code == 3


def test_module_invocation_and_env_logging():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, RPM_LOG="info", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "raisepeel.cli", "tq", "--n", "1",
         "--check", "lambda"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["checks"]["lambda"]["alpha"] == "1/2"
    assert "INFO" in proc.stderr


def test_console_script_entry_point_version(capsys):
    # resolves pyproject's [project.scripts] mapping as an installer would,
    # so the mapping is tested without an install
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["raisepeel"]
    entry = importlib.metadata.EntryPoint("raisepeel", target, "console_scripts").load()
    assert entry(["--version"]) == 0
    assert capsys.readouterr().out == f"raisepeel {raisepeel.__version__}\n"


@pytest.mark.skipif(shutil.which("raisepeel") is None,
                    reason="console script not on PATH")
def test_console_script_version():
    proc = subprocess.run(["raisepeel", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("raisepeel ")
