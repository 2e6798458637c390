"""Workloads of the raisepeel benchmark and the checks on their outputs.

A workload is a list of CLI calls, each run in its own fresh interpreter.
Every output is checked here, outside the package: exact results are
compared as fraction strings against closed forms the benchmark writes
down itself, and Monte Carlo estimates against the same closed forms by
the 3-sigma rule of acceptance criterion 7.

A check is either hard (an exact identity, an invariant, a finite error
bar, an exit code) or statistical (a 3-sigma test).  A correct sampler
misses a 3-sigma test with probability about 0.003 per estimate, so a miss
is reported as a finding but does not mark the output incorrect.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from typing import Callable

# Tolerances the CLI states for its float cross-checks, restated here so
# the benchmark does not take the program's word for them.
FD_TOLERANCE = 1e-6
ORIGIN_TOLERANCE = 1e-12
BRIDGE_TOLERANCE = 1e-8
N_SIGMA = 3.0


@dataclass(frozen=True)
class Call:
    """One CLI invocation; label names its role within the workload."""
    label: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    hard: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[[int, bool], list[Call]]
    check: Callable[[Call, str, int], list[Check]]


def closed_forms(length: int) -> dict[str, Fraction]:
    """Closed forms of the stationary observables at ring length L."""
    sq = length * length
    return {
        "drift_diamond": Fraction(length * (5 * sq - 8), 8 * (sq - 1)),
        "drift_global": Fraction(3 * length, 4 * (sq - 1)),
        "expected_peaks": Fraction(3 * length ** 3, 8 * (sq - 1)),
        "prob_omega_global": Fraction(3 * length, 4 * (sq - 1)),
    }


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


# ---------------------------------------------------------------------------
# exact-L12


def _exact_calls(seed: int, toy: bool) -> list[Call]:
    # The exact routes take no random input: every seed gives these calls.
    length = "6" if toy else "12"
    return [
        Call("stationary", ("stationary", "--length", length)),
        Call("scgf", ("scgf", "--length", length, "--fd-check")),
        Call("xxz", ("xxz", "--length", length, "--alpha", "0.1",
                     "--beta", "-0.05", "--bridge-check")),
    ]


def _check_stationary(doc: dict, length: int) -> list[Check]:
    forms = closed_forms(length)
    checks = [
        Check(f"stationary.{key}",
              doc["checks"][key] is True and doc[key] == str(value))
        for key, value in forms.items()
    ]
    balance = Fraction(doc["drift_diamond"]) + Fraction(doc["expected_peaks"])
    checks.append(Check("stationary.tile_balance",
                        doc["checks"]["tile_balance"] is True and balance == length))
    return checks


def _check_fd(doc: dict, length: int) -> list[Check]:
    fd = doc["fd_check"]
    forms = closed_forms(length)
    exact_alpha, exact_beta = forms["drift_global"], forms["drift_diamond"]
    rel_alpha = abs(fd["derivative_alpha"] - float(exact_alpha)) / float(exact_alpha)
    rel_beta = abs(fd["derivative_beta"] - float(exact_beta)) / float(exact_beta)
    ok = (fd["passed"] is True
          and fd["exact_alpha"] == str(exact_alpha)
          and fd["exact_beta"] == str(exact_beta)
          and abs(fd["lambda_origin"]) <= ORIGIN_TOLERANCE
          and rel_alpha <= FD_TOLERANCE and rel_beta <= FD_TOLERANCE)
    return [Check("scgf.fd_check", ok)]


def _check_bridge(doc: dict) -> list[Check]:
    bridge = doc["bridge_check"]
    diff = abs(doc["lambda_bridge"] - bridge["lambda_scgf"])
    return [Check("xxz.bridge_check", bridge["passed"] is True and diff <= BRIDGE_TOLERANCE)]


def _check_exact(call: Call, text: str, rc: int) -> list[Check]:
    length = int(_flag(call.argv, "--length"))
    doc = json.loads(text)
    if call.label == "stationary":
        checks = _check_stationary(doc, length)
    elif call.label == "scgf":
        checks = _check_fd(doc, length)
    else:
        checks = _check_bridge(doc)
    if rc != 0 or doc["manifest"]["passed"] is not True:
        checks.append(Check(f"{call.label}.exit_code", False))
    return checks


# ---------------------------------------------------------------------------
# verify-all

# rows per matrix size; the default size (lmax 10, nmax 12) has 75
_VERIFY_ROWS = {False: 75, True: 24}
_ROW = re.compile(r"^  (\S+)\s+(pass|FAIL)  .*: expected (.*), got (.*)$")
_EXACT_ROW = re.compile(r"^(conjecture-peaks|conjecture-omega|drift-diamond|drift-global)-L(\d+)$")
_ROW_FORM = {"conjecture-peaks": "expected_peaks", "conjecture-omega": "prob_omega_global",
             "drift-diamond": "drift_diamond", "drift-global": "drift_global"}


def _verify_calls(seed: int, toy: bool) -> list[Call]:
    # The verification matrix takes no random input: every seed gives this call.
    return [Call("verify-all", ("verify-all", "--lmax", "4", "--nmax", "2") if toy
                 else ("verify-all",))]


def _check_verify(call: Call, text: str, rc: int) -> list[Check]:
    checks = []
    for line in text.splitlines():
        match = _ROW.match(line)
        if not match:
            continue
        row, mark, expected, actual = match.groups()
        ok = mark == "pass"
        exact = _EXACT_ROW.match(row)
        if exact:
            form = closed_forms(int(exact.group(2)))[_ROW_FORM[exact.group(1)]]
            ok = ok and expected == str(form) and actual == expected
        checks.append(Check(f"verify.{row}", ok))
    toy = "--lmax" in call.argv
    if len(checks) != _VERIFY_ROWS[toy]:
        checks.append(Check("verify.row_count", False))
    if rc != 0:
        checks.append(Check("verify.exit_code", False))
    return checks


# ---------------------------------------------------------------------------
# mc


MC_LABELS = ("L8", "ensemble", "L64")


def _mc_calls(seed: int, toy: bool) -> list[Call]:
    # Every run is bounded by a time horizon, so the work stays comparable
    # when a change alters the random stream, and every error bar is finite.
    rng = random.Random(seed)
    seeds = [str(rng.randrange(1 << 31)) for _ in range(3)]
    small, large = ("4", "8") if toy else ("8", "64")
    return [
        Call(MC_LABELS[0], ("simulate", "--length", small, "--time", "200" if toy else "1e5",
                            "--seed", seeds[0])),
        Call(MC_LABELS[1], ("simulate", "--length", small, "--time", "100" if toy else "2000",
                            "--replicas", "2" if toy else "8", "--seed", seeds[1])),
        Call(MC_LABELS[2], ("simulate", "--length", large, "--time", "100" if toy else "1000",
                            "--seed", seeds[2])),
    ]


_ESTIMATES = {"drift_diamond_hat": "drift_diamond", "drift_global_hat": "drift_global",
              "mean_peaks_hat": "expected_peaks"}


def _tiles(heights: list[int]) -> int:
    return sum(h - i % 2 for i, h in enumerate(heights)) // 2


def _within(estimate: dict, target: Fraction) -> bool:
    # A missing (non-finite) stderr fails: it would otherwise pass anything.
    stderr = estimate["stderr"]
    return stderr is not None and abs(estimate["value"] - float(target)) <= N_SIGMA * stderr


def _check_summary(name: str, summary: dict, horizon: float) -> list[Check]:
    c = summary["counters"]
    forms = closed_forms(summary["length"])
    checks = [
        Check(f"{name}.balanced", c["n_total"] == c["n_peak"] + c["n_diamond"] + c["n_tiles"]),
        Check(f"{name}.tiles", c["n_tiles"] == _tiles(summary["final_state"])),
        Check(f"{name}.horizon", summary["elapsed_time"] == horizon),
    ]
    for key, form in _ESTIMATES.items():
        estimate = summary[key]
        stderr = estimate["stderr"]
        checks.append(Check(f"{name}.{key}.stderr", stderr is not None and isfinite(stderr)))
        checks.append(Check(f"{name}.{key}.3sigma", _within(estimate, forms[form]), hard=False))
    return checks


def _check_mc(call: Call, text: str, rc: int) -> list[Check]:
    doc = json.loads(text)
    horizon = float(_flag(call.argv, "--time"))
    if "replicas" in doc:
        replicas = doc["replicas"]
        checks = [c for k, r in enumerate(replicas)
                  for c in _check_summary(f"{call.label}.r{k}", r, horizon)]
        forms = closed_forms(replicas[0]["length"])
        for key, form in _ESTIMATES.items():
            checks.append(Check(f"{call.label}.pooled.{key}.3sigma",
                                _within(doc["pooled"][key], forms[form]), hard=False))
        if len(replicas) != int(_flag(call.argv, "--replicas")):
            checks.append(Check(f"{call.label}.replica_count", False))
    else:
        checks = _check_summary(call.label, doc["summary"], horizon)
    if rc != 0:
        checks.append(Check(f"{call.label}.exit_code", False))
    return checks


def events(text: str) -> int:
    """Total simulated events reported by one simulate call."""
    doc = json.loads(text)
    summaries = doc["replicas"] if "replicas" in doc else [doc["summary"]]
    return sum(s["counters"]["n_total"] for s in summaries)


WORKLOADS = {
    w.name: w for w in (
        Workload("exact-L12", _exact_calls, _check_exact),
        Workload("verify-all", _verify_calls, _check_verify),
        Workload("mc", _mc_calls, _check_mc),
    )
}


def check_call(workload: Workload, call: Call, text: str, rc: int) -> list[Check]:
    """Run the workload's checks; an unreadable output fails one hard check."""
    try:
        return workload.check(call, text, rc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [Check(f"{call.label}.output ({type(exc).__name__}: {exc})", False)]
