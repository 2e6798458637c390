"""Command-line driver and the cross-route verification matrix.

One binary, subcommand dispatch.  Every payload embeds a manifest
(subcommand, full parameter set, seed, tool version, timestamps, pass
flag) so an output file is self-describing and reruns are reproducible.
``_jsonable`` is the only serializer: handlers return plain values and
``main`` converts each document once, as the --log writer does each
record.  Exact rational quantities serialize as fraction strings such as
"12/5", never as floats; floating-point numbers appear only where the
quantity itself is one (Monte Carlo estimates, eigenvalues, residuals),
and a non-finite one is written as null.

Each claim is checked by one function below: the verdicts of the
stationary checks, the scgf fd_check, the xxz energy and bridge_check and
every tq check are the same comparisons as the verify-all rows for that
L or N, at the same tolerances.

Exit codes: 0 everything asked for passed (or nothing was checked),
1 a verification row failed, 2 usage error (an unwritable --out or --log
path included), 3 convergence or resource failure.  The only environment
variable consulted is RPM_LOG, which sets the logging level
(debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from math import isfinite
from pathlib import Path
from typing import Any, Callable

from . import (__version__, profiles, qfield, scgf, simulate as simulate_mod, spinchain,
               stationary, tq)

log = logging.getLogger("raisepeel.cli")

_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

_FD_STEP = 1e-3
_FD_TOLERANCE = 1e-6
_ORIGIN_TOLERANCE = 1e-12
_ENERGY_TOLERANCE = 1e-10
_BRIDGE_TOLERANCE = 1e-8
_BRIDGE_GRID = (-0.1, 0.0, 0.1)


class UsageError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


def _configure_logging() -> None:
    level_name = os.environ.get("RPM_LOG", "").strip().lower()
    if level_name:
        logging.basicConfig(
            level=_LOG_LEVELS.get(level_name, logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
        )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class RunManifest:
    """Self-description embedded in every output payload."""

    subcommand: str
    parameters: dict[str, Any]
    seed: int | None
    version: str
    started: str
    finished: str
    passed: bool | None


def _frac(value: Fraction) -> str:
    return str(Fraction(value))


def _state_key(heights: tuple[int, ...]) -> str:
    return ",".join(str(h) for h in heights)


def _jsonable(value: Any) -> Any:
    """Recursively convert a document to JSON-safe data: the one serializer
    of every output, the JSON document and each --log record alike.

    Exact rationals and field elements become strings, complex numbers
    become [re, im] pairs, and a non-finite float becomes null (strict
    JSON has no NaN or Infinity).  A dataclass becomes its fields in
    declaration order, plus `passed` when that is a property of its
    class; everything else keeps its natural JSON type.
    """
    if isinstance(value, float):
        return value if isfinite(value) else None
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, qfield.QFieldElement):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(getattr(type(value), "passed", None), property):
            out["passed"] = bool(value.passed)
        return out
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _require_even_length(length: int | None) -> int:
    if length is None:
        raise UsageError("--length is required")
    if length < 2 or length % 2:
        raise UsageError(
            f"--length must be an even integer >= 2, got {length}: "
            "heights alternate parity around the ring, so odd rings do not close"
        )
    return length


# ---------------------------------------------------------------------------
# claim checks: each computes its values once, compares them at one tolerance
# and yields verify-all's rows; the subcommands build their verdicts from them


@dataclass(frozen=True)
class Row:
    """One verdict of the verification matrix, keyed by its row name."""

    row: str
    detail: str
    expected: str
    actual: str
    passed: bool


def _stationary_checks(length: int) -> dict[str, Row]:
    """The five closed-form checks of the exact stationary state, by payload name."""
    drift_diamond, drift_global = stationary.exact_drifts(length)
    peaks = stationary.expected_peaks(length)

    def exact(key: str, detail: str, formula: Fraction | int, value: Fraction) -> Row:
        return Row(f"{key}-L{length:02d}", detail, _frac(formula), _frac(value),
                   value == formula)

    return {
        "drift_diamond": exact("drift-diamond", "exact evacuated-tile current vs closed form",
                               stationary.diamond_current_formula(length), drift_diamond),
        "drift_global": exact("drift-global", "exact two-layer-removal current vs closed form",
                              stationary.global_current_formula(length), drift_global),
        "expected_peaks": exact("conjecture-peaks", "stationary mean peak count vs closed form",
                                stationary.peak_mean_formula(length), peaks),
        "prob_omega_global": exact(
            "conjecture-omega", "probability of the two-layer-removal window vs closed form",
            stationary.omega_probability_formula(length), stationary.prob_omega_global(length)),
        "tile_balance": exact("tile-balance",
                              "evacuation current plus peak mean equals ring length",
                              length, drift_diamond + peaks),
    }


def _slope_check(length: int, step: float, origin: float | None = None
                 ) -> tuple[dict[str, Any], list[Row]]:
    """Tilted generator zero at the origin, gradient equal to the exact currents:
    the scgf fd_check block and the origin and slope rows.  origin is the
    cumulant value at zero tilt when the caller has already solved it."""
    d_alpha, d_beta = scgf.scgf_derivatives(length, h_step=step)
    if origin is None:
        origin = scgf.scgf_value(length, scgf.DeformedParams()).lambda_value
    exact_alpha = stationary.global_current_formula(length)
    exact_beta = stationary.diamond_current_formula(length)
    rel_alpha = abs(d_alpha - float(exact_alpha)) / float(exact_alpha)
    rel_beta = abs(d_beta - float(exact_beta)) / float(exact_beta)
    rows = [
        Row(f"scgf-origin-L{length:02d}", "cumulant generating function vanishes at zero tilt",
            f"|value| <= {_ORIGIN_TOLERANCE:g}", f"{abs(origin):.2e}",
            abs(origin) <= _ORIGIN_TOLERANCE),
        Row(f"scgf-slope-L{length:02d}", "tilted-generator gradient vs exact currents",
            f"rel err <= {_FD_TOLERANCE:g}", f"{max(rel_alpha, rel_beta):.2e}",
            rel_alpha <= _FD_TOLERANCE and rel_beta <= _FD_TOLERANCE),
    ]
    block = {
        "step": step,
        "lambda_origin": origin,
        "derivative_alpha": d_alpha,
        "derivative_beta": d_beta,
        "exact_alpha": exact_alpha,
        "exact_beta": exact_beta,
        "relative_error_alpha": rel_alpha,
        "relative_error_beta": rel_beta,
        "origin_tolerance": _ORIGIN_TOLERANCE,
        "relative_tolerance": _FD_TOLERANCE,
        "passed": all(row.passed for row in rows),
    }
    return block, rows


def _energy_check(length: int, energy: float) -> tuple[dict[str, Any], Row]:
    """Zero-tilt ground energy against -3L/4: the xxz energy fields and the row."""
    target = -0.75 * length
    error = abs(energy - target)
    fields = {"reference_energy": target, "energy_error": error,
              "energy_tolerance": _ENERGY_TOLERANCE}
    return fields, Row(f"xxz-energy-L{length:02d}", "twisted-sector ground energy equals -3L/4",
                       f"{target}", f"{energy:.12f}", error <= _ENERGY_TOLERANCE)


def _bridge_check(length: int, spin: dict[tuple[float, float], float]
                  ) -> tuple[list[dict[str, Any]], Row]:
    """Spin-chain cumulant values by tilt (alpha, beta) against the tilted generator:
    one bridge_check block per tilt and the row for the largest difference."""
    blocks = []
    for (alpha, beta), lam_spin in spin.items():
        lam_scgf = scgf.scgf_value(length, scgf.DeformedParams(alpha, beta)).lambda_value
        diff = abs(lam_spin - lam_scgf)
        blocks.append({"lambda_scgf": lam_scgf, "difference": diff,
                       "tolerance": _BRIDGE_TOLERANCE, "passed": diff <= _BRIDGE_TOLERANCE})
    worst = max(block["difference"] for block in blocks)
    return blocks, Row(f"xxz-bridge-L{length:02d}",
                       "spin-chain energy bridge matches the cumulant function on a grid",
                       f"diff <= {_BRIDGE_TOLERANCE:g}", f"{worst:.2e}",
                       all(block["passed"] for block in blocks))


@dataclass(frozen=True)
class _LambdaReport:
    """Growth rates assembled from polynomial data, beside their closed forms."""

    alpha: Fraction
    beta: Fraction
    alpha_formula: Fraction
    beta_formula: Fraction

    @property
    def passed(self) -> bool:
        return self.alpha == self.alpha_formula and self.beta == self.beta_formula


def _tq_lambda(n: int) -> _LambdaReport:
    return _LambdaReport(tq.lambda_alpha(n), tq.lambda_beta(n),
                         tq.lambda_alpha_formula(n), tq.lambda_beta_formula(n))


# tq check name -> (report at order n, part of verify-all's tq-suite row).
# Each entry looks its route function up when called, so a function replaced
# after import (by a tracer or a test) is the one that runs.  lambda and
# recurrences have rows of their own; the floating-point Bethe roots stay out
# of the exact matrix.
_TQ_CHECKS: dict[str, tuple[Callable[[int], Any], bool]] = {
    "tq": (lambda n: tq.verify_tq(n), True),
    "wronskian": (lambda n: tq.verify_wronskian(n), True),
    "boundary": (lambda n: tq.boundary_values(n), True),
    "worksheet": (lambda n: tq.derivative_worksheet(n), True),
    "lambda": (_tq_lambda, False),
    "hyper": (lambda n: tq.hypergeometric_check(n), True),
    "recurrences": (lambda n: tq.recurrence_check(n_max=max(n, 3)), False),
    "bethe": (lambda n: tq.lambda_from_roots(n), False),
}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, passed) where passed may be
# None when the run produced data but verified nothing; the payload holds
# plain values (reports, fractions, summaries), which main serializes


def cmd_simulate(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    _require_even_length(args.length)
    if args.log and args.report_every is None:
        raise UsageError("--log needs --report-every to set the tick spacing")
    if args.report_every is not None and not args.log:
        raise UsageError("--report-every needs --log to write its records to")
    if args.replicas < 1:
        raise UsageError(f"--replicas must be >= 1, got {args.replicas}")
    events = args.events
    cfg = simulate_mod.SimConfig(
        length=args.length,
        t_max=args.time,
        max_events=events,
        seed=args.seed,
        report_every=args.report_every,
    )

    stepper = simulate_mod.stepper_for(cfg.length).name
    if args.replicas > 1:
        if args.log:
            raise UsageError("--log applies to single runs, not --replicas ensembles")
        started = time.perf_counter()
        runs = simulate_mod.run_ensemble(cfg, args.replicas)
        _log_event_rate(stepper, sum(r.counters.n_total for r in runs),
                        sum(r.elapsed_time for r in runs), time.perf_counter() - started)
        pooled: dict[str, Any] = {}
        for field in ("drift_diamond_hat", "drift_global_hat", "mean_peaks_hat"):
            values = [getattr(r, field).value for r in runs if getattr(r, field) is not None]
            pooled[field] = simulate_mod.pooled_estimate(values) if len(values) >= 2 else None
        return {"replicas": runs, "pooled": pooled}, None

    writer = None
    handle = None
    if args.log:
        try:
            handle = open(args.log, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write --log {args.log}: {exc.strerror}") from exc

        def writer(record: dict) -> None:
            print(json.dumps(_jsonable(record)), file=handle)

    started = time.perf_counter()
    try:
        summary = simulate_mod.simulate(cfg, log_writer=writer)
    finally:
        if handle is not None:
            handle.close()
    _log_event_rate(stepper, summary.counters.n_total, summary.elapsed_time,
                    time.perf_counter() - started)
    return {"summary": summary}, None


def _log_event_rate(stepper: str, n_events: int, sim_time: float, wall: float) -> None:
    log.info("simulated %d events over time %.6g in %.3f s wall (%.0f events/s, %s stepper)",
             n_events, sim_time, wall, n_events / wall if wall > 0 else 0.0, stepper)


def cmd_stationary(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    length = _require_even_length(args.length)
    vec = stationary.stationary_distribution(length)
    checks = _stationary_checks(length)
    observed = [name for name in checks if name != "tile_balance"]
    payload: dict[str, Any] = {
        "length": length,
        "state_count": len(vec.states),
        "method": vec.method,
        **{name: checks[name].actual for name in observed},
        "formulas": {name: checks[name].expected for name in observed},
        "checks": {name: row.passed for name, row in checks.items()},
        "probabilities": {_state_key(s): vec.probabilities[s] for s in vec.states},
    }
    if args.integers:
        payload["integer_form"] = {_state_key(s): vec.integer_form[s] for s in vec.states}
        payload["integer_sum"] = vec.integer_sum
    return payload, all(payload["checks"].values())


def cmd_scgf(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    length = _require_even_length(args.length)
    result = scgf.scgf_value(length, scgf.DeformedParams(args.alpha, args.beta))
    payload: dict[str, Any] = {
        "length": length,
        "alpha": args.alpha,
        "beta": args.beta,
        "lambda": result.lambda_value,
        "residual": result.residual,
        "iterations": result.iterations,
        "method": result.method,
    }
    if not args.fd_check:
        return payload, None
    at_origin = args.alpha == 0.0 and args.beta == 0.0
    payload["fd_check"], _ = _slope_check(length, args.step,
                                          result.lambda_value if at_origin else None)
    return payload, payload["fd_check"]["passed"]


def cmd_tq(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    n = args.n
    if n is None:
        raise UsageError("--n is required")
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")

    checks: dict[str, Any] = {}
    for name in list(_TQ_CHECKS) if args.check == "all" else [args.check]:
        checks[name] = _TQ_CHECKS[name][0](n)
        log.info("tq %s at n=%d: %s", name, n, "pass" if checks[name].passed else "FAIL")
    all_ok = all(report.passed for report in checks.values())
    return {"n": n, "checks": checks, "passed": all_ok}, all_ok


def cmd_xxz(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    length = _require_even_length(args.length)
    if args.bridge_check and length > profiles.ENUMERATION_CAP:
        raise UsageError(f"--bridge-check needs --length <= {profiles.ENUMERATION_CAP}, "
                         f"the enumeration cap of the tilted generator; got {length}")
    bridge = spinchain.bridge_parameters(length, args.alpha, args.beta)
    params = spinchain.XXZParams(length=length, delta_aniso=bridge.delta_aniso,
                                 twist=bridge.twist)
    energy = spinchain.ground_energy(params)
    lam = spinchain.lambda_from_energy(length, args.beta, energy)
    payload: dict[str, Any] = {
        "length": length,
        "alpha": args.alpha,
        "beta": args.beta,
        "bridge": bridge,
        "ground_energy": energy,
        "lambda_bridge": lam,
    }

    passed: bool | None = None
    if args.alpha == 0.0 and args.beta == 0.0:
        fields, row = _energy_check(length, energy)
        payload.update(fields)
        passed = row.passed

    if args.bridge_check:
        blocks, row = _bridge_check(length, {(args.alpha, args.beta): lam})
        payload["bridge_check"] = blocks[0]
        passed = row.passed if passed is None else (passed and row.passed)
    return payload, passed


def _verify_rows(lmax: int, nmax: int) -> list[Row]:
    rows: list[Row] = []

    def add(*new: Row) -> None:
        for row in new:
            rows.append(row)
            log.info("row %-24s %s", row.row, "pass" if row.passed else "FAIL")

    for length in range(2, lmax + 1, 2):
        add(*_stationary_checks(length).values())

    for length in range(2, min(lmax, 10) + 1, 2):
        add(*_slope_check(length, _FD_STEP)[1])

    # growth rates, each evaluated once per N
    rates = {n: _tq_lambda(n) for n in range(1, max(nmax, lmax // 2) + 1)}
    suite = [report for report, in_suite in _TQ_CHECKS.values() if in_suite]
    for n in range(1, nmax + 1):
        lam = rates[n]
        add(Row(f"tq-lambda-N{n:02d}",
                "growth rates assembled from polynomial data vs closed forms",
                f"{lam.alpha_formula}, {lam.beta_formula}", f"{lam.alpha}, {lam.beta}",
                lam.passed))
        suite_ok = all(report(n).passed for report in suite)
        add(Row(f"tq-suite-N{n:02d}",
                "functional relations, wronskians, boundary table, worksheets",
                "all identities exact", "pass" if suite_ok else "FAIL", suite_ok))

    for n in range(1, lmax // 2 + 1):
        drift_diamond, drift_global = stationary.exact_drifts(2 * n)
        lam = rates[n]
        add(Row(f"route-cross-N{n:02d}",
                "algebraic growth rates equal stationary currents at L=2N",
                f"{_frac(drift_diamond)}, {_frac(drift_global)}",
                f"{_frac(lam.beta)}, {_frac(lam.alpha)}",
                lam.beta == drift_diamond and lam.alpha == drift_global))

    recur = _TQ_CHECKS["recurrences"][0](30)
    add(Row("tq-recurrences",
            "six holonomic sequences, their recurrences and seeds, to order 30",
            "all exact", "pass" if recur.passed else "FAIL", recur.passed))

    for length in range(4, min(lmax, 14) + 1, 2):
        energy = spinchain.ground_energy(spinchain.XXZParams(length))
        add(_energy_check(length, energy)[1])

    for length in (4, 6, 8):
        if length > lmax:
            continue
        relations = spinchain.tl_relations_check(length)
        add(Row(f"xxz-tl-L{length:02d}",
                "loop-algebra generator relations at the combinatorial twist",
                f"errors <= {spinchain.TL_TOLERANCE:g}", f"{relations.worst_error:.2e}",
                relations.passed))
        spin = {(alpha, beta): spinchain.lambda_bridge(length, alpha, beta)
                for alpha in _BRIDGE_GRID for beta in _BRIDGE_GRID}
        add(_bridge_check(length, spin)[1])

    return sorted(rows, key=lambda row: row.row)


def cmd_verify_all(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    if args.lmax < 2 or args.lmax % 2:
        raise UsageError(f"--lmax must be an even integer >= 2, got {args.lmax}")
    if args.lmax > profiles.ENUMERATION_CAP:
        raise UsageError(f"--lmax {args.lmax} exceeds the enumeration cap "
                         f"{profiles.ENUMERATION_CAP} of the exact rows")
    if args.nmax < 1:
        raise UsageError(f"--nmax must be >= 1, got {args.nmax}")
    rows = _verify_rows(args.lmax, args.nmax)
    failures = [r.row for r in rows if not r.passed]

    width = max(len(r.row) for r in rows)
    print(f"verification matrix: lmax={args.lmax} nmax={args.nmax}")
    for r in rows:
        mark = "pass" if r.passed else "FAIL"
        print(f"  {r.row:<{width}}  {mark}  {r.detail}: "
              f"expected {r.expected}, got {r.actual}")
    if failures:
        print(f"{len(failures)} of {len(rows)} rows FAILED:")
        for key in failures:
            print(f"  FAILED {key}")
    else:
        print(f"all {len(rows)} rows passed")

    payload = {
        "lmax": args.lmax,
        "nmax": args.nmax,
        "row_count": len(rows),
        "failures": failures,
        "rows": rows,
    }
    return payload, not failures


_HANDLERS: dict[str, Callable[[argparse.Namespace], tuple[dict[str, Any], bool | None]]] = {
    "simulate": cmd_simulate,
    "stationary": cmd_stationary,
    "scgf": cmd_scgf,
    "tq": cmd_tq,
    "xxz": cmd_xxz,
    "verify-all": cmd_verify_all,
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH",
                        help="write the JSON payload here instead of stdout")
    common.add_argument("--config", metavar="PATH",
                        help="JSON object of flag defaults; explicit flags win")

    parser = argparse.ArgumentParser(
        prog="raisepeel",
        description="Avalanche currents of a raise-and-peel interface on a ring, "
                    "computed by simulation, exact stationary states, tilted "
                    "generators, polynomial identities, and a spin-chain bridge.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    by_name: dict[str, argparse.ArgumentParser] = {}

    sim = subs.add_parser("simulate", parents=[common],
                          help="sample the dynamics, report empirical currents")
    sim.add_argument("--length", type=int, help="ring length (even, >= 2)")
    sim.add_argument("--time", type=float, default=None,
                     help="time horizon (exclusive with --events)")
    sim.add_argument("--events", type=int, default=None,
                     help="event budget (exclusive with --time)")
    sim.add_argument("--seed", type=int, default=0, help="generator seed")
    sim.add_argument("--replicas", type=int, default=1,
                     help="independent replicas seeded seed, seed+1, ...")
    sim.add_argument("--report-every", dest="report_every", type=float, default=None,
                     help="progress record spacing in model time")
    sim.add_argument("--log", metavar="PATH",
                     help="JSON-lines progress log (needs --report-every)")
    by_name["simulate"] = sim

    st = subs.add_parser("stationary", parents=[common],
                         help="exact stationary state, currents, peak statistics")
    st.add_argument("--length", type=int, help="ring length (even, >= 2)")
    st.add_argument("--integers", action="store_true",
                    help="include the coprime integer form of the state weights")
    by_name["stationary"] = st

    sc = subs.add_parser("scgf", parents=[common],
                         help="cumulant generating function of the avalanche counts")
    sc.add_argument("--length", type=int, help="ring length (even, >= 2)")
    sc.add_argument("--alpha", type=float, default=0.0,
                    help="tilt conjugate to two-layer removals")
    sc.add_argument("--beta", type=float, default=0.0,
                    help="tilt conjugate to evacuated tiles")
    sc.add_argument("--fd-check", dest="fd_check", action="store_true",
                    help="compare finite-difference slopes with exact currents")
    sc.add_argument("--step", type=float, default=_FD_STEP,
                    help="base step for the finite-difference check")
    by_name["scgf"] = sc

    tqp = subs.add_parser("tq", parents=[common],
                          help="polynomial functional relations and growth rates")
    tqp.add_argument("--n", type=int, help="half the ring length")
    tqp.add_argument("--check", choices=("all", *_TQ_CHECKS), default="all",
                     help="which identity family to verify")
    by_name["tq"] = tqp

    xx = subs.add_parser("xxz", parents=[common],
                         help="twisted spin-chain energies and the bridge")
    xx.add_argument("--length", type=int, help="ring length (even, >= 2)")
    xx.add_argument("--alpha", type=float, default=0.0,
                    help="tilt mapped to the boundary twist")
    xx.add_argument("--beta", type=float, default=0.0,
                    help="tilt mapped to the anisotropy")
    xx.add_argument("--bridge-check", dest="bridge_check", action="store_true",
                    help="cross-check the bridged value against the tilted generator")
    by_name["xxz"] = xx

    va = subs.add_parser("verify-all", parents=[common],
                         help="run the full cross-route verification matrix")
    va.add_argument("--lmax", type=int, default=10,
                    help="largest ring length for the exact and spectral rows")
    va.add_argument("--nmax", type=int, default=12,
                    help="largest polynomial order for the algebraic rows")
    by_name["verify-all"] = va

    return parser, by_name


def _apply_config(argv: list[str],
                  subparsers: dict[str, argparse.ArgumentParser]) -> None:
    """Load --config JSON (if present) as defaults on every subparser."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    try:
        data = json.loads(Path(known.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {known.config}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object mapping flag names to values")
    valid = set()
    for sub in subparsers.values():
        # leaves out --help, whose default is SUPPRESS
        valid.update(a.dest for a in sub._actions if a.default != argparse.SUPPRESS)
    unknown = sorted(set(data) - valid)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for sub in subparsers.values():
        sub.set_defaults(**{action.dest: _config_value(action, data[action.dest])
                            for action in sub._actions if action.dest in data})


def _config_value(action: argparse.Action, value: Any) -> Any:
    """A config value checked as its flag would be on the command line: a
    JSON bool for a switch, else a value of the flag's type (any JSON
    number for a float flag) among its choices; null stands for a flag
    whose default is None."""
    if value is None and action.default is None:
        return value
    expected = bool if isinstance(action, argparse._StoreTrueAction) else action.type or str
    if type(value) is not expected and (expected, type(value)) != (float, int):
        want = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
        raise UsageError(f"config key {action.dest!r} must be {want[expected]}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config key {action.dest!r} must be one of "
                         f"{', '.join(map(str, action.choices))}, got {value!r}")
    try:
        return expected(value)
    except OverflowError as exc:
        raise UsageError(f"config key {action.dest!r}: {exc}") from exc


def _check_out_path(path: str) -> None:
    """Refuse an --out path that cannot be written, before any work runs
    and without creating the file: a directory, a read-only file, or a
    new file in a missing or read-only directory."""
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif target.exists():
        code = 0 if os.access(target, os.W_OK) else errno.EACCES
    elif not target.parent.is_dir():
        code = errno.ENOENT
    else:
        code = 0 if os.access(target.parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise UsageError(f"cannot write --out {path}: {os.strerror(code)}")


def _manifest_parameters(args: argparse.Namespace) -> dict[str, Any]:
    return {k: v for k, v in sorted(vars(args).items()) if k != "command"}


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        _apply_config(argv, subparsers)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)

    started = _now()
    try:
        if args.out:
            _check_out_path(args.out)
        payload, passed = _HANDLERS[args.command](args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (scgf.ConvergenceError, tq.RefinementError) as exc:
        print(f"error: convergence failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}; reduce --length or --nmax", file=sys.stderr)
        return 3

    manifest = RunManifest(
        subcommand=args.command,
        parameters=_manifest_parameters(args),
        seed=getattr(args, "seed", None),
        version=__version__,
        started=started,
        finished=_now(),
        passed=passed,
    )
    text = json.dumps(_jsonable({"manifest": manifest, **payload}), indent=2)

    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
        log.info("wrote %s", args.out)
    elif args.command != "verify-all":
        print(text)
    return 0 if passed in (True, None) else 1


if __name__ == "__main__":
    sys.exit(main())
