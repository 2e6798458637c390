"""Command-line driver and the cross-route verification matrix.

One binary, subcommand dispatch.  Every payload embeds a manifest
(subcommand, full parameter set, seed, tool version, timestamps, pass
flag) so an output file is self-describing and reruns are reproducible.
Exact rational quantities serialize as fraction strings such as "12/5",
never as floats; floating-point numbers appear only where the quantity
itself is one (Monte Carlo estimates, eigenvalues, residuals).

Exit codes: 0 everything asked for passed (or nothing was checked),
1 a verification row failed, 2 usage error, 3 convergence or resource
failure.  The only environment variable consulted is RPM_LOG, which
sets the logging level (debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from . import __version__, qfield, scgf, simulate as simulate_mod, spinchain, stationary, tq

log = logging.getLogger("raisepeel.cli")

_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

_TQ_CHECKS = ("all", "tq", "wronskian", "boundary", "worksheet", "lambda",
              "hyper", "recurrences", "bethe")

_FD_TOLERANCE = 1e-6
_ORIGIN_TOLERANCE = 1e-12
_ENERGY_TOLERANCE = 1e-10
_TL_TOLERANCE = 1e-12
_BRIDGE_TOLERANCE = 1e-8
_BRIDGE_GRID = (-0.1, 0.0, 0.1)


class UsageError(Exception):
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

    def as_json_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def _frac(value: Fraction) -> str:
    return str(Fraction(value))


def _state_key(heights: tuple[int, ...]) -> str:
    return ",".join(str(h) for h in heights)


def _jsonable(value: Any) -> Any:
    """Recursively convert report objects to JSON-safe data.

    Exact rationals and field elements become strings, complex numbers
    become [re, im] pairs; everything else keeps its natural JSON type.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, qfield.QFieldElement):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if hasattr(value, "passed"):
            passed = value.passed
            out["passed"] = bool(passed() if callable(passed) else passed)
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
# subcommand handlers: each returns (payload, passed) where passed may be
# None when the run produced data but verified nothing


def cmd_simulate(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    _require_even_length(args.length)
    if args.log and args.report_every is None:
        raise UsageError("--log needs --report-every to set the tick spacing")
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

    if args.replicas > 1:
        if args.log:
            raise UsageError("--log applies to single runs, not --replicas ensembles")
        runs = simulate_mod.run_ensemble(cfg, args.replicas)
        pooled: dict[str, Any] = {}
        for field in ("drift_diamond_hat", "drift_global_hat", "mean_peaks_hat"):
            values = [getattr(r, field).value for r in runs if getattr(r, field) is not None]
            pooled[field] = (simulate_mod.pooled_estimate(values).as_json_dict()
                             if len(values) >= 2 else None)
        payload = {
            "replicas": [r.as_json_dict() for r in runs],
            "pooled": pooled,
        }
        return payload, None

    writer = None
    handle = None
    if args.log:
        handle = open(args.log, "w", encoding="utf-8")

        def writer(record: dict) -> None:
            print(json.dumps(record), file=handle)

    try:
        summary = simulate_mod.simulate(cfg, log_writer=writer)
    finally:
        if handle is not None:
            handle.close()
    log.info("simulated %d events over time %.6g", summary.counters.n_total,
             summary.elapsed_time)
    return {"summary": summary.as_json_dict()}, None


def cmd_stationary(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    length = _require_even_length(args.length)
    vec = stationary.stationary_distribution(length)
    drift_diamond, drift_global = stationary.exact_drifts(length)
    peaks = stationary.expected_peaks(length)
    omega = stationary.prob_omega_global(length)

    checks = {
        "drift_diamond": drift_diamond == stationary.diamond_current_formula(length),
        "drift_global": drift_global == stationary.global_current_formula(length),
        "expected_peaks": peaks == stationary.peak_mean_formula(length),
        "prob_omega_global": omega == stationary.omega_probability_formula(length),
        "tile_balance": drift_diamond + peaks == length,
    }
    payload: dict[str, Any] = {
        "length": length,
        "state_count": len(vec.states),
        "method": vec.method,
        "drift_diamond": _frac(drift_diamond),
        "drift_global": _frac(drift_global),
        "expected_peaks": _frac(peaks),
        "prob_omega_global": _frac(omega),
        "formulas": {
            "drift_diamond": _frac(stationary.diamond_current_formula(length)),
            "drift_global": _frac(stationary.global_current_formula(length)),
            "expected_peaks": _frac(stationary.peak_mean_formula(length)),
            "prob_omega_global": _frac(stationary.omega_probability_formula(length)),
        },
        "checks": checks,
        "probabilities": {
            _state_key(s): _frac(vec.probabilities[s]) for s in vec.states
        },
    }
    if args.integers:
        payload["integer_form"] = {
            _state_key(s): int(vec.integer_form[s]) for s in vec.states
        }
        payload["integer_sum"] = int(vec.integer_sum)
    return payload, all(checks.values())


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

    d_alpha, d_beta = scgf.scgf_derivatives(length, h_step=args.step)
    origin = scgf.scgf_value(length, scgf.DeformedParams()).lambda_value
    exact_alpha = stationary.global_current_formula(length)
    exact_beta = stationary.diamond_current_formula(length)
    rel_alpha = abs(d_alpha - float(exact_alpha)) / float(exact_alpha)
    rel_beta = abs(d_beta - float(exact_beta)) / float(exact_beta)
    fd_passed = (abs(origin) <= _ORIGIN_TOLERANCE
                 and rel_alpha <= _FD_TOLERANCE
                 and rel_beta <= _FD_TOLERANCE)
    payload["fd_check"] = {
        "step": args.step,
        "lambda_origin": origin,
        "derivative_alpha": d_alpha,
        "derivative_beta": d_beta,
        "exact_alpha": _frac(exact_alpha),
        "exact_beta": _frac(exact_beta),
        "relative_error_alpha": rel_alpha,
        "relative_error_beta": rel_beta,
        "origin_tolerance": _ORIGIN_TOLERANCE,
        "relative_tolerance": _FD_TOLERANCE,
        "passed": fd_passed,
    }
    return payload, fd_passed


def _tq_lambda_payload(n: int, alpha: Fraction,
                       beta: Fraction) -> tuple[dict[str, Any], bool]:
    alpha_formula = tq.lambda_alpha_formula(n)
    beta_formula = tq.lambda_beta_formula(n)
    passed = alpha == alpha_formula and beta == beta_formula
    return {
        "alpha": _frac(alpha),
        "beta": _frac(beta),
        "alpha_formula": _frac(alpha_formula),
        "beta_formula": _frac(beta_formula),
        "passed": passed,
    }, passed


def cmd_tq(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    n = args.n
    if n is None:
        raise UsageError("--n is required")
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")

    def run_one(name: str) -> tuple[Any, bool]:
        if name == "tq":
            report = tq.verify_tq(n)
        elif name == "wronskian":
            report = tq.verify_wronskian(n)
        elif name == "boundary":
            report = tq.boundary_values(n)
        elif name == "worksheet":
            report = tq.derivative_worksheet(n)
        elif name == "hyper":
            report = tq.hypergeometric_check(n)
        elif name == "recurrences":
            report = tq.recurrence_check(n_max=max(n, 3))
        elif name == "bethe":
            report = tq.lambda_from_roots(n)
        elif name == "lambda":
            return _tq_lambda_payload(n, tq.lambda_alpha(n), tq.lambda_beta(n))
        else:  # pragma: no cover - argparse restricts the choices
            raise UsageError(f"unknown check {name}")
        return _jsonable(report), bool(report.passed)

    names = [c for c in _TQ_CHECKS if c != "all"] if args.check == "all" else [args.check]
    payload: dict[str, Any] = {"n": n, "checks": {}}
    all_ok = True
    for name in names:
        body, ok = run_one(name)
        payload["checks"][name] = body
        all_ok = all_ok and ok
        log.info("tq %s at n=%d: %s", name, n, "pass" if ok else "FAIL")
    payload["passed"] = all_ok
    return payload, all_ok


def cmd_xxz(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    length = _require_even_length(args.length)
    bridge = spinchain.bridge_parameters(length, args.alpha, args.beta)
    params = spinchain.XXZParams(length=length, delta_aniso=bridge.delta_aniso,
                                 twist=bridge.twist)
    energy = spinchain.ground_energy(params)
    lam = spinchain.lambda_bridge(length, args.alpha, args.beta)
    payload: dict[str, Any] = {
        "length": length,
        "alpha": args.alpha,
        "beta": args.beta,
        "bridge": _jsonable(bridge),
        "ground_energy": energy,
        "lambda_bridge": lam,
    }

    passed: bool | None = None
    if args.alpha == 0.0 and args.beta == 0.0:
        target = -0.75 * length
        error = abs(energy - target)
        passed = error <= _ENERGY_TOLERANCE
        payload["reference_energy"] = target
        payload["energy_error"] = error
        payload["energy_tolerance"] = _ENERGY_TOLERANCE

    if args.bridge_check:
        other = scgf.scgf_value(length, scgf.DeformedParams(args.alpha, args.beta))
        diff = abs(lam - other.lambda_value)
        ok = diff <= _BRIDGE_TOLERANCE
        payload["bridge_check"] = {
            "lambda_scgf": other.lambda_value,
            "difference": diff,
            "tolerance": _BRIDGE_TOLERANCE,
            "passed": ok,
        }
        passed = ok if passed is None else (passed and ok)
    return payload, passed


def _verify_rows(lmax: int, nmax: int) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []

    def add(key: str, detail: str, expected: str, actual: str, ok: bool) -> None:
        rows.append({"row": key, "detail": detail, "expected": expected,
                     "actual": actual, "passed": bool(ok)})
        log.info("row %-24s %s", key, "pass" if ok else "FAIL")

    for length in range(2, lmax + 1, 2):
        drift_diamond, drift_global = stationary.exact_drifts(length)
        peaks = stationary.expected_peaks(length)
        omega = stationary.prob_omega_global(length)
        f_diamond = stationary.diamond_current_formula(length)
        f_global = stationary.global_current_formula(length)
        f_peaks = stationary.peak_mean_formula(length)
        f_omega = stationary.omega_probability_formula(length)
        add(f"conjecture-peaks-L{length:02d}",
            "stationary mean peak count vs closed form",
            _frac(f_peaks), _frac(peaks), peaks == f_peaks)
        add(f"conjecture-omega-L{length:02d}",
            "probability of the two-layer-removal window vs closed form",
            _frac(f_omega), _frac(omega), omega == f_omega)
        add(f"drift-diamond-L{length:02d}",
            "exact evacuated-tile current vs closed form",
            _frac(f_diamond), _frac(drift_diamond), drift_diamond == f_diamond)
        add(f"drift-global-L{length:02d}",
            "exact two-layer-removal current vs closed form",
            _frac(f_global), _frac(drift_global), drift_global == f_global)
        add(f"tile-balance-L{length:02d}",
            "evacuation current plus peak mean equals ring length",
            str(length), _frac(drift_diamond + peaks),
            drift_diamond + peaks == length)

    for length in range(2, min(lmax, 10) + 1, 2):
        origin = scgf.scgf_value(length, scgf.DeformedParams()).lambda_value
        add(f"scgf-origin-L{length:02d}",
            "cumulant generating function vanishes at zero tilt",
            f"|value| <= {_ORIGIN_TOLERANCE:g}", f"{abs(origin):.2e}",
            abs(origin) <= _ORIGIN_TOLERANCE)
        d_alpha, d_beta = scgf.scgf_derivatives(length)
        rel = max(
            abs(d_alpha - float(stationary.global_current_formula(length)))
            / float(stationary.global_current_formula(length)),
            abs(d_beta - float(stationary.diamond_current_formula(length)))
            / float(stationary.diamond_current_formula(length)),
        )
        add(f"scgf-slope-L{length:02d}",
            "tilted-generator gradient vs exact currents",
            f"rel err <= {_FD_TOLERANCE:g}", f"{rel:.2e}", rel <= _FD_TOLERANCE)

    # (alpha, beta) growth rates, each evaluated once per N
    rates = {n: (tq.lambda_alpha(n), tq.lambda_beta(n))
             for n in range(1, max(nmax, lmax // 2) + 1)}
    for n in range(1, nmax + 1):
        lam_payload, lam_ok = _tq_lambda_payload(n, *rates[n])
        add(f"tq-lambda-N{n:02d}",
            "growth rates assembled from polynomial data vs closed forms",
            f"{lam_payload['alpha_formula']}, {lam_payload['beta_formula']}",
            f"{lam_payload['alpha']}, {lam_payload['beta']}", lam_ok)
        suite_ok = (tq.verify_tq(n).passed
                    and tq.verify_wronskian(n).passed
                    and tq.boundary_values(n).passed
                    and tq.derivative_worksheet(n).passed
                    and tq.hypergeometric_check(n).passed)
        add(f"tq-suite-N{n:02d}",
            "functional relations, wronskians, boundary table, worksheets",
            "all identities exact", "pass" if suite_ok else "FAIL", suite_ok)

    for n in range(1, lmax // 2 + 1):
        length = 2 * n
        drift_diamond, drift_global = stationary.exact_drifts(length)
        alpha, beta = rates[n]
        cross_ok = beta == drift_diamond and alpha == drift_global
        add(f"route-cross-N{n:02d}",
            "algebraic growth rates equal stationary currents at L=2N",
            f"{_frac(drift_diamond)}, {_frac(drift_global)}",
            f"{_frac(beta)}, {_frac(alpha)}", cross_ok)

    recur = tq.recurrence_check(n_max=30)
    add("tq-recurrences",
        "six holonomic sequences, their recurrences and seeds, to order 30",
        "all exact", "pass" if recur.passed else "FAIL", recur.passed)

    for length in range(4, min(lmax, 14) + 1, 2):
        energy = spinchain.ground_energy(spinchain.XXZParams(length))
        target = -0.75 * length
        add(f"xxz-energy-L{length:02d}",
            "twisted-sector ground energy equals -3L/4",
            f"{target}", f"{energy:.12f}", abs(energy - target) <= _ENERGY_TOLERANCE)

    for length in (4, 6, 8):
        if length > lmax:
            continue
        rep = spinchain.tl_relations_check(length)
        worst = max(rep.idempotent_error, rep.neighbor_error,
                    rep.commutation_error, rep.quotient_error)
        add(f"xxz-tl-L{length:02d}",
            "loop-algebra generator relations at the combinatorial twist",
            f"errors <= {_TL_TOLERANCE:g}", f"{worst:.2e}", rep.passed(_TL_TOLERANCE))
        diff = 0.0
        for alpha in _BRIDGE_GRID:
            for beta in _BRIDGE_GRID:
                lam_spin = spinchain.lambda_bridge(length, alpha, beta)
                lam_pdp = scgf.scgf_value(
                    length, scgf.DeformedParams(alpha, beta)).lambda_value
                diff = max(diff, abs(lam_spin - lam_pdp))
        add(f"xxz-bridge-L{length:02d}",
            "spin-chain energy bridge matches the cumulant function on a grid",
            f"diff <= {_BRIDGE_TOLERANCE:g}", f"{diff:.2e}", diff <= _BRIDGE_TOLERANCE)

    rows.sort(key=lambda r: r["row"])
    return rows


def cmd_verify_all(args: argparse.Namespace) -> tuple[dict[str, Any], bool | None]:
    if args.lmax < 2 or args.lmax % 2:
        raise UsageError(f"--lmax must be an even integer >= 2, got {args.lmax}")
    if args.nmax < 1:
        raise UsageError(f"--nmax must be >= 1, got {args.nmax}")
    rows = _verify_rows(args.lmax, args.nmax)
    failures = [r["row"] for r in rows if not r["passed"]]

    width = max(len(r["row"]) for r in rows)
    print(f"verification matrix: lmax={args.lmax} nmax={args.nmax}")
    for r in rows:
        mark = "pass" if r["passed"] else "FAIL"
        print(f"  {r['row']:<{width}}  {mark}  {r['detail']}: "
              f"expected {r['expected']}, got {r['actual']}")
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
    sc.add_argument("--step", type=float, default=1e-3,
                    help="base step for the finite-difference check")
    by_name["scgf"] = sc

    tqp = subs.add_parser("tq", parents=[common],
                          help="polynomial functional relations and growth rates")
    tqp.add_argument("--n", type=int, help="half the ring length")
    tqp.add_argument("--check", choices=_TQ_CHECKS, default="all",
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
        valid.update(action.dest for action in sub._actions)
    unknown = sorted(set(data) - valid)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for sub in subparsers.values():
        dests = {action.dest for action in sub._actions}
        sub.set_defaults(**{k: v for k, v in data.items() if k in dests})


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
        payload, passed = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except scgf.ConvergenceError as exc:
        print(f"error: convergence failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; reduce --length or --nmax", file=sys.stderr)
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
    document = {"manifest": manifest.as_json_dict()}
    document.update(payload)
    text = json.dumps(document, indent=2)

    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        log.info("wrote %s", args.out)
    elif args.command != "verify-all":
        print(text)
    return 0 if passed in (True, None) else 1


if __name__ == "__main__":
    sys.exit(main())
