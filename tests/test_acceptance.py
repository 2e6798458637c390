"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one pass/fail line (visible under pytest -s or -rA) and
asserts the same condition, so the suite doubles as a readable report.
"""

import time
from fractions import Fraction

from raisepeel.profiles import count_peaks, enumerate_states, tile_count
from raisepeel.scgf import scgf_derivatives, scgf_value
from raisepeel.simulate import SimConfig, simulate
from raisepeel.spinchain import (
    XXZParams,
    ground_energy,
    lambda_bridge,
    tl_relations_check,
)
from raisepeel.stationary import (
    diamond_current_formula,
    exact_drifts,
    expected_peaks,
    global_current_formula,
    omega_probability_formula,
    peak_mean_formula,
    prob_omega_global,
)
from raisepeel.tq import (
    boundary_values,
    derivative_worksheet,
    hypergeometric_check,
    lambda_alpha,
    lambda_alpha_formula,
    lambda_beta,
    lambda_beta_formula,
    recurrence_check,
    verify_tq,
    verify_wronskian,
)
from reference import in_omega_global, transitions

F = Fraction


def _report(criterion: int, description: str, ok: bool) -> None:
    line = f"[criterion {criterion}] {description}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def test_criterion_1_exact_conjectures():
    started = time.perf_counter()
    ok = True
    for length in (2, 4, 6, 8, 10, 12):
        ok = ok and expected_peaks(length) == F(3 * length ** 3,
                                                8 * (length ** 2 - 1))
        ok = ok and prob_omega_global(length) == F(3 * length,
                                                   4 * (length ** 2 - 1))
    ok = ok and expected_peaks(2) == 1 and prob_omega_global(2) == F(1, 2)
    ok = ok and expected_peaks(4) == F(8, 5) and prob_omega_global(4) == F(1, 5)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 600.0
    _report(1, "stationary peak mean and avalanche-window probability, "
               f"exact for L of 2..12 ({elapsed:.1f}s)", ok)


def test_criterion_2_exact_drifts():
    ok = True
    for length in range(2, 13, 2):
        drift_diamond, drift_global = exact_drifts(length)
        ok = ok and drift_diamond == F(
            length * (5 * length ** 2 - 8), 8 * (length ** 2 - 1))
        ok = ok and drift_global == F(3 * length, 4 * (length ** 2 - 1))
        ok = ok and drift_diamond + expected_peaks(length) == length
    _report(2, "exact avalanche currents and tile balance for L of 2..12", ok)


def test_criterion_3_closed_form_growth_rates():
    started = time.perf_counter()
    ok = True
    for n in range(1, 21):
        ok = ok and lambda_alpha(n) == F(3 * n, 2 * (4 * n * n - 1))
        ok = ok and lambda_beta(n) == F(n * (5 * n * n - 2), 4 * n * n - 1)
        ok = ok and lambda_alpha(n) == lambda_alpha_formula(n)
        ok = ok and lambda_beta(n) == lambda_beta_formula(n)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report(3, "algebraic growth rates exact for N of 1..20 "
               f"({elapsed:.1f}s)", ok)


def test_criterion_4_scgf_route():
    ok = True
    worst_origin = 0.0
    worst_rel = 0.0
    for length in range(2, 11, 2):
        origin = abs(scgf_value(length).lambda_value)
        worst_origin = max(worst_origin, origin)
        d_alpha, d_beta = scgf_derivatives(length)
        rel = max(
            abs(d_alpha / float(global_current_formula(length)) - 1.0),
            abs(d_beta / float(diamond_current_formula(length)) - 1.0),
        )
        worst_rel = max(worst_rel, rel)
    ok = worst_origin <= 1e-12 and worst_rel <= 1e-6
    _report(4, "cumulant function zero at the origin and slopes matching "
               f"exact currents, L of 2..10 (origin {worst_origin:.1e}, "
               f"rel {worst_rel:.1e})", ok)


def test_criterion_5_polynomial_machinery():
    ok = True
    for n in range(1, 21):
        tq_rep = verify_tq(n)
        ok = ok and tq_rep.passed and tq_rep.product_condition
        ok = ok and tq_rep.transfer_value_at_q
        ok = ok and verify_wronskian(n).passed
        boundary = boundary_values(n)
        ok = ok and boundary.passed and len(boundary.entries) == 12
        ok = ok and derivative_worksheet(n).passed
        ok = ok and hypergeometric_check(n).passed
    recur = recurrence_check(n_max=30)
    ok = ok and recur.passed
    _report(5, "functional relations, boundary tables, worksheets, and "
               "hypergeometric and recurrence identities, N up to 20 "
               "(recurrences to 30)", ok)


def test_criterion_6_spin_chain_bridge():
    ok = True
    worst_energy = 0.0
    for length in range(4, 15, 2):
        err = abs(ground_energy(XXZParams(length)) + 0.75 * length)
        worst_energy = max(worst_energy, err)
    ok = ok and worst_energy <= 1e-10

    worst_tl = 0.0
    for length in (4, 6, 8):
        rep = tl_relations_check(length)
        ok = ok and rep.worst_error < 1e-12
        worst_tl = max(worst_tl, rep.idempotent_error, rep.neighbor_error,
                       rep.commutation_error, rep.quotient_error)

    worst_bridge = 0.0
    for length in (4, 6, 8):
        for alpha in (-0.1, 0.0, 0.1):
            for beta in (-0.1, 0.0, 0.1):
                gap = abs(lambda_bridge(length, alpha, beta)
                          - scgf_value(length, alpha, beta).lambda_value)
                worst_bridge = max(worst_bridge, gap)
    ok = ok and worst_bridge <= 1e-8
    _report(6, "ground energies -3L/4 to 1e-10 for L of 4..14, algebra "
               f"relations to 1e-12, bridge to 1e-8 (energy {worst_energy:.1e}, "
               f"algebra {worst_tl:.1e}, bridge {worst_bridge:.1e})", ok)


def test_criterion_7_monte_carlo_lln():
    ok = True
    details = []
    for length in (4, 8):
        started = time.perf_counter()
        summary = simulate(SimConfig(length=length, t_max=1e5, seed=7))
        elapsed = time.perf_counter() - started
        ok = ok and elapsed < 120.0
        ok = ok and summary.drift_diamond_hat.within(
            float(diamond_current_formula(length)))
        ok = ok and summary.drift_global_hat.within(
            float(global_current_formula(length)))
        ok = ok and summary.mean_peaks_hat.within(
            float(peak_mean_formula(length)))
        details.append(f"L={length} {elapsed:.1f}s")
    _report(7, "three empirical time averages within 3 standard errors at "
               f"t=1e5 ({', '.join(details)})", ok)


def test_criterion_8_structural_suites():
    ok = True
    for length in (2, 4, 6, 8, 10):
        states = enumerate_states(length)
        state_set = set(states)
        index = {s: k for k, s in enumerate(states)}
        reached = {0}
        frontier = [0]
        reverse_edges = [set() for _ in states]
        for h in states:
            peaks = 0
            globals_here = 0
            for rec in transitions(h):
                ok = ok and rec.target in state_set
                ok = ok and (rec.delta_peak + rec.delta_diamond
                             + rec.delta_tiles == 1)
                ok = ok and tile_count(rec.target) == tile_count(h) + rec.delta_tiles
                peaks += rec.delta_peak
                globals_here += rec.delta_global
                if rec.target != h:
                    reverse_edges[index[rec.target]].add(index[h])
            ok = ok and peaks == count_peaks(h)
            ok = ok and globals_here == (1 if in_omega_global(h) else 0)
        while frontier:
            new = set()
            for k in frontier:
                for rec in transitions(states[k]):
                    j = index[rec.target]
                    if j not in reached:
                        reached.add(j)
                        new.add(j)
            frontier = list(new)
        ok = ok and len(reached) == len(states)
        back = {0}
        frontier = [0]
        while frontier:
            new = {j for k in frontier for j in reverse_edges[k]} - back
            back |= new
            frontier = list(new)
        ok = ok and len(back) == len(states)
    _report(8, "closure, balance, trigger equivalence, and irreducibility, "
               "exhaustive for L up to 10", ok)
