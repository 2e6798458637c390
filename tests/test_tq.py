"""Functional relations, boundary tables, growth rates, and recurrences."""

import dataclasses
from fractions import Fraction
from math import lcm

import pytest

import raisepeel.tq
from raisepeel.qfield import Q_GEN, Polynomial
from raisepeel.tq import (
    RefinementError,
    _quotient,
    a1_prime_seq,
    a1_second_seq,
    a1_seq,
    a2_prime_seq,
    a2_second_seq,
    a2_seq,
    bae_residuals,
    bethe_roots,
    boundary_values,
    c_constant,
    derivative_worksheet,
    hypergeometric_check,
    lambda_alpha,
    lambda_alpha_formula,
    lambda_beta,
    lambda_beta_formula,
    lambda_from_roots,
    p_poly,
    q_poly,
    recurrence_check,
    tq_residual,
    verify_tq,
    verify_wronskian,
)

F = Fraction
ORDERS = range(1, 13)


def test_polynomials_small_orders():
    assert q_poly(1).rational_coeffs() == (F(-1, 2), F(1))
    assert p_poly(1).rational_coeffs() == (F(-2), F(1))
    assert q_poly(2).rational_coeffs() == (F(2, 5), F(-8, 5), F(1))
    # the companion polynomial is the reversed one over its value at zero
    for n in (1, 2, 3, 4):
        q = q_poly(n)
        rev = q.reversed_coeffs()
        assert p_poly(n) == rev * q.coeffs[0].inverse()


@pytest.mark.parametrize("n", ORDERS)
def test_functional_relations(n):
    report = verify_tq(n)
    assert report.passed
    assert report.q_relation_zero and report.p_relation_zero
    assert report.q_monic_degree and report.p_is_reversed_q
    assert report.product_condition and report.transfer_value_at_q
    assert tq_residual(n, "q").degree == -1
    assert tq_residual(n, "p").degree == -1


def test_relation_breaks_under_perturbation():
    # negative control: bump one coefficient and the twisted product
    # condition Q(1/q) = q (q-1)^n Q(q) must fail
    n = 2
    q = Q_GEN
    poly = q_poly(n)
    coeffs = list(poly.coeffs)
    coeffs[1] = coeffs[1] + F(1, 7)
    broken = type(poly)(coeffs)
    lhs = broken(q.inverse())
    rhs = q * (q - 1) ** n * broken(q)
    assert lhs != rhs
    intact = poly(q.inverse()) == q * (q - 1) ** n * poly(q)
    assert intact


def _bumped_by_smallest_step(poly, in_q_part):
    """poly with its middle coefficient moved by 1/den, den the common
    denominator of the coefficients: the smallest step the numerators allow."""
    coeffs = list(poly.coeffs)
    den = lcm(*(part.denominator for c in coeffs for part in (c.a, c.b)))
    step = Fraction(1, den)
    i = poly.degree // 2
    coeffs[i] = coeffs[i] + (Q_GEN * step if in_q_part else step)
    return type(poly)(coeffs)


@pytest.mark.parametrize("n", [2, 7, 12])
@pytest.mark.parametrize("in_q_part", [False, True])
@pytest.mark.parametrize("which", ["q", "p"])
def test_identities_fail_on_smallest_bump(monkeypatch, which, in_q_part, n):
    # negative control: normalisation of the integer numerators must not
    # let a nonzero residual test as zero
    poly = getattr(raisepeel.tq, f"{which}_poly")(n)
    bumped = _bumped_by_smallest_step(poly, in_q_part)
    assert bumped != poly and bumped.is_monic() and bumped.degree == n
    monkeypatch.setattr(raisepeel.tq, f"{which}_poly", lambda m: bumped)
    assert raisepeel.tq.tq_residual(n, which)
    assert not raisepeel.tq.verify_tq(n).passed
    assert not raisepeel.tq.verify_wronskian(n).passed


@pytest.mark.parametrize("n", ORDERS)
def test_wronskian_identities(n):
    report = verify_wronskian(n)
    assert report.passed


@pytest.mark.parametrize("n", ORDERS)
def test_boundary_table(n):
    report = boundary_values(n)
    assert len(report.entries) == 12
    assert report.passed
    assert report.factorial_descent_ok
    assert report.derivative_identities_ok
    for entry in report.entries:
        assert entry.direct == entry.closed, entry.name


def test_boundary_table_n1_degenerate_entries_flagged():
    report = boundary_values(1)
    notes = [e for e in report.entries if e.note]
    # the second-derivative entries at the inverse point degenerate at
    # the smallest order; they stay in the table but carry a note
    assert notes
    assert all(e.passed for e in report.entries)


# exact report at N = 3 -> the number of its verdict fields; a verdict field
# typed as anything but bool would drop out of the pass rule, so pin them
VERDICT_FIELDS = {
    verify_tq: 7,
    verify_wronskian: 2,
    boundary_values: 2,
    derivative_worksheet: 6,
    hypergeometric_check: 3,
    lambda n: recurrence_check(n_max=n): 6,
}


@pytest.mark.parametrize("build, count", VERDICT_FIELDS.items(),
                         ids=["tq", "wronskian", "boundary", "worksheet", "hyper", "recurrence"])
def test_every_bool_field_decides_the_verdict(build, count):
    report = build(3)
    assert report.passed
    flags = [f.name for f in dataclasses.fields(report) if f.type in (bool, "bool")]
    held = [f.name for f in dataclasses.fields(report)
            if isinstance(getattr(report, f.name), bool)]
    assert len(flags) == count and held == flags
    for name in flags:
        assert not dataclasses.replace(report, **{name: False}).passed, name


def test_boundary_report_fails_on_one_wrong_closed_form():
    report = boundary_values(3)
    for i, entry in enumerate(report.entries):
        entries = list(report.entries)
        entries[i] = dataclasses.replace(entry, closed=entry.closed + 1)
        assert not dataclasses.replace(report, entries=tuple(entries)).passed, entry.name


@pytest.mark.parametrize("n", ORDERS)
def test_derivative_worksheet(n):
    assert derivative_worksheet(n).passed


@pytest.mark.parametrize("n", ORDERS)
def test_hypergeometric_forms(n):
    assert hypergeometric_check(n).passed


def test_growth_rate_values():
    assert lambda_alpha(1) == F(1, 2)
    assert lambda_beta(1) == F(1)
    assert lambda_alpha(2) == F(1, 5)
    assert lambda_beta(2) == F(12, 5)
    assert lambda_alpha(3) == F(9, 70)
    assert lambda_beta(3) == F(129, 35)


@pytest.mark.parametrize("n", range(1, 21))
def test_growth_rates_match_closed_forms(n):
    assert lambda_alpha(n) == lambda_alpha_formula(n)
    assert lambda_beta(n) == lambda_beta_formula(n)
    assert lambda_alpha_formula(n) == F(3 * n, 2 * (4 * n * n - 1))
    assert lambda_beta_formula(n) == F(n * (5 * n * n - 2), 4 * n * n - 1)


def test_constant_c_is_rational_and_nonzero():
    for n in range(1, 9):
        assert c_constant(n) != 0


def test_recurrence_seeds():
    assert (a1_seq(1), a1_seq(2)) == (F(2), F(5))
    assert (a2_seq(1), a2_seq(2)) == (F(1), F(4))
    assert (a1_prime_seq(1), a1_prime_seq(2)) == (F(1), F(5, 3))
    assert (a2_prime_seq(1), a2_prime_seq(2)) == (F(0), F(2, 3))
    assert (a1_second_seq(2), a1_second_seq(3)) == (F(1), F(20, 13))
    assert (a2_second_seq(2), a2_second_seq(3)) == (F(0), F(7, 13))


def test_recurrences_to_order_thirty():
    report = recurrence_check(n_max=30)
    assert report.passed


def test_difference_identity():
    for n in range(1, 25):
        assert a1_seq(n) - a2_seq(n) == 1


@pytest.mark.parametrize("n", [2, 4, 6, 8, *range(13, 21)])
def test_roots_and_energies(n):
    report = lambda_from_roots(n)
    assert report.passed
    assert report.max_bae_residual < 1e-8
    assert report.energy_target == -1.5 * n
    assert abs(report.energy - report.energy_target) < 1e-8
    assert len(report.roots) == n
    residuals = bae_residuals(n, bethe_roots(n))
    assert max(residuals) < 1e-8


def test_refinement_failure_is_a_runtime_error():
    # the CLI exits 3 on it (tests/test_cli.py)
    assert issubclass(RefinementError, RuntimeError)


def test_quotient_refuses_a_wrong_quotient():
    square = Polynomial([1, 1]) ** 2
    assert _quotient(square * Polynomial([3, 1]), 1) == Polynomial([3, 1])
    with pytest.raises(RuntimeError, match="degree 1, monic False; expected monic degree 1"):
        _quotient(square * Polynomial([1, 2]), 1)
    with pytest.raises(RuntimeError, match="degree 2, monic True; expected monic degree 1"):
        _quotient(square * Polynomial([0, 0, 1]), 1)
