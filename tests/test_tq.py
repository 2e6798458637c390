"""Functional relations, boundary tables, growth rates, and recurrences."""

import dataclasses
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial, lcm

import numpy as np
import pytest

import raisepeel.tq
from raisepeel.cli import main
from raisepeel.qfield import Polynomial, QFieldElement, poch
from raisepeel.tq import (
    a1_prime_seq,
    a1_second_seq,
    a1_seq,
    a2_prime_seq,
    a2_second_seq,
    a2_seq,
    bethe_check,
    boundary_values,
    c_constant,
    derivative_worksheet,
    f_p_poly,
    f_q_poly,
    hypergeometric_check,
    lambda_alpha,
    lambda_alpha_formula,
    lambda_beta,
    lambda_beta_formula,
    lambda_check,
    p_poly,
    q_poly,
    recurrence_check,
    root_equation_facts,
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


def _f_q_by_pochhammer(n):
    """f_Q coefficient by coefficient from Fraction rising factorials."""
    third = F(1, 3)
    pref = factorial(n) * poch(2 * third - n, n)
    coeffs = [F(0)] * (3 * n + 1)
    for k in range(n + 1):
        coeffs[3 * k] = pref / (poch(2 * third - k, n) * factorial(n - k) * factorial(k))
    for k in range(n):
        coeffs[3 * k + 2] = pref / (poch(-k - 2 * third, n + 1) * factorial(n - k - 1)
                                    * factorial(k))
    return Polynomial(coeffs)


def _f_p_by_pochhammer(n):
    """f_P coefficient by coefficient from Fraction rising factorials."""
    third = F(1, 3)
    pref = factorial(n) * poch(2 * third, n)
    coeffs = [F(0)] * (3 * n + 1)
    for k in range(n + 1):
        coeffs[3 * k] = pref / (poch(k - n + 2 * third, n) * factorial(k) * factorial(n - k))
    for k in range(n):
        coeffs[3 * k + 1] = pref / (poch(k - n + third, n + 1) * factorial(k)
                                    * factorial(n - k - 1))
    return Polynomial(coeffs)


def _integer_form(poly):
    return poly._a, poly._b, poly._den


@pytest.mark.parametrize("n", range(1, 41))
def test_closed_forms_match_their_pochhammer_formulas(n):
    # the integer ratios of f_q_poly and f_p_poly against the Fraction
    # formulas they replace, down to the stored integers
    assert _integer_form(f_q_poly(n)) == _integer_form(_f_q_by_pochhammer(n))
    assert _integer_form(f_p_poly(n)) == _integer_form(_f_p_by_pochhammer(n))


@pytest.mark.parametrize("shift", [-1, 1, QFieldElement.gen(), QFieldElement.gen().inverse()],
                         ids=["-1", "1", "q", "q^-1"])
@pytest.mark.parametrize("n", range(1, 21))
def test_transfer_factor_matches_repeated_products(n, shift):
    # the scaled binomial row against (1 - shift x)^2N by powering
    direct = Polynomial([1, -shift]) ** (2 * n)
    assert _integer_form(raisepeel.tq._transfer_factor(n, shift)) == _integer_form(direct)


@pytest.mark.parametrize("n", [*range(1, 41), 60])
def test_functional_relations(n):
    report = verify_tq(n)
    assert report.passed
    assert report.q_relation_zero and report.p_relation_zero
    assert report.q_monic_degree and report.p_is_reversed_q
    assert report.product_condition and report.transfer_value_at_q
    assert report.eigenvalue_zero and report.ground_energy_exact
    assert tq_residual(n, "q").degree == -1
    assert tq_residual(n, "p").degree == -1


def test_relation_breaks_under_perturbation():
    # negative control: bump one coefficient and the twisted product
    # condition Q(1/q) = q (q-1)^n Q(q) must fail
    n = 2
    q = QFieldElement.gen()
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
    coeffs[i] = coeffs[i] + (QFieldElement.gen() * step if in_q_part else step)
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
    verify_tq: 9,
    verify_wronskian: 2,
    boundary_values: 2,
    derivative_worksheet: 6,
    hypergeometric_check: 3,
    lambda n: recurrence_check(n_max=n): 6,
    lambda_check: 2,
    bethe_check: 3,
}


@pytest.mark.parametrize("build, count", VERDICT_FIELDS.items(),
                         ids=["tq", "wronskian", "boundary", "worksheet", "hyper", "recurrence",
                              "lambda", "bethe"])
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


@pytest.mark.parametrize("n_max", [1, 2])
def test_recurrence_check_needs_the_third_seed(n_max):
    with pytest.raises(ValueError, match="n_max >= 3"):
        recurrence_check(n_max=n_max)


def test_difference_identity():
    for n in range(1, 25):
        assert a1_seq(n) - a2_seq(n) == 1


def _root_equation_residuals(n, roots):
    """|lhs/rhs - 1| at each root of two forms of the root equation: the
    product form root_equation_facts derives from the T-Q relation, and the
    twisted form with u^2N = q^2 and the sign (-1)^(N-1)."""
    q, u = np.exp(1j * np.pi / 3), np.exp(1j * np.pi / (3 * n))
    moebius = ((roots - q) / (1 - q * roots)) ** (2 * n)
    x, others = roots[:, None], roots[None, :]
    product = (x - q ** 2 * others) / (q ** 2 * x - others)
    twisted = (q ** 2 * others - x) / (q ** 2 * x - others)
    np.fill_diagonal(product, 1)
    np.fill_diagonal(twisted, 1)
    return (np.abs(moebius / (q ** -2 * product.prod(axis=1)) - 1),
            np.abs(u ** (2 * n) * moebius / ((-1) ** (n - 1) * twisted.prod(axis=1)) - 1))


def _roots_of_q(n, digits=60):
    """The roots of Q as complex floats: the np.roots seeds, each refined
    by Newton on Q itself in `digits`-digit decimal arithmetic.  np.roots
    alone is 1e-9 off at N = 13 and 2e-5 off at N = 20, while the closest
    two roots stay more than 0.08 apart up to N = 20."""
    poly = q_poly(n)

    def real(c):
        return Decimal(c.numerator) / c.denominator

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def add(x, y):
        return x[0] + y[0], x[1] + y[1]

    out = []
    with localcontext() as ctx:
        ctx.prec = digits
        half_root3 = Decimal(3).sqrt() / 2
        coeffs = [(real(c.a) + real(c.b) / 2, real(c.b) * half_root3) for c in poly.coeffs]
        converged = Decimal(10) ** (20 - 2 * digits)
        for seed in np.roots([complex(c) for c in reversed(poly.coeffs)]):
            x = Decimal(seed.real), Decimal(seed.imag)
            for _ in range(50):
                value = slope = Decimal(0), Decimal(0)
                for c in reversed(coeffs):
                    slope = add(mul(slope, x), value)
                    value = add(mul(value, x), c)
                norm = slope[0] ** 2 + slope[1] ** 2
                step = ((value[0] * slope[0] + value[1] * slope[1]) / norm,
                        (value[1] * slope[0] - value[0] * slope[1]) / norm)
                x = x[0] - step[0], x[1] - step[1]
                if step[0] ** 2 + step[1] ** 2 < converged:
                    break
            else:
                raise AssertionError(f"Newton on Q did not converge at N={n}")
            out.append(complex(float(x[0]), float(x[1])))
    return np.array(out)


@pytest.mark.parametrize("n", [*range(1, 11), *range(13, 21)])
def test_roots_and_energies(n):
    # float reference for the exact verdict: the roots of Q meet both forms
    # of the root equation, and the energy summed over them meets the exact
    # -3L/4 that verify_tq decides through Q'/Q
    exact = verify_tq(n)
    assert exact.eigenvalue_zero and exact.ground_energy_exact
    roots = _roots_of_q(n)
    # n pairwise distinct zeros of a degree-n polynomial are all its roots
    assert len(roots) == n
    assert all(abs(a - b) > 1e-3 for i, a in enumerate(roots) for b in roots[i + 1:])
    for residuals in _root_equation_residuals(n, roots):
        assert residuals.max() < 1e-8
    q, u = np.exp(1j * np.pi / 3), np.exp(1j * np.pi / (3 * n))
    z = u * (roots - q) / (1 - q * roots)
    assert abs(-n / 2 - np.sum(u / z + z / u) + 1.5 * n) < 1e-8


@pytest.mark.parametrize("n", range(1, 41))
def test_root_equations_hold_exactly(n):
    report = bethe_check(n)
    assert report.passed and report.n == n


_X, _Q = Polynomial.x(), QFieldElement.gen()
_ROOT_FACTS = ("squarefree", "nonzero_at_q_and_qi", "coprime_to_shifts")


@pytest.mark.parametrize("factor, broken", [
    ((_X - 2) ** 2, "squarefree"),
    ((_X - 3) * (_X - 3 * _Q ** 2), "coprime_to_shifts"),
    (_X - _Q, "nonzero_at_q_and_qi"),
], ids=["double-root", "root-pair-a-shift-apart", "root-at-q"])
@pytest.mark.parametrize("n", [1, 3, 8, 20])
def test_each_broken_fact_fails_alone(factor, broken, n):
    # negative controls: Q times a factor that breaks one fact flips that
    # field alone, and the verdict with it
    report = root_equation_facts(q_poly(n) * factor)
    assert {name: getattr(report, name) for name in _ROOT_FACTS} == {
        name: name != broken for name in _ROOT_FACTS}
    assert not report.passed


@pytest.mark.parametrize("poly", [
    Polynomial([F(1, 2 ** 61 - 1), 1]),
    Polynomial([1, 2 ** 61 - 1]),
], ids=["denominator", "leading-coefficient"])
def test_no_reduction_mod_p_proves_no_gcd_fact(poly):
    # the prime divides a denominator or the leading coefficient: the gcd
    # facts are reported unproved rather than raising
    report = root_equation_facts(poly)
    assert not report.squarefree and not report.coprime_to_shifts
    assert report.nonzero_at_q_and_qi and not report.passed


@pytest.fixture(params=[Polynomial([1, 1]), Polynomial([2])], ids=["degree", "leading"])
def f_q_times(request, monkeypatch):
    """f_Q times (1 + x) or 2, so that Q comes out monic of degree N + 1 or
    of degree N but not monic; the Q and P caches are cleared before and
    after.  Yields the factor."""
    original = raisepeel.tq.f_q_poly
    monkeypatch.setattr(raisepeel.tq, "f_q_poly", lambda n: original(n) * request.param)
    q_poly.cache_clear()
    p_poly.cache_clear()
    yield request.param
    q_poly.cache_clear()
    p_poly.cache_clear()


def test_wrong_quotient_fails_the_report(f_q_times, capsys):
    # negative control: the report decides the degree and monicity of Q, so
    # a wrong quotient is a failed check, not an exception before the report
    assert (q_poly(3).degree, q_poly(3).is_monic()) != (3, True)
    report = verify_tq(3)
    assert not report.q_monic_degree
    assert not report.passed
    assert main(["tq", "--n", "3", "--check", "tq"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"]["tq"]["q_monic_degree"] is False
    assert doc["passed"] is False


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_wrong_quotient_moves_the_bethe_claims(f_q_times, n):
    # negative control: the extra root -1 of (1 + x) Q adds to both root
    # sums, so both claims fail; 2 Q has the same Q'/Q, so both still hold
    # and only q_monic_degree fails
    held = f_q_times.degree == 0
    report = verify_tq(n)
    assert report.eigenvalue_zero is held and report.ground_energy_exact is held
    assert report.q_monic_degree is False
    assert not report.passed
