"""Exact pipeline for the avalanche current laws on the even ring.

The top eigenvalue of the tilted generator is controlled by a degree-N
polynomial pair (Q, P) that solves a three-term functional relation at the
stochastic point of the model on L = 2N sites.  Both polynomials divide
explicit closed-form polynomials of degree 3N (``f_q_poly``/``f_p_poly``)
by (1+x)^2N, and everything downstream is exact field arithmetic over
Q(q), q^2 = q - 1:

* ``verify_tq`` / ``verify_wronskian``: the functional relation and the
  two Wronskian-type product identities, checked to literal zero.
* ``boundary_values``: closed forms for Q, P and their first two
  derivatives at x = -1 and x = q^-1, plus the factorial descent between
  the derivatives of f_Q at -1 and those of Q.
* ``lambda_alpha`` / ``lambda_beta``: the two current derivatives of the
  top eigenvalue, assembled exactly from the boundary data; they come out
  as plain rationals.
* ``hypergeometric_check``: the same boundary evaluations reached through
  terminating 2F1 sums.
* ``recurrence_check``: the three pairs of derivative sums, their
  second-order recurrences, and the factorial identities they encode.
* ``bethe_roots`` / ``lambda_from_roots``: floating-point confirmation
  that the roots of Q solve the root equations and reproduce the expected
  eigenvalue and ground energy.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .qfield import Polynomial, QFieldElement, fact, poch

Q = QFieldElement.gen()          # q, with q^2 = q - 1
QI = Q.inverse()                 # q^-1 = 1 - q
THIRD = Fraction(1, 3)

FormalCombo = dict[tuple[str, int, str], QFieldElement]


class _Verdict:
    """The one verdict rule of the exact reports: a report passes when
    every field annotated ``bool`` is true."""

    @property
    def passed(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self) if f.type in (bool, "bool"))


# ---------------------------------------------------------------------------
# closed-form polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def f_q_poly(n: int) -> Polynomial:
    """Degree-3N closed form whose quotient by (1+x)^2N is Q.

    Exponent support sits in the classes 0 and 2 mod 3.

    >>> f_q_poly(1).rational_coeffs()
    (Fraction(-1, 2), Fraction(0, 1), Fraction(3, 2), Fraction(1, 1))
    """
    if n < 1:
        raise ValueError("system half-size must be >= 1")
    pref = fact(n) * poch(2 * THIRD - n, n)
    coeffs = [Fraction(0)] * (3 * n + 1)
    for k in range(n + 1):
        coeffs[3 * k] = pref / (poch(2 * THIRD - k, n) * fact(n - k) * fact(k))
    for k in range(n):
        coeffs[3 * k + 2] = pref / (poch(-k - 2 * THIRD, n + 1) * fact(n - k - 1) * fact(k))
    return Polynomial(coeffs)


@lru_cache(maxsize=None)
def f_p_poly(n: int) -> Polynomial:
    """Degree-3N closed form whose quotient by (1+x)^2N is P.

    Exponent support sits in the classes 0 and 1 mod 3.

    >>> f_p_poly(1).rational_coeffs()
    (Fraction(-2, 1), Fraction(-3, 1), Fraction(0, 1), Fraction(1, 1))
    """
    if n < 1:
        raise ValueError("system half-size must be >= 1")
    pref = fact(n) * poch(2 * THIRD, n)
    coeffs = [Fraction(0)] * (3 * n + 1)
    for k in range(n + 1):
        coeffs[3 * k] = pref / (poch(k - n + 2 * THIRD, n) * fact(k) * fact(n - k))
    for k in range(n):
        coeffs[3 * k + 1] = pref / (poch(k - n + THIRD, n + 1) * fact(k) * fact(n - k - 1))
    return Polynomial(coeffs)


def _quotient(f: Polynomial, n: int) -> Polynomial:
    """f / (1+x)^2N, which must be monic of degree N."""
    out = f.exact_div(Polynomial([1, 1]) ** (2 * n))
    if out.degree != n or not out.is_monic():
        raise RuntimeError(f"quotient by (1+x)^{2 * n} has degree {out.degree}, "
                           f"monic {out.is_monic()}; expected monic degree {n}")
    return out


@lru_cache(maxsize=None)
def q_poly(n: int) -> Polynomial:
    """Monic degree-N polynomial Q, the eigenvalue-equation numerator.

    >>> q_poly(1).rational_coeffs()
    (Fraction(-1, 2), Fraction(1, 1))
    """
    return _quotient(f_q_poly(n), n)


@lru_cache(maxsize=None)
def p_poly(n: int) -> Polynomial:
    """Monic degree-N partner polynomial P = x^N Q(1/x) / Q(0).

    >>> p_poly(1).rational_coeffs()
    (Fraction(-2, 1), Fraction(1, 1))
    """
    return _quotient(f_p_poly(n), n)


def c_constant(n: int) -> Fraction:
    """Normalization constant 3^2N N! (2/3-N)_N of the derivative identities."""
    return Fraction(3 ** (2 * n)) * fact(n) * poch(2 * THIRD - n, n)


# ---------------------------------------------------------------------------
# functional relation and Wronskians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TQReport(_Verdict):
    n: int
    q_relation_zero: bool
    p_relation_zero: bool
    q_monic_degree: bool
    p_is_reversed_q: bool
    support_classes_ok: bool
    product_condition: bool
    transfer_value_at_q: bool


def _transfer_factor(n: int, root_shift: QFieldElement) -> Polynomial:
    """(1 - x*root_shift)^2N as a polynomial in x."""
    return Polynomial([1, -root_shift]) ** (2 * n)


def tq_residual(n: int, which: str = "q") -> Polynomial:
    """Residual of the three-term functional relation; zero when it holds.

    With T(x) = (1+x)^2N and phi(x) = (1-x)^2N, the relation for Q reads
    T(x) Q(x) = q phi(x/q) Q(x q^2) + q^-1 phi(x q) Q(x q^-2); the one for
    P carries the reciprocal prefactors.
    """
    poly = q_poly(n) if which == "q" else p_poly(n)
    w_plus, w_minus = (Q, QI) if which == "q" else (QI, Q)
    t = Polynomial([1, 1]) ** (2 * n)
    term_plus = _transfer_factor(n, QI) * poly.scale_argument(Q ** 2) * w_plus
    term_minus = _transfer_factor(n, Q) * poly.scale_argument(Q ** -2) * w_minus
    return term_plus + term_minus - t * poly


def verify_tq(n: int) -> TQReport:
    """Check the functional relation and its companions exactly."""
    qp, pp = q_poly(n), p_poly(n)
    support_q = all(
        c == 0 for k, c in enumerate(f_q_poly(n).coeffs) if k % 3 == 1)
    support_p = all(
        c == 0 for k, c in enumerate(f_p_poly(n).coeffs) if k % 3 == 2)
    reversed_q = qp.reversed_coeffs() * qp.coeffs[0].inverse()
    # unit product of the per-root phases: Q(q^-1)/Q(q) = u^N (-1/q)^N with
    # the stochastic twist u^N = q
    product = qp(QI) == qp(Q) * Q * (Q - 1) ** n
    transfer = (1 - Q ** 2) ** (2 * n) * (-QI) ** n == (1 + Q) ** (2 * n)
    return TQReport(
        n=n,
        q_relation_zero=not tq_residual(n, "q"),
        p_relation_zero=not tq_residual(n, "p"),
        q_monic_degree=qp.is_monic() and qp.degree == n,
        p_is_reversed_q=pp == reversed_q,
        support_classes_ok=support_q and support_p,
        product_condition=product,
        transfer_value_at_q=transfer,
    )


@dataclass(frozen=True)
class WronskianReport(_Verdict):
    n: int
    phi_identity_zero: bool
    transfer_identity_zero: bool


def verify_wronskian(n: int) -> WronskianReport:
    """Check the two exact product identities tying Q and P together.

    [q Q(qx) P(x/q) - q^-1 Q(x/q) P(qx)] / (q - q^-1) = (1-x)^2N and the
    analogous combination with arguments shifted by q^2 equals (1+x)^2N.
    """
    qp, pp = q_poly(n), p_poly(n)
    denom = (Q - QI).inverse()

    def wron(shift: QFieldElement, weight: QFieldElement) -> Polynomial:
        lhs = (qp.scale_argument(shift) * pp.scale_argument(shift.inverse()) * weight
               - qp.scale_argument(shift.inverse()) * pp.scale_argument(shift) * weight.inverse())
        return lhs * denom

    phi = Polynomial([1, -1]) ** (2 * n)
    transfer = Polynomial([1, 1]) ** (2 * n)
    return WronskianReport(
        n=n,
        phi_identity_zero=not (wron(Q, Q) - phi),
        transfer_identity_zero=not (wron(Q ** 2, Q ** 2) - transfer),
    )


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryEntry:
    name: str
    direct: QFieldElement
    closed: QFieldElement
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.direct == self.closed


@dataclass(frozen=True)
class BoundaryReport(_Verdict):
    n: int
    entries: tuple[BoundaryEntry, ...]
    factorial_descent_ok: bool
    derivative_identities_ok: bool

    @property
    def passed(self) -> bool:
        return super().passed and all(e.passed for e in self.entries)


def _boundary_closed_forms(n: int) -> dict[str, QFieldElement]:
    """Closed forms for the twelve boundary evaluations at x=-1 and x=q^-1."""
    q, qi = Q, QI
    q_m1 = QFieldElement.coerce(c_constant(n) / fact(2 * n))
    p_m1 = QFieldElement.coerce(
        Fraction(3 ** (2 * n)) * fact(n) * poch(THIRD - n, n) / fact(2 * n))
    q_qi = (Fraction(fact(2 * n - 1), fact(n - 1)) / poch(THIRD - n, n)
            * (1 - qi ** 2) / (qi + 1) ** (2 * n))
    p_qi = (Fraction(fact(2 * n - 1), fact(n - 1)) / poch(2 * THIRD - n, n)
            * (qi + 1) ** (1 - 2 * n))
    return {
        "Q(-1)": q_m1,
        "Q'(-1)": q_m1 * Fraction(-n * (n + 1), 2 * n + 1),
        "Q''(-1)": q_m1 * Fraction(n * (n - 1) * (3 * n + 4), 6 * (2 * n + 1)),
        "P(-1)": p_m1,
        "P'(-1)": p_m1 * Fraction(-n * n, 2 * n + 1),
        "P''(-1)": p_m1 * Fraction(n * (n - 1) * (3 * n - 2), 6 * (2 * n + 1)),
        "Q(q^-1)": q_qi,
        "Q'(q^-1)": q_qi * (n * (q - 1) * (n * (3 * q - 1) - q + 1)
                            / ((2 * n - 1) * (q - qi))),
        "Q''(q^-1)": q_qi * (-(n * (n * (8 * (n - 1) * q - 5 * n + 7) + 4 * (q - 1)))
                             / (2 * (2 * n - 1) * (1 + qi) * (q - qi))),
        "P(q^-1)": p_qi,
        "P'(q^-1)": p_qi * (n * ((3 * n - 2) * (1 - qi ** 2) - 2 * (2 * n - 1))
                            / ((2 * n - 1) * (qi + 1))),
        "P''(q^-1)": p_qi * (n * (n * n * (1 - 3 * q) ** 2 - n * (q + 1) * (9 * q - 7)
                                  + 2 * (q * (q + 2) - 1))
                             / (2 * (2 * n - 1) * (qi + 1) ** 2)),
    }


def boundary_values(n: int) -> BoundaryReport:
    """Evaluate Q, P and derivatives at the two special points, both ways.

    The closed forms for the second derivatives at x = q^-1 come from a
    derivation that divides by quantities vanishing at N = 1, where the
    true second derivatives are identically zero; at N = 1 those two
    entries compare the direct values against zero instead.
    """
    direct = {name.replace("qi", "q^-1"): value
              for name, value in _boundary_atoms(n).items()}
    out_of_domain = ("closed form out of domain at N=1; the exact second "
                     "derivative vanishes and is checked against zero")
    notes = dict.fromkeys(("Q''(q^-1)", "P''(q^-1)"), out_of_domain) if n == 1 else {}
    entries = tuple(
        BoundaryEntry(name, direct[name], QFieldElement(0) if name in notes else closed,
                      notes.get(name, ""))
        for name, closed in _boundary_closed_forms(n).items())

    # Q^(k)(-1) relates to f_Q^(2N+k)(-1) through division by (1+x)^2N.
    f = f_q_poly(n)
    f_m1 = [f.derivative(2 * n + k)(-1) for k in range(3)]
    descent = all(
        direct[f"Q{marks}(-1)"] == f_m1[k] * Fraction(fact(k), fact(2 * n + k))
        for k, marks in enumerate(("", "'", "''"))
    )
    c = c_constant(n)
    idents = (
        f_m1[0] == c,
        f_m1[1] == -c * n * (n + 1),
        f_m1[2] == c * Fraction(n * (n * n - 1) * (3 * n + 4), 6),
    )
    return BoundaryReport(
        n=n, entries=entries,
        factorial_descent_ok=descent,
        derivative_identities_ok=all(idents),
    )


# ---------------------------------------------------------------------------
# the two current derivatives
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _boundary_atoms(n: int) -> dict[str, QFieldElement]:
    """Q, P and their first two derivatives at x = -1 and x = q^-1 (qi)."""
    qp, pp = q_poly(n), p_poly(n)
    return {
        "Q(-1)": qp(-1), "Q'(-1)": qp.derivative()(-1), "Q''(-1)": qp.derivative(2)(-1),
        "P(-1)": pp(-1), "P'(-1)": pp.derivative()(-1), "P''(-1)": pp.derivative(2)(-1),
        "Q(qi)": qp(QI), "Q'(qi)": qp.derivative()(QI), "Q''(qi)": qp.derivative(2)(QI),
        "P(qi)": pp(QI), "P'(qi)": pp.derivative()(QI), "P''(qi)": pp.derivative(2)(QI),
    }


def _s_b(n: int) -> QFieldElement:
    """Four-term boundary combination that carries the whole twist response."""
    v = _boundary_atoms(n)
    return (Q ** -2 * v["Q'(-1)"] * v["P(qi)"] + v["Q(-1)"] * v["P'(qi)"]
            + Q ** 2 * v["Q'(qi)"] * v["P(-1)"] + v["Q(qi)"] * v["P'(-1)"])


def lambda_alpha_formula(n: int) -> Fraction:
    """Stationary global avalanche rate: (3/2) N / (4N^2 - 1)."""
    return Fraction(3 * n, 2 * (4 * n * n - 1))


def lambda_beta_formula(n: int) -> Fraction:
    """Stationary evacuated tile rate: N (5N^2 - 2) / (4N^2 - 1)."""
    return Fraction(n * (5 * n * n - 2), 4 * n * n - 1)


def lambda_alpha(n: int) -> Fraction:
    """Exact derivative of the top eigenvalue in the global counting field.

    Assembled from the boundary combination S_B; the q components cancel
    identically and the result is a plain rational.

    >>> lambda_alpha(1)
    Fraction(1, 2)
    """
    value = -Q * (1 - Q ** 2) * _s_b(n) / (2 * (1 + Q ** 2) * (1 + Q) ** (2 * n))
    return value.as_fraction()


def _b_transfer(first: str, second: str, v: dict[str, QFieldElement]) -> QFieldElement:
    """Pure part of the transfer q-worksheet; swapping the letters gives
    its partner."""
    return 2 * (Q * v[f"{first}'(-1)"] * v[f"{second}(qi)"]
                + Q ** -2 * v[f"{first}''(-1)"] * v[f"{second}(qi)"]
                + v[f"{first}(-1)"] * v[f"{second}'(qi)"]
                + QI * v[f"{first}(-1)"] * v[f"{second}''(qi)"])


def _transfer_derivatives(n: int) -> dict[str, QFieldElement]:
    """x- and parameter-derivatives of the transfer eigenvalue at x = q."""
    v = _boundary_atoms(n)
    t0 = (1 + Q) ** (2 * n)
    t1 = 2 * n * (1 + Q) ** (2 * n - 1)
    t2 = 2 * n * (2 * n - 1) * (1 + Q) ** (2 * n - 2)
    # total q-derivative of the closed product form gives T'(q) + T_q(q)
    r1 = t0 * (-4 * n * Q / (1 - Q ** 2) - n * QI)
    b_t, b_t_swap = _b_transfer("Q", "P", v), _b_transfer("P", "Q", v)
    t1q = Fraction(3, 2) * (Q ** 2 * b_t - Q ** -2 * b_t_swap) / (Q - QI)
    return {"T": t0, "T'": t1, "T''": t2, "T_q": r1 - t1, "T'_q": t1q,
            "B_T": b_t, "B_T_swapped": b_t_swap}


def lambda_beta(n: int) -> Fraction:
    """Exact derivative of the top eigenvalue in the tile counting field.

    Chain rule through the transfer-eigenvalue form of the top eigenvalue,
    with q responding to the field through q + q^-1 = e^-beta.

    >>> lambda_beta(1)
    Fraction(1, 1)
    """
    t = _transfer_derivatives(n)
    ell = 2 * n
    g = t["T'"] / t["T"]
    g_q = (t["T''"] + t["T'_q"]) / t["T"] - t["T'"] * (t["T'"] + t["T_q"]) / t["T"] ** 2
    # the first variation term carries q(1-q^2) T'/T - L, which vanishes
    # identically at the stochastic point; keep it and let exactness prove it
    stationary_term = -2 * Q / (1 + Q ** 2) ** 2 * (Q * (1 - Q ** 2) * g - ell)
    dlam_dq = stationary_term + ((1 - 3 * Q ** 2) * g + Q * (1 - Q ** 2) * g_q) / (1 + Q ** 2)
    dq_dbeta = -Q ** 2 / (Q ** 2 - 1)
    return (dlam_dq * dq_dbeta).as_fraction()


@dataclass(frozen=True)
class DerivativeWorksheet(_Verdict):
    """Exact consistency data for the two eigenvalue-derivative assemblies.

    The B fields are concrete field elements; the A fields are formal
    linear combinations over the unknown parameter-derivative boundary
    symbols (letter, x-derivative order, evaluation point), which is all
    that is needed because the assemblies only use that the A parts cancel.
    """
    n: int
    s_b: QFieldElement
    b_t: QFieldElement
    b_t_swapped: QFieldElement
    b_phi: QFieldElement
    a_t: FormalCombo
    a_phi: FormalCombo
    a_twist: FormalCombo
    a_twist_phi: FormalCombo
    a_pair_cancels: bool
    a_twist_pair_cancels: bool
    b_pair_matches: bool
    eliminated_form_matches: bool
    transfer_log_derivative_is_l: bool
    stationary_variation_vanishes: bool


def _combo_equal(x: FormalCombo, y: FormalCombo) -> bool:
    keys = set(x) | set(y)
    zero = QFieldElement(0)
    return all(x.get(k, zero) == y.get(k, zero) for k in keys)


def _combo(first: str, second: str, at: str, other: str,
           w1: QFieldElement | int, w0: QFieldElement | int,
           v: dict[str, QFieldElement]) -> FormalCombo:
    """One parameter-derivative block of a q-worksheet: the symbols of
    ``first`` at ``at`` and of ``second`` at ``other``, each times the
    other letter at the other point.  w1 weighs the two terms carrying a
    derivative of ``first``, w0 the two carrying its value.  Swapping the
    letters swaps them in the symbol and in its cofactor, so a swapped
    block is built structurally rather than by relabeling."""
    return {
        (first, 1, at): w1 * v[f"{second}({other})"],
        (first, 0, at): w0 * v[f"{second}'({other})"],
        (second, 0, other): w1 * v[f"{first}'({at})"],
        (second, 1, other): w0 * v[f"{first}({at})"],
    }


def derivative_worksheet(n: int) -> DerivativeWorksheet:
    """Build and check the derivative worksheets behind both assemblies."""
    v = _boundary_atoms(n)
    t = _transfer_derivatives(n)
    q, qi = Q, QI

    # transfer and reference-factor q-worksheets: their weights differ, so
    # the cancellation below genuinely exercises q^3 = -1
    a_t = _combo("Q", "P", "-1", "qi", q ** 2, q ** -2, v)
    a_phi = _combo("Q", "P", "qi", "-1", q, qi, v)
    a_t_swapped = _combo("P", "Q", "-1", "qi", q ** 2, q ** -2, v)
    neg_swapped_a_t = {key: -coeff for key, coeff in a_t_swapped.items()}
    a_pair_cancels = _combo_equal(a_phi, neg_swapped_a_t)

    # pure part of the reference-factor q-worksheet, kept in raw derived
    # form so the comparison below genuinely exercises q^3 = -1
    b_phi = (v["Q'(qi)"] * v["P(-1)"] + qi * v["Q''(qi)"] * v["P(-1)"]
             - q ** -2 * v["Q(qi)"] * v["P'(-1)"] - q * v["Q(qi)"] * v["P''(-1)"])
    b_pair_matches = 2 * b_phi == t["B_T_swapped"]

    # parameter-derivative parts of the twist worksheet, one block at each
    # point; their cancellation needs q^6 = 1
    a_twist = {**_combo("Q", "P", "-1", "qi", q ** 4, 1, v),
               **_combo("Q", "P", "qi", "-1", -q ** -4, -1, v)}
    a_twist_phi = {**_combo("Q", "P", "qi", "-1", q ** 2, 1, v),
                   **_combo("Q", "P", "-1", "qi", -q ** -2, -1, v)}
    neg_a_twist = {key: -coeff for key, coeff in a_twist.items()}
    a_twist_pair_cancels = _combo_equal(a_twist_phi, neg_a_twist)

    # the twist response through the boundary combination, against the
    # eliminated closed form
    s_b = _s_b(n)
    ell = 2 * n
    twist_response = Fraction(3, 2) * ell * s_b / (q - qi)
    phi_prime = -2 * n * (1 + q) ** (2 * n - 1)
    eliminated = Fraction(3, 2) * ell * (
        phi_prime + 2 / (q ** 2 - 1)
        * (qi * v["Q'(-1)"] * v["P(qi)"] + q * v["Q(-1)"] * v["P'(qi)"]))
    eliminated_form_matches = twist_response == eliminated

    log_derivative = q * (1 - q ** 2) * t["T'"] / t["T"]
    stationary = -2 * q / (1 + q ** 2) ** 2 * (log_derivative - ell)

    return DerivativeWorksheet(
        n=n, s_b=s_b, b_t=t["B_T"], b_t_swapped=t["B_T_swapped"], b_phi=b_phi,
        a_t=a_t, a_phi=a_phi, a_twist=a_twist, a_twist_phi=a_twist_phi,
        a_pair_cancels=a_pair_cancels,
        a_twist_pair_cancels=a_twist_pair_cancels,
        b_pair_matches=b_pair_matches,
        eliminated_form_matches=eliminated_form_matches,
        transfer_log_derivative_is_l=(log_derivative == ell),
        stationary_variation_vanishes=(stationary == 0),
    )


# ---------------------------------------------------------------------------
# hypergeometric route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypergeometricReport(_Verdict):
    n: int
    f_q_match: bool
    f_p_match: bool
    summation_identity_ok: bool


def _gauss_sum_at_one(minus_n: int, b: Fraction, c: Fraction) -> Fraction:
    """Terminating 2F1(-n, b; c; 1) evaluated term by term.

    Term k+1 is term k times (k - n)(b + k) / ((c + k)(k + 1)).
    """
    n = -minus_n
    term = total = Fraction(1)
    for k in range(n):
        term *= (k - n) * (b + k) / ((c + k) * (k + 1))
        total += term
    return total


def hypergeometric_check(n: int) -> HypergeometricReport:
    """Match the closed forms of f_Q, f_P at x = q^-1 against direct values.

    At x = q^-1 the cubes collapse (x^3 = -1) and the hypergeometric
    representations terminate; the classical summation identity
    2F1(-n, b; c; 1) = (c-b)_n / (c)_n turns them into Pochhammer ratios.
    """
    third = THIRD
    direct_q = f_q_poly(n)(QI)
    direct_p = f_p_poly(n)(QI)

    closed_q = poch(2 * third - n, n) * (
        QFieldElement.coerce(poch(Fraction(n), n) / (poch(third, n) * poch(2 * third, n)))
        + QI ** 2 * Fraction(n) * poch(Fraction(n + 1), n - 1)
        / (poch(5 * third, n - 1) * poch(-2 * third, n + 1)))
    closed_p = poch(2 * third, n) * (
        QFieldElement.coerce(poch(Fraction(n), n) / (poch(2 * third, n) * poch(2 * third - n, n)))
        + QI * Fraction(n) * poch(Fraction(n + 1), n - 1)
        / (poch(4 * third, n - 1) * poch(third - n, n + 1)))

    # spot checks of the summation identity itself, in the exact shapes used
    spots = all(
        _gauss_sum_at_one(-m, b, c) == poch(c - b, m) / poch(c, m)
        for m, b, c in (
            (n, third - n, third), (n - 1, 2 * third - n, 5 * third),
            (n, 2 * third - n, 2 * third), (n - 1, third - n, 4 * third))
        if m >= 0
    )
    return HypergeometricReport(
        n=n,
        f_q_match=direct_q == closed_q,
        f_p_match=direct_p == closed_p,
        summation_identity_ok=spots,
    )


# ---------------------------------------------------------------------------
# derivative sums and their recurrences
# ---------------------------------------------------------------------------

def _poch_thirds(c: int, n: int) -> int:
    """3^n (c/3)_n = c (c+3) ... (c+3(n-1)), an integer."""
    out = 1
    for i in range(n):
        out *= c + 3 * i
    return out


def _exact_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Sum of integer (numerator, denominator) pairs, reduced once."""
    num, den = 0, 1
    for t_num, t_den in terms:
        num, den = num * t_den + t_num * den, den * t_den
    return Fraction(num, den)


def t1_sum(m: int, n: int) -> Fraction:
    """First derivative sum: 3^-2N times the m-th derivative at -1 of the
    exponent-class-0 part of f_Q, divided by c_N.

    With (2/3 - k)_N = 3^-N (2 - 3k)(5 - 3k)...(3N - 1 - 3k), each term
    is a ratio of integers over 3^N.
    """
    return _exact_sum(
        ((-1) ** (3 * k - m) * fact(3 * k),
         _poch_thirds(2 - 3 * k, n) * fact(n - k) * fact(k) * fact(3 * k - m) * 3 ** n)
        for k in range(n + 1) if 3 * k >= m)


def t2_sum(m: int, n: int) -> Fraction:
    """Companion sum for the exponent-class-2 part of f_Q.

    With (-k - 2/3)_{N+1} = 3^-(N+1) (-3k - 2)(1 - 3k)...(3N - 3k - 2),
    each term is 3 times a ratio of integers over 3^N.
    """
    return _exact_sum(
        ((-1) ** (3 * k + 2 - m) * fact(3 * k + 2) * 3,
         _poch_thirds(-3 * k - 2, n + 1) * fact(n - k - 1) * fact(k)
         * fact(3 * k + 2 - m) * 3 ** n)
        for k in range(n) if 3 * k + 2 >= m)


def a1_seq(n: int) -> Fraction:
    return t1_sum(2 * n, n)


def a2_seq(n: int) -> Fraction:
    return -t2_sum(2 * n, n)


def a1_prime_seq(n: int) -> Fraction:
    return -t1_sum(2 * n + 1, n) / (n * (n + 1))


def a2_prime_seq(n: int) -> Fraction:
    return t2_sum(2 * n + 1, n) / (n * (n + 1))


def a1_second_seq(n: int) -> Fraction:
    if n < 2:
        raise ValueError("second-derivative sums need N >= 2")
    return 6 * t1_sum(2 * n + 2, n) / (n * (n * n - 1) * (3 * n + 4))


def a2_second_seq(n: int) -> Fraction:
    if n < 2:
        raise ValueError("second-derivative sums need N >= 2")
    return -6 * t2_sum(2 * n + 2, n) / (n * (n * n - 1) * (3 * n + 4))


@dataclass(frozen=True)
class RecurrenceReport(_Verdict):
    n_max: int
    initial_values_ok: bool
    first_pair_recurrence_ok: bool
    second_pair_recurrence_ok: bool
    third_pair_recurrence_ok: bool
    difference_is_one_ok: bool
    derivative_identities_ok: bool


def recurrence_check(n_max: int = 30) -> RecurrenceReport:
    """Check the three derivative-sum pairs up to n_max.

    Each pair satisfies a second-order linear recurrence whose
    coefficients sum to zero, the difference of the two members of each
    pair is the constant solution 1, and the sums reproduce the 2N-th
    through (2N+2)-nd derivatives of f_Q at -1 up to explicit factors.
    """
    a1 = {k: a1_seq(k) for k in range(1, n_max + 1)}
    a2 = {k: a2_seq(k) for k in range(1, n_max + 1)}
    b1 = {k: a1_prime_seq(k) for k in range(1, n_max + 1)}
    b2 = {k: a2_prime_seq(k) for k in range(1, n_max + 1)}
    c1 = {k: a1_second_seq(k) for k in range(2, n_max + 1)}
    c2 = {k: a2_second_seq(k) for k in range(2, n_max + 1)}

    inits = (a1[1] == 2 and a1[2] == 5 and a2[1] == 1 and a2[2] == 4
             and b1[1] == 1 and b1[2] == Fraction(5, 3)
             and b2[1] == 0 and b2[2] == Fraction(2, 3)
             and c1[2] == 1 and c1[3] == Fraction(20, 13)
             and c2[2] == 0 and c2[3] == Fraction(7, 13))

    def holds(seq, start, coeffs) -> bool:
        return all(
            sum(c(k) * seq[k + j] for j, c in enumerate(coeffs)) == 0
            for k in range(start, n_max - 1))

    first = all(holds(seq, 1, (
        lambda k: 6 + 4 * k, lambda k: -5 * k - 8, lambda k: k + 2))
        for seq in (a1, a2))
    second = all(holds(seq, 1, (
        lambda k: 6 + 4 * k, lambda k: -5 * k - 9, lambda k: k + 3))
        for seq in (b1, b2))
    third = all(holds(seq, 2, (
        lambda k: 2 * (2 * k + 5) * (3 * k + 4),
        lambda k: -5 * (3 * k + 7) * (k + 2),
        lambda k: (3 * k + 10) * (k + 3)))
        for seq in (c1, c2))

    diff = (all(a1[k] - a2[k] == 1 for k in a1)
            and all(b1[k] - b2[k] == 1 for k in b1)
            and all(c1[k] - c2[k] == 1 for k in c1))

    idents = True
    for k in range(1, min(n_max, 20) + 1):
        f = f_q_poly(k)
        c = c_constant(k)
        idents = idents and f.derivative(2 * k)(-1) == c * (a1[k] - a2[k])
        idents = idents and (f.derivative(2 * k + 1)(-1)
                             == -c * k * (k + 1) * (b1[k] - b2[k]))
        if k >= 2:
            idents = idents and (f.derivative(2 * k + 2)(-1)
                                 == c * Fraction(k * (k * k - 1) * (3 * k + 4), 6)
                                 * (c1[k] - c2[k]))
    return RecurrenceReport(
        n_max=n_max,
        initial_values_ok=inits,
        first_pair_recurrence_ok=first,
        second_pair_recurrence_ok=second,
        third_pair_recurrence_ok=third,
        difference_is_one_ok=diff,
        derivative_identities_ok=idents,
    )


# ---------------------------------------------------------------------------
# numerical confirmation through the roots
# ---------------------------------------------------------------------------

_NEWTON_STEPS = 6
_JACOBIAN_STEP = 1e-7


class RefinementError(RuntimeError):
    """Newton refinement of the roots of Q left the roots it started from."""


def bethe_roots(n: int) -> np.ndarray:
    """Roots of Q in the complex plane, sorted by real then imaginary part.

    np.roots is backward stable, but the root equations magnify the
    forward error of its roots (to 1e-3 at N = 20), so a few Newton steps
    on the logarithmic root equations, with a forward-difference
    Jacobian, polish them.  Each root must stay within a quarter of the
    smallest root spacing of its seed, i.e. remain the same root of Q.
    """
    coeffs = list(reversed(q_poly(n).complex_coeffs()))
    seeds = np.roots(coeffs)
    roots = seeds.copy()
    eye = np.eye(len(roots))
    for _ in range(_NEWTON_STEPS):
        f = np.log(_bae_ratios(n, roots))
        jac = np.column_stack([
            (np.log(_bae_ratios(n, roots + _JACOBIAN_STEP * e)) - f) / _JACOBIAN_STEP
            for e in eye])
        roots = roots - np.linalg.solve(jac, f)
    if len(seeds) > 1:
        spacing = np.abs(np.subtract.outer(seeds, seeds))
        np.fill_diagonal(spacing, np.inf)
        if np.abs(roots - seeds).max() >= 0.25 * spacing.min():
            raise RefinementError(f"Newton refinement moved a root of Q away from its seed at N={n}")
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def _bae_ratios(n: int, roots: np.ndarray) -> np.ndarray:
    """lhs/rhs of the root equation for each root; one at an exact solution."""
    ell = 2 * n
    q = np.exp(1j * np.pi / 3)
    u = np.exp(1j * np.pi / (3 * n))
    out = np.empty(len(roots), dtype=complex)
    for i, x in enumerate(roots):
        lhs = u ** ell * ((x - q) / (1 - q * x)) ** ell
        others = np.delete(roots, i)
        rhs = (-1) ** (n - 1) * np.prod((q ** 2 * others - x) / (q ** 2 * x - others))
        out[i] = lhs / rhs
    return out


def bae_residuals(n: int, roots: np.ndarray | None = None) -> np.ndarray:
    """Multiplicative residuals of the coupled root equations.

    For each root x_i the twisted L-th power of the shifted Moebius map
    must balance the product over the other roots; the residual is
    |lhs/rhs - 1|.
    """
    if roots is None:
        roots = bethe_roots(n)
    return np.abs(_bae_ratios(n, roots) - 1)


@dataclass(frozen=True)
class RootReport:
    n: int
    roots: tuple[complex, ...]
    max_bae_residual: float
    eigenvalue_residual: float
    eigenvalue_exact_zero: bool
    unimodular_product_residual: float
    energy: float
    energy_target: float
    energy_residual: float
    energy_cross_residual: float

    @property
    def passed(self) -> bool:
        return (self.max_bae_residual < 1e-8
                and self.eigenvalue_residual < 1e-8
                and self.eigenvalue_exact_zero
                and self.unimodular_product_residual < 1e-10
                and self.energy_residual < 1e-8
                and self.energy_cross_residual < 1e-8)


def lambda_from_roots(n: int) -> RootReport:
    """Rebuild the top eigenvalue and the sector ground energy from roots.

    The root form of the eigenvalue must vanish at the stochastic point;
    the same statement is checked exactly through logarithmic derivatives
    of Q.  The per-root phases z_i multiply to one and give the ground
    energy -3L/4 of the associated spin sector.
    """
    ell = 2 * n
    roots = bethe_roots(n)
    q = np.exp(1j * np.pi / 3)
    u = np.exp(1j * np.pi / (3 * n))

    pref = (1 - q ** 2) / (1 + q ** 2)
    lam0 = pref * np.sum(1 / (1 - q * roots) - q / (q - roots)) - ell

    qp = q_poly(n)
    dq = qp.derivative()
    exact = ((1 - Q ** 2) / (1 + Q ** 2)
             * (QI * dq(QI) / qp(QI) - Q * dq(Q) / qp(Q)) - ell)

    z = u * (roots - q) / (1 - q * roots)
    prod_res = abs(np.prod(z) - 1)
    energy = -n / 2 - np.sum(u / z + z / u)
    energy_x = n / 2 + np.sum((q - 1 / q) / (1 - q * roots) + (1 - q ** 2) / (q - roots))
    target = -0.75 * ell
    return RootReport(
        n=n,
        roots=tuple(roots),
        max_bae_residual=float(np.max(bae_residuals(n, roots))),
        eigenvalue_residual=abs(lam0),
        eigenvalue_exact_zero=(exact == 0),
        unimodular_product_residual=float(prod_res),
        energy=float(energy.real),
        energy_target=target,
        energy_residual=abs(energy - target),
        energy_cross_residual=abs(energy_x - energy),
    )
