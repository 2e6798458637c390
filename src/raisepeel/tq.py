"""Exact T-Q route to the avalanche current laws on the even ring.

The top eigenvalue of the tilted generator on L = 2N sites is controlled
by a monic degree-N pair (Q, P) solving Baxter's three-term relation at
the stochastic point.  Each is the quotient by (1+x)^2N of a closed-form
polynomial of degree 3N (``f_q_poly``/``f_p_poly``), and all that follows
is exact arithmetic over Q(q), q^2 = q - 1:

* ``verify_tq`` / ``verify_wronskian``: the relation and the two Wronskian
  product identities, to literal zero; ``verify_tq`` also decides the
  vanishing top eigenvalue and the ground energy -3L/4 carried by the
  roots, through Q'/Q at q and q^-1.
* ``boundary_values``: the one boundary table, Q, P and their first two
  derivatives at x = -1 and x = q^-1 keyed by (letter, order, point),
  against closed forms, and the factorial descent from f_Q^(2N+k)(-1).
* ``lambda_alpha`` / ``lambda_beta``: the two current derivatives of the
  top eigenvalue, assembled from the boundary table as plain rationals;
  ``lambda_check`` compares them with the stationary currents at L = 2N.
  ``derivative_worksheet`` checks the cancellations the assemblies use.
* ``hypergeometric_check``: the values at q^-1 through terminating 2F1 sums.
* ``recurrence_check``: the three pairs of derivative sums, their
  second-order recurrences, and the same f_Q descent they reproduce.
* ``bethe_check``: the root equations, decided from three coprimality
  facts about Q that make the relation at each root the root equation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .qfield import Polynomial, QFieldElement, poch, rising_product
from .profiles import diamond_current_formula, global_current_formula

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
    # N! (2/3 - N)_N / [(2/3 - k)_N (N-k)! k!] and
    # N! (2/3 - N)_N / [(-k - 2/3)_{N+1} (N-k-1)! k!], with every rising
    # factorial (r/3)_m = rising_product(r, m, 3) / 3^m, so 3^N cancels
    pref = factorial(n) * rising_product(2 - 3 * n, n, 3)
    coeffs = [Fraction(0)] * (3 * n + 1)
    for k in range(n + 1):
        coeffs[3 * k] = Fraction(pref, rising_product(2 - 3 * k, n, 3)
                                 * factorial(n - k) * factorial(k))
    for k in range(n):
        coeffs[3 * k + 2] = Fraction(3 * pref, rising_product(-3 * k - 2, n + 1, 3)
                                     * factorial(n - k - 1) * factorial(k))
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
    # N! (2/3)_N / [(k - N + 2/3)_N k! (N-k)!] and
    # N! (2/3)_N / [(k - N + 1/3)_{N+1} k! (N-k-1)!], on integers as in f_q_poly
    pref = factorial(n) * rising_product(2, n, 3)
    coeffs = [Fraction(0)] * (3 * n + 1)
    for k in range(n + 1):
        coeffs[3 * k] = Fraction(pref, rising_product(3 * (k - n) + 2, n, 3)
                                 * factorial(k) * factorial(n - k))
    for k in range(n):
        coeffs[3 * k + 1] = Fraction(3 * pref, rising_product(3 * (k - n) + 1, n + 1, 3)
                                     * factorial(k) * factorial(n - k - 1))
    return Polynomial(coeffs)


@lru_cache(maxsize=None)
def q_poly(n: int) -> Polynomial:
    """Monic degree-N polynomial Q = f_Q / (1+x)^2N, the eigenvalue-equation
    numerator; ``verify_tq`` reports whether it is monic of degree N.

    >>> q_poly(1).rational_coeffs()
    (Fraction(-1, 2), Fraction(1, 1))
    """
    return f_q_poly(n).exact_div(_transfer_factor(n, -1))


@lru_cache(maxsize=None)
def p_poly(n: int) -> Polynomial:
    """Monic degree-N partner polynomial P = f_P / (1+x)^2N = x^N Q(1/x) / Q(0).

    >>> p_poly(1).rational_coeffs()
    (Fraction(-2, 1), Fraction(1, 1))
    """
    return f_p_poly(n).exact_div(_transfer_factor(n, -1))


@lru_cache(maxsize=None)
def _f_q_descent(n: int) -> tuple[QFieldElement, ...]:
    """f_Q^(2N+k)(-1) for k = 0, 1, 2, which division by (1+x)^2N carries
    down to Q^(k)(-1) and the derivative sums reproduce."""
    top = f_q_poly(n).derivative(2 * n)
    return top(-1), top.derivative()(-1), top.derivative(2)(-1)


def c_constant(n: int) -> Fraction:
    """Normalization constant 3^2N N! (2/3-N)_N of the derivative identities."""
    return Fraction(3 ** (2 * n)) * factorial(n) * poch(2 * THIRD - n, n)


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
    eigenvalue_zero: bool
    ground_energy_exact: bool


def _transfer_factor(n: int, root_shift: QFieldElement | int) -> Polynomial:
    """(1 - x*root_shift)^2N in x, the binomial row scaled by -root_shift;
    T(x) = (1+x)^2N and phi(x) = (1-x)^2N at -1 and 1."""
    return Polynomial([comb(2 * n, k) for k in range(2 * n + 1)]).scale_argument(-root_shift)


def tq_residual(n: int, which: str = "q") -> Polynomial:
    """Residual of the three-term functional relation; zero when it holds.

    With T(x) = (1+x)^2N and phi(x) = (1-x)^2N, the relation for Q reads
    T(x) Q(x) = q phi(x/q) Q(x q^2) + q^-1 phi(x q) Q(x q^-2); the one for
    P carries the reciprocal prefactors.
    """
    poly = q_poly(n) if which == "q" else p_poly(n)
    w_plus, w_minus = (Q, QI) if which == "q" else (QI, Q)
    term_plus = _transfer_factor(n, QI) * poly.scale_argument(Q ** 2) * w_plus
    term_minus = _transfer_factor(n, Q) * poly.scale_argument(Q ** -2) * w_minus
    return term_plus + term_minus - _transfer_factor(n, -1) * poly


def verify_tq(n: int) -> TQReport:
    """Check the functional relation and its companions exactly.

    The claims the Bethe roots x_j carry are sums over the roots, so they
    are decided through Q'/Q: sum_j 1/(q - x_j) = Q'(q)/Q(q) and
    sum_j 1/(1 - q x_j) = q^-1 Q'(q^-1)/Q(q^-1).
    """
    qp, pp = q_poly(n), p_poly(n)
    support_q = all(
        c == 0 for k, c in enumerate(f_q_poly(n).coeffs) if k % 3 == 1)
    support_p = all(
        c == 0 for k, c in enumerate(f_p_poly(n).coeffs) if k % 3 == 2)
    reversed_q = qp.reversed_coeffs() * qp.coeffs[0].inverse()
    q_at_q, q_at_qi = qp(Q), qp(QI)
    # unit product of the per-root phases: Q(q^-1)/Q(q) = u^N (-1/q)^N with
    # the stochastic twist u^N = q
    product = q_at_qi == q_at_q * Q * (Q - 1) ** n
    transfer = (1 - Q ** 2) ** (2 * n) * (-QI) ** n == (1 + Q) ** (2 * n)
    dq = qp.derivative()
    sum_q = dq(Q) / q_at_q
    sum_qi = QI * dq(QI) / q_at_qi
    # root forms of the top eigenvalue at the stochastic point and of the
    # ground energy of the associated spin sector
    eigenvalue = (1 - Q ** 2) / (1 + Q ** 2) * (sum_qi - Q * sum_q) - 2 * n
    energy = Fraction(n, 2) + (Q - QI) * sum_qi + (1 - Q ** 2) * sum_q
    return TQReport(
        n=n,
        q_relation_zero=not tq_residual(n, "q"),
        p_relation_zero=not tq_residual(n, "p"),
        q_monic_degree=qp.is_monic() and qp.degree == n,
        p_is_reversed_q=pp == reversed_q,
        support_classes_ok=support_q and support_p,
        product_condition=product,
        transfer_value_at_q=transfer,
        eigenvalue_zero=eigenvalue == 0,
        ground_energy_exact=energy == Fraction(-3 * n, 2),
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

    return WronskianReport(
        n=n,
        phi_identity_zero=not (wron(Q, Q) - _transfer_factor(n, 1)),
        transfer_identity_zero=not (wron(Q ** 2, Q ** 2) - _transfer_factor(n, -1)),
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


@lru_cache(maxsize=None)
def _boundary_atoms(n: int) -> FormalCombo:
    """Q, P and their first two derivatives at x = -1 and x = q^-1, keyed
    by (letter, order, point) with order 0 to 2 and point "-1" or "qi"; each
    derivative polynomial is built once and evaluated at both points."""
    atoms = {}
    for letter, poly in (("Q", q_poly(n)), ("P", p_poly(n))):
        for order in range(3):
            derivative = poly.derivative(order)
            atoms[letter, order, "-1"], atoms[letter, order, "qi"] = derivative(-1), derivative(QI)
    return atoms


def _boundary_closed_forms(n: int) -> FormalCombo:
    """Closed forms for the twelve boundary evaluations at x=-1 and x=q^-1."""
    q, qi = Q, QI
    q_m1 = QFieldElement.coerce(c_constant(n) / factorial(2 * n))
    p_m1 = QFieldElement.coerce(
        Fraction(3 ** (2 * n)) * factorial(n) * poch(THIRD - n, n) / factorial(2 * n))
    q_qi = (Fraction(factorial(2 * n - 1), factorial(n - 1)) / poch(THIRD - n, n)
            * (1 - qi ** 2) / (qi + 1) ** (2 * n))
    p_qi = (Fraction(factorial(2 * n - 1), factorial(n - 1)) / poch(2 * THIRD - n, n)
            * (qi + 1) ** (1 - 2 * n))
    return {
        ("Q", 0, "-1"): q_m1,
        ("Q", 1, "-1"): q_m1 * Fraction(-n * (n + 1), 2 * n + 1),
        ("Q", 2, "-1"): q_m1 * Fraction(n * (n - 1) * (3 * n + 4), 6 * (2 * n + 1)),
        ("P", 0, "-1"): p_m1,
        ("P", 1, "-1"): p_m1 * Fraction(-n * n, 2 * n + 1),
        ("P", 2, "-1"): p_m1 * Fraction(n * (n - 1) * (3 * n - 2), 6 * (2 * n + 1)),
        ("Q", 0, "qi"): q_qi,
        ("Q", 1, "qi"): q_qi * (n * (q - 1) * (n * (3 * q - 1) - q + 1)
                                / ((2 * n - 1) * (q - qi))),
        ("Q", 2, "qi"): q_qi * (-(n * (n * (8 * (n - 1) * q - 5 * n + 7) + 4 * (q - 1)))
                                / (2 * (2 * n - 1) * (1 + qi) * (q - qi))),
        ("P", 0, "qi"): p_qi,
        ("P", 1, "qi"): p_qi * (n * ((3 * n - 2) * (1 - qi ** 2) - 2 * (2 * n - 1))
                                / ((2 * n - 1) * (qi + 1))),
        ("P", 2, "qi"): p_qi * (n * (n * n * (1 - 3 * q) ** 2 - n * (q + 1) * (9 * q - 7)
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
    direct = _boundary_atoms(n)
    out_of_domain = ("closed form out of domain at N=1; the exact second "
                     "derivative vanishes and is checked against zero")
    notes = dict.fromkeys((("Q", 2, "qi"), ("P", 2, "qi")), out_of_domain) if n == 1 else {}
    entries = tuple(
        BoundaryEntry(key[0] + "'" * key[1] + ("(q^-1)" if key[2] == "qi" else "(-1)"),
                      direct[key], QFieldElement(0) if key in notes else closed,
                      notes.get(key, ""))
        for key, closed in _boundary_closed_forms(n).items())

    # Q^(k)(-1) relates to f_Q^(2N+k)(-1) through division by (1+x)^2N.
    f_m1 = _f_q_descent(n)
    descent = all(
        direct["Q", k, "-1"] == f_m1[k] * Fraction(factorial(k), factorial(2 * n + k))
        for k in range(3)
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

def _s_b(n: int) -> QFieldElement:
    """Four-term boundary combination that carries the whole twist response."""
    v = _boundary_atoms(n)
    return (Q ** -2 * v["Q", 1, "-1"] * v["P", 0, "qi"] + v["Q", 0, "-1"] * v["P", 1, "qi"]
            + Q ** 2 * v["Q", 1, "qi"] * v["P", 0, "-1"] + v["Q", 0, "qi"] * v["P", 1, "-1"])


def lambda_alpha_formula(n: int) -> Fraction:
    """Stationary global avalanche current at L = 2N: (3/2) N / (4N^2 - 1)."""
    return global_current_formula(2 * n)


def lambda_beta_formula(n: int) -> Fraction:
    """Stationary evacuated tile current at L = 2N: N (5N^2 - 2) / (4N^2 - 1)."""
    return diamond_current_formula(2 * n)


def lambda_alpha(n: int) -> Fraction:
    """Exact derivative of the top eigenvalue in the global counting field.

    Assembled from the boundary combination S_B; the q components cancel
    identically and the result is a plain rational.

    >>> lambda_alpha(1)
    Fraction(1, 2)
    """
    value = -Q * (1 - Q ** 2) * _s_b(n) / (2 * (1 + Q ** 2) * (1 + Q) ** (2 * n))
    return value.as_fraction()


def _b_transfer(first: str, second: str, v: FormalCombo) -> QFieldElement:
    """Pure part of the transfer q-worksheet; swapping the letters gives
    its partner."""
    return 2 * (Q * v[first, 1, "-1"] * v[second, 0, "qi"]
                + Q ** -2 * v[first, 2, "-1"] * v[second, 0, "qi"]
                + v[first, 0, "-1"] * v[second, 1, "qi"]
                + QI * v[first, 0, "-1"] * v[second, 2, "qi"])


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
    # the first variation term of the top eigenvalue carries q(1-q^2) T'/T - L,
    # which vanishes identically at the stochastic point; exactness proves it
    log_derivative = Q * (1 - Q ** 2) * t1 / t0
    return {"T": t0, "T'": t1, "T''": t2, "T_q": r1 - t1, "T'_q": t1q,
            "B_T": b_t, "B_T_swapped": b_t_swap, "log_derivative": log_derivative,
            "stationary": -2 * Q / (1 + Q ** 2) ** 2 * (log_derivative - 2 * n)}


def lambda_beta(n: int) -> Fraction:
    """Exact derivative of the top eigenvalue in the tile counting field.

    Chain rule through the transfer-eigenvalue form of the top eigenvalue,
    with q responding to the field through q + q^-1 = e^-beta.

    >>> lambda_beta(1)
    Fraction(1, 1)
    """
    t = _transfer_derivatives(n)
    g = t["T'"] / t["T"]
    g_q = (t["T''"] + t["T'_q"]) / t["T"] - t["T'"] * (t["T'"] + t["T_q"]) / t["T"] ** 2
    dlam_dq = t["stationary"] + ((1 - 3 * Q ** 2) * g + Q * (1 - Q ** 2) * g_q) / (1 + Q ** 2)
    dq_dbeta = -Q ** 2 / (Q ** 2 - 1)
    return (dlam_dq * dq_dbeta).as_fraction()


@dataclass(frozen=True)
class LambdaReport(_Verdict):
    """Growth rates assembled from polynomial data, beside their closed forms."""
    alpha: Fraction
    beta: Fraction
    alpha_formula: Fraction
    beta_formula: Fraction
    alpha_matches: bool
    beta_matches: bool


def lambda_check(n: int) -> LambdaReport:
    """Both assembled growth rates against their closed forms."""
    alpha, beta = lambda_alpha(n), lambda_beta(n)
    alpha_formula, beta_formula = lambda_alpha_formula(n), lambda_beta_formula(n)
    return LambdaReport(alpha, beta, alpha_formula, beta_formula,
                        alpha_matches=alpha == alpha_formula,
                        beta_matches=beta == beta_formula)


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
           v: FormalCombo) -> FormalCombo:
    """One parameter-derivative block of a q-worksheet: the symbols of
    ``first`` at ``at`` and of ``second`` at ``other``, each times the
    other letter at the other point.  w1 weighs the two terms carrying a
    derivative of ``first``, w0 the two carrying its value.  Swapping the
    letters swaps them in the symbol and in its cofactor, so a swapped
    block is built structurally rather than by relabeling."""
    return {
        (first, 1, at): w1 * v[second, 0, other],
        (first, 0, at): w0 * v[second, 1, other],
        (second, 0, other): w1 * v[first, 1, at],
        (second, 1, other): w0 * v[first, 0, at],
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
    b_phi = (v["Q", 1, "qi"] * v["P", 0, "-1"] + qi * v["Q", 2, "qi"] * v["P", 0, "-1"]
             - q ** -2 * v["Q", 0, "qi"] * v["P", 1, "-1"] - q * v["Q", 0, "qi"] * v["P", 2, "-1"])
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
    # eliminated closed form, whose phi'(-q) is -T'(q) as phi(x) = T(-x)
    s_b = _s_b(n)
    ell = 2 * n
    twist_response = Fraction(3, 2) * ell * s_b / (q - qi)
    eliminated = Fraction(3, 2) * ell * (
        -t["T'"] + 2 / (q ** 2 - 1)
        * (qi * v["Q", 1, "-1"] * v["P", 0, "qi"] + q * v["Q", 0, "-1"] * v["P", 1, "qi"]))
    eliminated_form_matches = twist_response == eliminated

    return DerivativeWorksheet(
        n=n, s_b=s_b, b_t=t["B_T"], b_t_swapped=t["B_T_swapped"], b_phi=b_phi,
        a_t=a_t, a_phi=a_phi, a_twist=a_twist, a_twist_phi=a_twist_phi,
        a_pair_cancels=a_pair_cancels,
        a_twist_pair_cancels=a_twist_pair_cancels,
        b_pair_matches=b_pair_matches,
        eliminated_form_matches=eliminated_form_matches,
        transfer_log_derivative_is_l=(t["log_derivative"] == ell),
        stationary_variation_vanishes=(t["stationary"] == 0),
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
        ((-1) ** (3 * k - m) * factorial(3 * k),
         rising_product(2 - 3 * k, n, 3) * factorial(n - k) * factorial(k)
         * factorial(3 * k - m) * 3 ** n)
        for k in range(n + 1) if 3 * k >= m)


def t2_sum(m: int, n: int) -> Fraction:
    """Companion sum for the exponent-class-2 part of f_Q.

    With (-k - 2/3)_{N+1} = 3^-(N+1) (-3k - 2)(1 - 3k)...(3N - 3k - 2),
    each term is 3 times a ratio of integers over 3^N.
    """
    return _exact_sum(
        ((-1) ** (3 * k + 2 - m) * factorial(3 * k + 2) * 3,
         rising_product(-3 * k - 2, n + 1, 3) * factorial(n - k - 1) * factorial(k)
         * factorial(3 * k + 2 - m) * 3 ** n)
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
    The seeds reach N = 3, so n_max must be at least 3.
    """
    if n_max < 3:
        raise ValueError(f"recurrence_check needs n_max >= 3, got {n_max}")
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
        f_m1, c = _f_q_descent(k), c_constant(k)
        idents = (idents and f_m1[0] == c * (a1[k] - a2[k])
                  and f_m1[1] == -c * k * (k + 1) * (b1[k] - b2[k])
                  and (k < 2 or f_m1[2] == c * Fraction(k * (k * k - 1) * (3 * k + 4), 6)
                       * (c1[k] - c2[k])))
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
# the root equations, decided through coprimality
# ---------------------------------------------------------------------------

# p = 2^61 - 1 is 1 mod 3, so q has the image (1 + sqrt(-3))/2 mod p, and
# 3 mod 4, so sqrt(-3) = (-3)^((p+1)/4) mod p
_PRIME = 2 ** 61 - 1
_OMEGA = (1 + pow(_PRIME - 3, (_PRIME + 1) // 4, _PRIME)) * pow(2, -1, _PRIME) % _PRIME


def _coprime_mod_p(f: Sequence[int], g: Sequence[int]) -> bool:
    """Whether Euclid over GF(p) ends in a nonzero constant; coefficients
    lowest degree first, with nonzero leading ones."""
    while g:
        f, inv, top = list(f), pow(g[-1], -1, _PRIME), len(g) - 1
        while len(f) > top:
            c, base = f.pop() * inv % _PRIME, len(f) - top
            for i in range(top):
                f[base + i] = (f[base + i] - c * g[i]) % _PRIME
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    return len(f) == 1


@dataclass(frozen=True)
class RootReport(_Verdict):
    n: int
    squarefree: bool
    nonzero_at_q_and_qi: bool
    coprime_to_shifts: bool


def root_equation_facts(poly: Polynomial) -> RootReport:
    """The three facts that make the T-Q relation, at each root x_j of a
    solution Q of degree n = ``poly.degree``, the root equations.

    At x_j, T(x) Q(x) = q phi(x/q) Q(q^2 x) + q^-1 phi(q x) Q(q^-2 x) leaves
    q phi(x_j/q) Q(q^2 x_j) = -q^-1 phi(q x_j) Q(q^-2 x_j).  Cancelling the
    k = j root factors (q^2 - 1) x_j and (q^-2 - 1) x_j, with x_j != 0, leaves

        ((x_j - q) / (1 - q x_j))^2N = q^-2 prod_{k != j} (x_j - q^2 x_k) / (q^2 x_j - x_k),

    that is u^2N ((x_j - q)/(1 - q x_j))^2N = (-1)^(N-1) prod_{k != j}
    (q^2 x_k - x_j)/(q^2 x_j - x_k) with the twist u^2N = q^2.  The steps hold when:

    * ``squarefree``: gcd(Q, Q') = 1, so "each root" means N equations;
    * ``nonzero_at_q_and_qi``: Q(q) != 0 and Q(q^-1) != 0, decided exactly,
      so no root is q or q^-1 and neither phi factor vanishes;
    * ``coprime_to_shifts``: Q(x) shares no root with Q(q^2 x) or Q(q^-2 x),
      so no factor q^2 x_j - x_k or x_j - q^2 x_k vanishes, nor does x_j
      (a root 0 of Q is one of Q(q^2 x) too).

    The gcd facts are decided mod p.  A constant gcd there proves
    coprimality over Q(q): the monic gcd h over Q(q) divides Q, whose
    leading coefficient is a unit at p, so h and its cofactors are
    p-integral (Gauss's lemma over the integers of Q(q)); mod p, h keeps
    its degree and divides both reductions.  Where p divides a denominator
    or the leading coefficient, nothing is proved and both read false.
    """
    res = poly.residues(_PRIME, _OMEGA)
    squarefree = shifts = False
    if res and res[-1]:
        derivative = [k * c % _PRIME for k, c in enumerate(res)][1:]
        shifted = [[c * pow(_OMEGA, s * k, _PRIME) % _PRIME for k, c in enumerate(res)]
                   for s in (2, -2)]
        squarefree = _coprime_mod_p(res, derivative)
        shifts = all(_coprime_mod_p(res, g) for g in shifted)
    return RootReport(n=poly.degree, squarefree=squarefree,
                      nonzero_at_q_and_qi=bool(poly(Q)) and bool(poly(QI)),
                      coprime_to_shifts=shifts)


def bethe_check(n: int) -> RootReport:
    """Whether the roots of Q solve the root equations, decided exactly;
    the eigenvalue and energy they carry are ``verify_tq``'s."""
    return root_equation_facts(q_poly(n))
