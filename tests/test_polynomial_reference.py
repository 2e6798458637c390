"""The integer-numerator Polynomial against a schoolbook reference.

The reference below keeps a polynomial as a plain list of QFieldElement
coefficients, lowest degree first, and does every operation the textbook
way on those Fraction-pair scalars.  Random coefficients with mixed
denominators and both rational and q parts drive the comparison.
"""

from fractions import Fraction
from math import perm

from hypothesis import given, settings
from hypothesis import strategies as st

from raisepeel.qfield import Polynomial, Q_GEN, QFieldElement

Q = Q_GEN
ZERO = QFieldElement(0)
ONE = QFieldElement(1)


# -- schoolbook reference on lists of field elements ----------------------

def ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(x, y, sign=1):
    n = max(len(x), len(y))
    x = list(x) + [ZERO] * (n - len(x))
    y = list(y) + [ZERO] * (n - len(y))
    return ref_trim(a + sign * b for a, b in zip(x, y))


def ref_mul(x, y):
    if not x or not y:
        return ()
    out = [ZERO] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = out[i + j] + a * b
    return ref_trim(out)


def ref_pow(x, k):
    out = (ONE,)
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def ref_eval(x, point):
    return sum((c * point ** i for i, c in enumerate(x)), ZERO)


def ref_derivative(x, order):
    return ref_trim(c * perm(k, order) for k, c in enumerate(x[order:], order))


def ref_scale(x, c):
    return ref_trim(coeff * c ** i for i, coeff in enumerate(x))


def ref_reverse(x):
    return ref_trim(reversed(ref_trim(x)))


# -- strategies -----------------------------------------------------------

denominators = st.sampled_from([1, 1, 2, 3, 4, 5, 6, 7, 9, 12, 35])
fractions = st.builds(Fraction, st.integers(-30, 30), denominators)
elements = st.builds(QFieldElement, fractions,
                     st.one_of(st.just(Fraction(0)), fractions))
coeff_lists = st.lists(elements, max_size=6)
integral_points = st.builds(QFieldElement, st.integers(-4, 4), st.integers(-4, 4))
# denominators other than 1, so the point is not in Z[q]
fractional_points = st.builds(
    QFieldElement,
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5, 7])),
    fractions)

SETTINGS = settings(max_examples=150, deadline=None)


@SETTINGS
@given(coeff_lists, coeff_lists, st.integers(0, 4))
def test_ring_operations_match_reference(xs, ys, k):
    px, py = Polynomial(xs), Polynomial(ys)
    assert px.coeffs == ref_trim(xs)
    assert (px + py).coeffs == ref_add(xs, ys)
    assert (px - py).coeffs == ref_add(xs, ys, -1)
    assert (-px).coeffs == ref_add((), xs, -1)
    assert (px * py).coeffs == ref_mul(xs, ys)
    assert (px ** k).coeffs == ref_pow(ref_trim(xs), k)
    for scalar in (ys[0] if ys else Q, Fraction(-3, 4), 5):
        assert (px * scalar).coeffs == ref_mul(xs, (QFieldElement.coerce(scalar),))
        assert (scalar + px).coeffs == ref_add((QFieldElement.coerce(scalar),), xs)
        assert (scalar - px).coeffs == ref_add((QFieldElement.coerce(scalar),), xs, -1)


@SETTINGS
@given(coeff_lists, integral_points, fractional_points)
def test_evaluation_matches_reference(xs, integral, fractional):
    p = Polynomial(xs)
    for point in (integral, fractional, Q, Q.inverse(), -1, Fraction(1, 3)):
        assert p(point) == ref_eval(xs, QFieldElement.coerce(point))


@SETTINGS
@given(coeff_lists)
def test_derivatives_of_every_order_match_reference(xs):
    p = Polynomial(xs)
    for order in range(len(xs) + 3):
        assert p.derivative(order).coeffs == ref_derivative(ref_trim(xs), order)


@SETTINGS
@given(coeff_lists, elements)
def test_argument_scaling_and_reversal_match_reference(xs, c):
    p = Polynomial(xs)
    for k in range(-6, 7):
        assert p.scale_argument(Q ** k).coeffs == ref_scale(xs, Q ** k)
    for scale in (c, QFieldElement(2, 1), Fraction(-2, 3), 0):
        assert p.scale_argument(scale).coeffs == ref_scale(
            xs, QFieldElement.coerce(scale))
    assert p.reversed_coeffs().coeffs == ref_reverse(xs)


@SETTINGS
@given(coeff_lists, coeff_lists.filter(lambda cs: any(cs)), st.booleans())
def test_divmod_identity_for_monic_and_general_divisors(xs, ds, monic):
    p = Polynomial(xs)
    d = Polynomial(ref_trim(ds) + ((ONE,) if monic else ()))
    assert d.is_monic() or not monic
    quot, rem = p.divmod(d)
    assert quot * d + rem == p
    assert rem.degree < d.degree
    assert (quot * d + rem).coeffs == ref_trim(xs)
    assert (p * d).exact_div(d) == p


@SETTINGS
@given(coeff_lists, coeff_lists)
def test_canonical_form_two_constructions(xs, ys):
    p = Polynomial(xs)
    # from the reference coefficients, padded with zeros
    padded = Polynomial(list(ref_trim(xs)) + [0, Fraction(0), ZERO])
    # as a sum of monomials
    x = Polynomial.x()
    summed = sum((c * x ** i for i, c in enumerate(xs)), Polynomial([]))
    # through a round trip that grows and cancels denominators
    q = Polynomial(ys)
    round_trip = (p + q) - q
    for other in (padded, summed, round_trip):
        assert other == p
        assert hash(other) == hash(p)
    assert p.degree == len(ref_trim(xs)) - 1
    assert bool(p) == bool(ref_trim(xs))
