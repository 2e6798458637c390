"""Q(q) scalars and polynomials against a Fraction-pair reference.

The reference keeps an element a + b*q of Q(q), q^2 = q - 1, as a pair of
Fractions and does every operation by the textbook formula on the pair;
a reference polynomial is a plain list of such pairs, lowest degree first,
with schoolbook sums, products, evaluation and division.  The code under
test keeps integers over one denominator, so the two forms share nothing
but the Fraction read-outs ``a`` and ``b`` of a field element.  Random
values with mixed denominators and both rational and q parts drive the
comparison.
"""

from fractions import Fraction
from math import gcd, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raisepeel.qfield import Polynomial, QFieldElement


# -- the reference scalar ---------------------------------------------------

class Pair:
    """a + b*q with Fractions a and b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @classmethod
    def of(cls, value):
        """The reference for an int, a Fraction, a Pair or a field element."""
        if isinstance(value, Pair):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        return cls(value.a, value.b)

    def __add__(self, other):
        o = Pair.of(other)
        return Pair(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Pair(-self.a, -self.b)

    def __sub__(self, other):
        return self + -Pair.of(other)

    def __rsub__(self, other):
        return Pair.of(other) - self

    def __mul__(self, other):
        # (a + b q)(c + d q) = ac + (ad + bc) q + bd (q - 1)
        o = Pair.of(other)
        a, b, c, d = self.a, self.b, o.a, o.b
        return Pair(a * c - b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def norm(self):
        return self.a * self.a + self.a * self.b + self.b * self.b

    def conjugate(self):
        return Pair(self.a + self.b, -self.b)

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(q)")
        return Pair((self.a + self.b) / n, -self.b / n)

    def __truediv__(self, other):
        return self * Pair.of(other).inverse()

    def __rtruediv__(self, other):
        return Pair.of(other) * self.inverse()

    def __pow__(self, n):
        base = self.inverse() if n < 0 else self
        out = Pair(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        o = Pair.of(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a or self.b)

    def as_fraction(self):
        if self.b != 0:
            raise ValueError("nonzero q component")
        return self.a

    def __complex__(self):
        return complex(self.a) + complex(self.b) * complex(0.5, 0.8660254037844386)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*q"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*q"


def field(x):
    """The field element of the code under test with the same parts."""
    return QFieldElement(x.a, x.b)


def pairs(p):
    """The coefficients of a Polynomial as reference pairs."""
    return tuple(Pair.of(c) for c in p.coeffs)


ZERO = Pair()
ONE = Pair(1)
Q = Pair(0, 1)


# -- strategies ---------------------------------------------------------------

denominators = st.sampled_from([1, 1, 2, 3, 4, 5, 6, 7, 9, 12, 35])
fractions = st.builds(Fraction, st.integers(-30, 30), denominators)
elements = st.builds(Pair, fractions, st.one_of(st.just(Fraction(0)), fractions))
coeff_lists = st.lists(elements, max_size=6)
integral_points = st.builds(Pair, st.integers(-4, 4), st.integers(-4, 4))
# denominators other than 1, so the point is not in Z[q]
fractional_points = st.builds(
    Pair,
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5, 7])),
    fractions)
rationals = st.one_of(st.integers(-9, 9), fractions)

SETTINGS = settings(max_examples=150, deadline=None)


# -- scalars ------------------------------------------------------------------

def assert_same(x, ref):
    """x is a canonical field element with the parts of ref."""
    assert type(x) is QFieldElement
    assert x._den > 0 and gcd(x._a, x._b, x._den) == 1
    assert (x.a, x.b) == (ref.a, ref.b)


@SETTINGS
@given(elements, elements, rationals)
def test_field_operations_match_reference(rx, ry, r):
    x, y = field(rx), field(ry)
    assert_same(x, rx)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        assert_same(op(x, y), op(rx, ry))
        assert_same(op(x, r), op(rx, r))
        assert_same(op(r, x), op(r, rx))
    assert_same(-x, -rx)
    assert_same(x.conjugate(), rx.conjugate())
    assert x.norm() == rx.norm() and type(x.norm()) is Fraction
    if ry:
        assert_same(x / y, rx / ry)
        assert_same(y.inverse(), ry.inverse())
    else:
        for fail in (lambda: x / y, lambda: y.inverse(), lambda: y ** -1):
            with pytest.raises(ZeroDivisionError):
                fail()
    if r:
        assert_same(x / r, rx / r)
    if rx:
        assert_same(r / x, r / rx)
    for k in range(-4 if rx else 0, 6):
        assert_same(x ** k, rx ** k)


@SETTINGS
@given(elements, elements, rationals)
def test_field_predicates_and_conversions_match_reference(rx, ry, r):
    x, y = field(rx), field(ry)
    assert (x == y) == (rx == ry)
    assert (x == r) == (rx == r) and (r == x) == (rx == r)
    assert bool(x) == bool(rx)
    assert x.is_rational == (rx.b == 0)
    # equal elements reached two ways hash alike; a rational one hashes
    # as its Fraction, as the reference does
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    if x.is_rational:
        assert x.as_fraction() == rx.as_fraction()
        assert hash(x) == hash(rx) == hash(rx.a)
    else:
        with pytest.raises(ValueError):
            x.as_fraction()
    assert str(x) == str(rx)
    assert repr(x) == f"QFieldElement({rx.a}, {rx.b})"
    assert complex(x) == complex(rx)
    assert_same(QFieldElement.coerce(r), Pair(r))
    assert QFieldElement.coerce(x) is x


# -- schoolbook polynomials on lists of reference pairs -----------------------

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


def ref_divmod(x, d):
    """Long division with each remainder coefficient divided by the lead."""
    rem, d = list(ref_trim(x)), ref_trim(d)
    quot = [ZERO] * max(len(rem) - len(d) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(d) - 1] / d[-1]
        quot[k] = c
        for j, dj in enumerate(d):
            rem[k + j] = rem[k + j] - c * dj
    return ref_trim(quot), ref_trim(rem)


def poly(xs):
    return Polynomial([field(c) for c in xs])


@SETTINGS
@given(coeff_lists, coeff_lists, st.integers(0, 4))
def test_ring_operations_match_reference(xs, ys, k):
    px, py = poly(xs), poly(ys)
    assert pairs(px) == ref_trim(xs)
    assert pairs(px + py) == ref_add(xs, ys)
    assert pairs(px - py) == ref_add(xs, ys, -1)
    assert pairs(-px) == ref_add((), xs, -1)
    assert pairs(px * py) == ref_mul(xs, ys)
    assert pairs(px ** k) == ref_pow(ref_trim(xs), k)
    for scalar in (ys[0] if ys else Q, Fraction(-3, 4), 5):
        s = field(scalar) if isinstance(scalar, Pair) else scalar
        assert pairs(px * s) == ref_mul(xs, (Pair.of(scalar),))
        assert pairs(s + px) == ref_add((Pair.of(scalar),), xs)
        assert pairs(s - px) == ref_add((Pair.of(scalar),), xs, -1)


@SETTINGS
@given(coeff_lists, integral_points, fractional_points)
def test_evaluation_matches_reference(xs, integral, fractional):
    p = poly(xs)
    for point in (integral, fractional, Q, Q.inverse(), Pair(-1), Pair(Fraction(1, 3))):
        assert_same(p(field(point)), ref_eval(xs, point))
    assert_same(p(-1), ref_eval(xs, Pair(-1)))
    assert_same(p(Fraction(1, 3)), ref_eval(xs, Pair(Fraction(1, 3))))


@SETTINGS
@given(coeff_lists)
def test_derivatives_of_every_order_match_reference(xs):
    p = poly(xs)
    for order in range(len(xs) + 3):
        assert pairs(p.derivative(order)) == ref_derivative(ref_trim(xs), order)


@SETTINGS
@given(coeff_lists, elements)
def test_argument_scaling_and_reversal_match_reference(xs, c):
    p = poly(xs)
    for k in range(-6, 7):
        assert pairs(p.scale_argument(field(Q) ** k)) == ref_scale(xs, Q ** k)
    for scale in (c, Pair(2, 1), Pair(Fraction(-2, 3)), ZERO):
        assert pairs(p.scale_argument(field(scale))) == ref_scale(xs, scale)
    assert pairs(p.scale_argument(Fraction(-2, 3))) == ref_scale(xs, Pair(Fraction(-2, 3)))
    assert pairs(p.reversed_coeffs()) == ref_reverse(xs)


integer_elements = st.builds(Pair, st.integers(-9, 9), st.one_of(st.just(0), st.integers(-9, 9)))


@SETTINGS
@given(coeff_lists, st.one_of(
    st.lists(integer_elements, max_size=5).map(lambda cs: tuple(cs) + (ONE,)),
    st.integers(0, 8).map(lambda k: ref_pow((ONE, ONE), k))))
def test_divmod_by_monic_integer_divisors_matches_reference(xs, ds):
    # divisors over Z[q] with leading coefficient 1, (1 + x)^k among them,
    # take the division on integer numerators
    p, d = poly(xs), poly(ds)
    assert d.is_monic() and d._den == 1
    quot, rem = p.divmod(d)
    assert (pairs(quot), pairs(rem)) == ref_divmod(xs, ds)
    assert (p * d).exact_div(d) == p


@SETTINGS
@given(coeff_lists, st.lists(integer_elements, max_size=5), coeff_lists)
def test_divmod_identity_for_monic_and_general_divisors(xs, low, general):
    # a monic divisor over Z[q] divides, p = quot d + rem; any other
    # divisor, zero included, is refused
    p = poly(xs)
    d = poly(tuple(low) + (ONE,))
    quot, rem = p.divmod(d)
    assert quot * d + rem == p
    assert rem.degree < d.degree
    assert (p * d).exact_div(d) == p
    g = poly(general)
    if not (g.is_monic() and g._den == 1):
        for divide in (p.divmod, p.exact_div):
            with pytest.raises(ValueError, match="monic divisor over Z"):
                divide(g)


@SETTINGS
@given(coeff_lists, coeff_lists)
def test_canonical_form_two_constructions(xs, ys):
    p = poly(xs)
    # from the reference coefficients, padded with zeros
    padded = Polynomial([field(c) for c in ref_trim(xs)] + [0, Fraction(0), field(ZERO)])
    # as a sum of monomials
    x = Polynomial.x()
    summed = sum((field(c) * x ** i for i, c in enumerate(xs)), Polynomial([]))
    # through a round trip that grows and cancels denominators
    q = poly(ys)
    round_trip = (p + q) - q
    for other in (padded, summed, round_trip):
        assert other == p
        assert hash(other) == hash(p)
    assert p.degree == len(ref_trim(xs)) - 1
    assert bool(p) == bool(ref_trim(xs))
