"""Exact arithmetic over the rationals adjoined a sixth root of unity."""

from fractions import Fraction
from math import factorial

import pytest

from raisepeel.qfield import Polynomial, QFieldElement, poch, rising_product
from raisepeel.tq import f_q_poly

Q = QFieldElement.gen()
HALF = Fraction(1, 2)


def test_generator_relations():
    assert Q * Q == Q - 1
    assert Q ** 3 == QFieldElement.coerce(-1)
    assert Q.inverse() == 1 - Q
    assert (2 * Q - 1) ** 2 == QFieldElement.coerce(-3)


def test_norm_is_multiplicative():
    span = [Fraction(a, b) for a in range(-2, 3) for b in (1, 2)]
    elems = [QFieldElement(a, b) for a in span for b in span]
    for x in elems[:40]:
        for y in elems[:40]:
            assert (x * y).norm() == x.norm() * y.norm()


def test_conjugate_gives_norm():
    for a in range(-3, 4):
        for b in range(-3, 4):
            x = QFieldElement(Fraction(a), Fraction(b))
            prod = x * x.conjugate()
            assert prod.is_rational
            assert prod.as_fraction() == x.norm()


def test_inverse_round_trip_exhaustive():
    one = QFieldElement.coerce(1)
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == 0 and b == 0:
                continue
            x = QFieldElement(Fraction(a), Fraction(b))
            assert x * x.inverse() == one
            assert x ** -1 == x.inverse()


def test_powers_match_repeated_products():
    x = QFieldElement(HALF, Fraction(-3, 7))
    acc = QFieldElement.coerce(1)
    for k in range(7):
        assert x ** k == acc
        acc = acc * x


def test_power_builds_no_square_past_the_last_bit(monkeypatch):
    # 24 = 0b11000: the squares up to x^16 are used, an x^32 would not be
    degrees = []
    product = Polynomial.__mul__

    def counted(self, other):
        out = product(self, other)
        degrees.append(out.degree)
        return out

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    assert Polynomial([1, 1]) ** 24 == Polynomial([1, 1]) ** 16 * Polynomial([1, 1]) ** 8
    assert max(degrees) == 24


def test_complex_embedding_is_a_ring_map():
    zq = complex(Q)
    assert abs(zq - (0.5 + 0.8660254037844386j)) < 1e-15
    x = QFieldElement(Fraction(2, 3), Fraction(-1, 5))
    y = QFieldElement(Fraction(-1, 2), Fraction(4, 3))
    assert abs(complex(x * y) - complex(x) * complex(y)) < 1e-14
    assert abs(complex(x + y) - (complex(x) + complex(y))) < 1e-14
    # the embedding sends the generator to a primitive sixth root of unity
    assert abs(zq ** 6 - 1) < 1e-14
    assert abs(zq ** 3 + 1) < 1e-14


def test_polynomial_basics():
    p = Polynomial([1, 2, 3])            # 1 + 2x + 3x^2
    assert p.degree == 2
    assert p(Fraction(2)) == 1 + 4 + 12
    assert Polynomial([0, 0, 0]).degree == -1
    x = Polynomial.x()
    assert (x ** 2 - 1)(Fraction(3)) == 8


def test_polynomial_ring_operations():
    a = Polynomial([1, 0, 2])
    b = Polynomial([-1, 1])
    assert (a * b).rational_coeffs() == (-1, 1, -2, 2)
    assert (a + b - a)(Fraction(5)) == b(Fraction(5))
    quot, rem = a.divmod(b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


def test_polynomial_exact_division():
    a = Polynomial([-1, 0, 1])          # x^2 - 1
    b = Polynomial([1, 1])              # x + 1
    assert a.exact_div(b).rational_coeffs() == (-1, 1)
    with pytest.raises(ValueError):
        a.exact_div(Polynomial([1, 0, 0, 1]))


def test_polynomial_derivative_leibniz():
    a = Polynomial([1, 2, 0, 1])
    b = Polynomial([3, -1, 2])
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert lhs == rhs
    # second derivative through the order argument
    assert a.derivative(2) == a.derivative().derivative()
    assert a.derivative(0) == a
    # the order 2N+2 that the boundary descent takes on f_Q, against the
    # derivative iterated one order at a time
    f = f_q_poly(4)
    iterated = f
    for _ in range(10):
        iterated = iterated.derivative()
    assert iterated and f.derivative(10) == iterated
    # beyond the degree the derivative vanishes
    assert not a.derivative(4)
    assert not a.derivative(7)


def test_polynomial_argument_scaling_and_reversal():
    p = Polynomial([1, 2, 3])
    q = p.scale_argument(Fraction(2))
    assert q(Fraction(1)) == p(Fraction(2))
    rev = p.reversed_coeffs()
    assert rev.rational_coeffs() == (3, 2, 1)


def test_factorials_and_pochhammer():
    assert poch(1, 0) == factorial(0)
    assert poch(1, 5) == factorial(5)
    assert rising_product(2, 3, 3) == 2 * 5 * 8
    assert poch(Fraction(2, 3), 3) == Fraction(rising_product(2, 3, 3), 3 ** 3)
    assert poch(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert poch(7, 0) == 1


def test_field_element_defers_to_polynomial_operands():
    x = Polynomial.x()
    assert Q * x == x * Q == Polynomial([0, Q])
    assert Q + x == x + Q == Polynomial([Q, 1])
    assert Q - x == Polynomial([Q, -1])
    assert x - Q == Polynomial([-Q, 1])
    for name in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__"):
        assert getattr(Q, name)(x) is NotImplemented, name
        assert getattr(Q, name)(1.5) is NotImplemented, name
    with pytest.raises(TypeError):
        Q * 1.5
    with pytest.raises(TypeError):
        1.5 - Q
    with pytest.raises(TypeError):
        Q / x
    with pytest.raises(TypeError):
        x * 1.5


def test_coerce_still_rejects_non_scalars():
    with pytest.raises(TypeError, match="cannot coerce Polynomial"):
        QFieldElement.coerce(Polynomial.x())
    with pytest.raises(TypeError, match="cannot coerce float"):
        QFieldElement.coerce(1.5)
    with pytest.raises(TypeError):
        Polynomial([1.5])


def test_hash_agrees_with_equality():
    assert QFieldElement(1) == 1 and hash(QFieldElement(1)) == hash(1)
    assert len({QFieldElement(1), 1}) == 1
    assert len({QFieldElement(HALF), HALF}) == 1
    assert Polynomial([2]) == 2 and hash(Polynomial([2])) == hash(2)
    assert len({Polynomial([2]), 2, QFieldElement(2), Fraction(2)}) == 1
    assert Polynomial([]) == 0 and hash(Polynomial([])) == hash(0)
    assert len({Polynomial([Q - HALF]), Q - HALF}) == 1
    # equal polynomials built from different scalar types hash alike
    x = Polynomial.x()
    built = [Polynomial([HALF, 0, 3]), Polynomial([QFieldElement(HALF), Fraction(0), 3, 0]),
             3 * x ** 2 + HALF]
    assert len(set(built)) == 1
