"""Exact arithmetic over the rationals adjoined a sixth root of unity."""

import doctest
from fractions import Fraction

import pytest

import raisepeel.qfield
from raisepeel.qfield import Polynomial, Q_GEN, QFieldElement, fact, poch
from raisepeel.tq import f_q_poly

Q = Q_GEN
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
    assert fact(0) == 1
    assert fact(5) == 120
    assert poch(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert poch(7, 0) == 1


def test_docstring_examples():
    failures, _ = doctest.testmod(raisepeel.qfield, verbose=False)
    assert failures == 0
