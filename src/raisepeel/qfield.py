"""Exact arithmetic carriers.

Everything downstream of the functional-equation pipeline runs over the
quadratic number field generated by a primitive sixth root of unity ``q``,
the root of ``x^2 = x - 1``.  Elements are stored as ``a + b*q`` with
``a, b`` rational, so all identities can be checked with zero tolerance.
``ExactRational`` is the stdlib ``Fraction``; it already carries the
gcd-reduced invariant we need.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm
from typing import Iterable, Union

ExactRational = Fraction

Scalar = Union[int, Fraction, "QFieldElement"]


def poch(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), exact.

    >>> poch(Fraction(2, 3), 2)
    Fraction(10, 9)
    >>> poch(Fraction(-1, 3), 1)
    Fraction(-1, 3)
    >>> poch(5, 0)
    Fraction(1, 1)
    """
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    out = Fraction(1)
    a = Fraction(a)
    for k in range(n):
        out *= a + k
    return out


class QFieldElement:
    """An element a + b*q of Q(q) where q^2 = q - 1.

    q is the primitive sixth root of unity exp(i*pi/3); its inverse is
    1 - q and q^3 = -1.  The norm of a + b*q is a^2 + a*b + b^2, which
    vanishes only at zero, so division is exact.

    >>> q = QFieldElement.gen()
    >>> q * q == q - 1
    True
    >>> q ** 3
    QFieldElement(-1, 0)
    >>> (q ** -1) == 1 - q
    True
    >>> (1 + q) ** 2 == 3 * q
    True
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def gen(cls) -> "QFieldElement":
        return cls(0, 1)

    @classmethod
    def coerce(cls, value: Scalar) -> "QFieldElement":
        if isinstance(value, QFieldElement):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value, 0)
        raise TypeError(f"cannot coerce {type(value).__name__} into QFieldElement")

    # -- ring structure -------------------------------------------------

    def __add__(self, other: Scalar) -> "QFieldElement":
        o = QFieldElement.coerce(other)
        return QFieldElement(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "QFieldElement":
        o = QFieldElement.coerce(other)
        return QFieldElement(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: Scalar) -> "QFieldElement":
        o = QFieldElement.coerce(other)
        return QFieldElement(o.a - self.a, o.b - self.b)

    def __neg__(self) -> "QFieldElement":
        return QFieldElement(-self.a, -self.b)

    def __mul__(self, other: Scalar) -> "QFieldElement":
        o = QFieldElement.coerce(other)
        # (a + b q)(c + d q) = ac + (ad + bc) q + bd (q - 1)
        a, b, c, d = self.a, self.b, o.a, o.b
        return QFieldElement(a * c - b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.a * self.a + self.a * self.b + self.b * self.b

    def conjugate(self) -> "QFieldElement":
        """Galois conjugate, q -> 1 - q (complex conjugation on the circle)."""
        return QFieldElement(self.a + self.b, -self.b)

    def inverse(self) -> "QFieldElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(q)")
        return QFieldElement((self.a + self.b) / n, -self.b / n)

    def __truediv__(self, other: Scalar) -> "QFieldElement":
        return self * QFieldElement.coerce(other).inverse()

    def __rtruediv__(self, other: Scalar) -> "QFieldElement":
        return QFieldElement.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "QFieldElement":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        base = self.inverse() if n < 0 else self
        n = abs(n)
        out = QFieldElement(1)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and conversions -------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
        o = QFieldElement.coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} has a nonzero q component")
        return self.a

    def __complex__(self) -> complex:
        # q = exp(i pi / 3)
        root = complex(0.5, 0.8660254037844386)
        return complex(self.a) + complex(self.b) * root

    def __repr__(self) -> str:
        return f"QFieldElement({self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*q"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*q"


Q_GEN = QFieldElement.gen()


class Polynomial:
    """Dense univariate polynomial over Q(q).

    Coefficients are stored lowest degree first and coerced to
    QFieldElement, so a polynomial with plain rational coefficients and
    one with field coefficients share the same arithmetic.

    >>> x = Polynomial.x()
    >>> ((1 + x) ** 2)(Fraction(1, 2))
    QFieldElement(9/4, 0)
    >>> (x ** 2 - 1).exact_div(x - 1) == x + 1
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [QFieldElement.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, QFieldElement)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, QFieldElement)):
            other = Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [QFieldElement()] * (n - len(self.coeffs))
        b = list(other.coeffs) + [QFieldElement()] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, QFieldElement)):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, QFieldElement)):
            return Polynomial([c * other for c in self.coeffs])
        out = [QFieldElement()] * (len(self.coeffs) + len(other.coeffs) - 1) if self and other else []
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x: Scalar) -> QFieldElement:
        acc = QFieldElement()
        xe = QFieldElement.coerce(x)
        for c in reversed(self.coeffs):
            acc = acc * xe + c
        return acc

    def derivative(self, order: int = 1) -> "Polynomial":
        """The order-th derivative in one pass: x^k -> k!/(k-order)! x^(k-order)."""
        return Polynomial([c * perm(k, order)
                           for k, c in enumerate(self.coeffs[order:], order)])

    def scale_argument(self, c: Scalar) -> "Polynomial":
        """Return p(c*x)."""
        ce = QFieldElement.coerce(c)
        power = QFieldElement(1)
        out = []
        for coeff in self.coeffs:
            out.append(coeff * power)
            power = power * ce
        return Polynomial(out)

    def reversed_coeffs(self) -> "Polynomial":
        """Return x^deg * p(1/x)."""
        return Polynomial(list(reversed(self.coeffs)))

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Exact polynomial quotient; raises if the division leaves a remainder."""
        quot, rem = self.divmod(other)
        if rem:
            raise ValueError("polynomial division left a remainder")
        return quot

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial([]), self
        quot = [QFieldElement()] * (dq + 1)
        lead = other.coeffs[-1].inverse()
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] * lead
            quot[k] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * oc
        return Polynomial(quot), Polynomial(rem)

    def rational_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(c.as_fraction() for c in self.coeffs)

    def complex_coeffs(self) -> tuple[complex, ...]:
        return tuple(complex(c) for c in self.coeffs)

    def is_monic(self) -> bool:
        return bool(self) and self.coeffs[-1] == 1

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial([])"
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"Polynomial([{terms}])"


def fact(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of a negative integer")
    return factorial(n)
