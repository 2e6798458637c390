"""Exact arithmetic carriers.

Everything downstream of the functional-equation pipeline runs over the
quadratic number field generated by a primitive sixth root of unity ``q``,
the root of ``x^2 = x - 1``.  Numbers have one integer form: a scalar
(``QFieldElement``) is ``(a + b*q) / den`` with Python ints ``a, b`` and
``den > 0``, ``gcd(a, b, den) = 1``, and a polynomial keeps the integer
numerators of its coefficients over one common positive denominator.
Every scalar operation and every polynomial sum, product and derivative
is integer arithmetic with one gcd reduction per result, and so is
division, which takes only a monic divisor with integer coefficients;
evaluation and argument scaling are field arithmetic on the
coefficients.
Every identity is checked with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, perm
from typing import Iterable, Union

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
    vanishes only at zero, so division is exact.  The element is stored
    as ints (a, b, den) meaning (a + b*q)/den, with den > 0 and
    gcd(a, b, den) = 1; ``a`` and ``b`` read the parts back as Fractions.

    >>> q = QFieldElement.gen()
    >>> q * q == q - 1
    True
    >>> q ** 3
    QFieldElement(-1, 0)
    >>> (q ** -1) == 1 - q
    True
    >>> (1 + q) ** 2 == 3 * q
    True
    >>> QFieldElement(Fraction(1, 2), Fraction(-1, 3)).b
    Fraction(-1, 3)
    """

    __slots__ = ("_a", "_b", "_den")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0):
        if isinstance(a, int) and isinstance(b, int):
            self._a, self._b, self._den = int(a), int(b), 1
            return
        a, b = Fraction(a), Fraction(b)
        den = lcm(a.denominator, b.denominator)
        # over the lcm the three ints are already coprime
        self._a = a.numerator * (den // a.denominator)
        self._b = b.numerator * (den // b.denominator)
        self._den = den

    @classmethod
    def _reduced(cls, a: int, b: int, den: int) -> "QFieldElement":
        """(a + b*q)/den in canonical form; den must be positive."""
        out = cls.__new__(cls)
        g = gcd(a, b, den)
        if g != 1:
            a, b, den = a // g, b // g, den // g
        out._a, out._b, out._den = a, b, den
        return out

    @classmethod
    def gen(cls) -> "QFieldElement":
        return cls(0, 1)

    @classmethod
    def coerce(cls, value: Scalar) -> "QFieldElement":
        if isinstance(value, QFieldElement):
            return value
        if isinstance(value, int):
            return cls(value)
        if isinstance(value, Fraction):
            return cls._reduced(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot coerce {type(value).__name__} into QFieldElement")

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._a, self._den)

    @property
    def b(self) -> Fraction:
        """The coefficient of q."""
        return Fraction(self._b, self._den)

    # -- ring structure -------------------------------------------------
    # Operands other than scalars give NotImplemented, so that a
    # Polynomial on the right gets its reflected method.

    def _combine(self, other: "QFieldElement", sign: int) -> "QFieldElement":
        """self + sign * other over the product of the denominators."""
        d, e = self._den, other._den
        return QFieldElement._reduced(self._a * e + sign * other._a * d,
                                      self._b * e + sign * other._b * d, d * e)

    def __add__(self, other: Scalar) -> "QFieldElement":
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
        return self._combine(QFieldElement.coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "QFieldElement":
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
        return self._combine(QFieldElement.coerce(other), -1)

    def __rsub__(self, other: Scalar) -> "QFieldElement":
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
        return QFieldElement.coerce(other)._combine(self, -1)

    def __neg__(self) -> "QFieldElement":
        return QFieldElement._reduced(-self._a, -self._b, self._den)

    def __mul__(self, other: Scalar) -> "QFieldElement":
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
        o = QFieldElement.coerce(other)
        # (a + b q)(c + d q) = ac + (ad + bc) q + bd (q - 1)
        a, b, c, d = self._a, self._b, o._a, o._b
        return QFieldElement._reduced(a * c - b * d, a * d + b * c + b * d,
                                      self._den * o._den)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        a, b = self._a, self._b
        return Fraction(a * a + a * b + b * b, self._den ** 2)

    def conjugate(self) -> "QFieldElement":
        """Galois conjugate, q -> 1 - q (complex conjugation on the circle)."""
        return QFieldElement._reduced(self._a + self._b, -self._b, self._den)

    def inverse(self) -> "QFieldElement":
        # 1/(a + b q) = (a + b - b q) / (a^2 + a b + b^2)
        a, b, den = self._a, self._b, self._den
        n = a * a + a * b + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(q)")
        return QFieldElement._reduced((a + b) * den, -b * den, n)

    def __truediv__(self, other: Scalar) -> "QFieldElement":
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
        return self * QFieldElement.coerce(other).inverse()

    def __rtruediv__(self, other: Scalar) -> "QFieldElement":
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
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
        return self._a == o._a and self._b == o._b and self._den == o._den

    def __hash__(self) -> int:
        # a rational element equals, so hashes as, its Fraction
        return hash(self.a) if self._b == 0 else hash((self._a, self._b, self._den))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def as_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError(f"{self!r} has a nonzero q component")
        return self.a

    def __complex__(self) -> complex:
        # q = exp(i pi / 3); int / int rounds as float(Fraction) does
        root = complex(0.5, 0.8660254037844386)
        return complex(self._a / self._den) + complex(self._b / self._den) * root

    def __repr__(self) -> str:
        return f"QFieldElement({self.a}, {self.b})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self.a)
        if self._a == 0:
            return f"{self.b}*q"
        sign = "+" if self._b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*q"


Q_GEN = QFieldElement.gen()


def _convolve(x: Iterable[int], y: tuple[int, ...], out: list[int]) -> list[int]:
    """Add the coefficient convolution of x and y into out."""
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y, i):
                out[j] += xi * yj
    return out


class Polynomial:
    """Dense univariate polynomial over Q(q), on integer numerators.

    The coefficient of x^k is (a[k] + b[k]*q) / den: two tuples of Python
    ints, rational parts and q parts, lowest degree first, over one
    positive int denominator.  The form is canonical: trailing zero
    coefficients are trimmed and gcd(a, b, den) = 1, so equality, hashing
    and the degree compare ints.  Sums, products and derivatives work on
    the numerators and reduce once per result, as does division, whose
    divisor must be monic with integer coefficients; evaluation and
    argument scaling work on the coefficients as field elements.  The
    constructor accepts ints, Fractions and field elements; ``coeffs``
    reads the coefficients back as QFieldElements.

    >>> x = Polynomial.x()
    >>> ((1 + x) ** 2)(Fraction(1, 2))
    QFieldElement(9/4, 0)
    >>> (x ** 2 - 1).exact_div(x - 1) == x + 1
    True
    """

    __slots__ = ("_a", "_b", "_den")

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = [QFieldElement.coerce(c) for c in coeffs]
        den = lcm(*(c._den for c in cs))
        self._set([c._a * (den // c._den) for c in cs],
                  [c._b * (den // c._den) for c in cs], den)

    def _set(self, a: list[int], b: list[int], den: int) -> None:
        """Store (a + b*q) / den in canonical form; den must be positive."""
        n = len(a)
        while n and not a[n - 1] and not b[n - 1]:
            n -= 1
        g = gcd(den, *a[:n], *b[:n])
        if g != 1:
            a = [c // g for c in a[:n]]
            b = [c // g for c in b[:n]]
            den //= g
        self._a, self._b, self._den = tuple(a[:n]), tuple(b[:n]), den

    @classmethod
    def _from_ints(cls, a: list[int], b: list[int], den: int) -> "Polynomial":
        out = cls.__new__(cls)
        out._set(a, b, den)
        return out

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple[QFieldElement, ...]:
        """Coefficients, lowest degree first, as field elements."""
        d = self._den
        return tuple(QFieldElement._reduced(a, b, d) for a, b in zip(self._a, self._b))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._a) - 1

    def __bool__(self) -> bool:
        return bool(self._a)

    def __eq__(self, other: object) -> bool:
        other = _lift(other)
        if other is None:
            return NotImplemented
        return (self._den == other._den and self._a == other._a
                and self._b == other._b)

    def __hash__(self) -> int:
        # a constant equals, so hashes as, its field element
        if self.degree <= 0:
            return hash(self.coeffs[0] if self else 0)
        return hash((self._a, self._b, self._den))

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the least common denominator."""
        den = lcm(self._den, other._den)
        ms, mo = den // self._den, sign * (den // other._den)
        n = max(len(self._a), len(other._a))
        a, b = [0] * n, [0] * n
        for i, (x, y) in enumerate(zip(self._a, self._b)):
            a[i], b[i] = x * ms, y * ms
        for i, (x, y) in enumerate(zip(other._a, other._b)):
            a[i] += x * mo
            b[i] += y * mo
        return Polynomial._from_ints(a, b, den)

    def __add__(self, other) -> "Polynomial":
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_ints([-c for c in self._a], [-c for c in self._b],
                                     self._den)

    def __sub__(self, other) -> "Polynomial":
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other._combine(self, -1)

    def __mul__(self, other) -> "Polynomial":
        other = _lift(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self._a, self._b, other._a, other._b
        n = len(a) + len(c) - 1
        # (a + b q)(c + d q) = (ac - bd) + ((a + b)(c + d) - ac) q, using q^2 = q - 1
        ac = _convolve(a, c, [0] * n)
        bd = _convolve(b, d, [0] * n)
        cross = _convolve([x + y for x, y in zip(a, b)],
                          tuple(x + y for x, y in zip(c, d)), [0] * n)
        rat = [u - v for u, v in zip(ac, bd)]
        irr = [u - v for u, v in zip(cross, ac)]
        return Polynomial._from_ints(rat, irr, self._den * other._den)

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
        """Horner evaluation in the field."""
        x = QFieldElement.coerce(x)
        acc = QFieldElement()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, order: int = 1) -> "Polynomial":
        """The order-th derivative in one pass: x^k -> k!/(k-order)! x^(k-order)."""
        scale = [perm(k, order) for k in range(order, len(self._a))]
        return Polynomial._from_ints([c * m for c, m in zip(self._a[order:], scale)],
                                     [c * m for c, m in zip(self._b[order:], scale)],
                                     self._den)

    def scale_argument(self, c: Scalar) -> "Polynomial":
        """Return p(c*x): the coefficient of x^k picks up c^k."""
        c = QFieldElement.coerce(c)
        return Polynomial([coeff * c ** k for k, coeff in enumerate(self.coeffs)])

    def reversed_coeffs(self) -> "Polynomial":
        """Return x^deg * p(1/x)."""
        return Polynomial._from_ints(list(reversed(self._a)), list(reversed(self._b)),
                                     self._den)

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Exact polynomial quotient; raises if the division leaves a remainder."""
        quot, rem = self.divmod(other)
        if rem:
            raise ValueError("polynomial division left a remainder")
        return quot

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder by a monic divisor over Z[q], such as
        (1 + x)^k, by schoolbook long division on the integer numerators.

        Both stay in Z[q] over this polynomial's denominator, so each step
        is int arithmetic with no inverse and no gcd.  Any other divisor
        raises ValueError.
        """
        if other._den != 1 or not other.is_monic():
            raise ValueError(f"divmod needs a monic divisor over Z[q], got {other!r}")
        top = other.degree
        a, b = list(self._a), list(self._b)
        da, db = other._a, other._b
        quot_a, quot_b = [], []
        for k in range(self.degree - top, -1, -1):
            ca, cb = a.pop(), b.pop()
            quot_a.append(ca)
            quot_b.append(cb)
            if ca or cb:
                # subtract (ca + cb q)(da + db q), with q^2 = q - 1
                for j in range(top):
                    x, y = da[j], db[j]
                    a[k + j] -= ca * x - cb * y
                    b[k + j] -= ca * y + cb * x + cb * y
        return (Polynomial._from_ints(quot_a[::-1], quot_b[::-1], self._den),
                Polynomial._from_ints(a, b, self._den))

    def rational_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(c.as_fraction() for c in self.coeffs)

    def complex_coeffs(self) -> tuple[complex, ...]:
        return tuple(complex(c) for c in self.coeffs)

    def is_monic(self) -> bool:
        return bool(self) and self._a[-1] == self._den and self._b[-1] == 0

    def __repr__(self) -> str:
        if not self:
            return "Polynomial([])"
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"Polynomial([{terms}])"


def _lift(value: object) -> Polynomial | None:
    """A Polynomial operand as is, a scalar as a constant, anything else None."""
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction, QFieldElement)):
        return Polynomial([value])
    return None


def fact(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of a negative integer")
    return factorial(n)
