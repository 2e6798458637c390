"""Exact arithmetic carriers.

Everything downstream of the functional-equation pipeline runs over the
quadratic number field generated by a primitive sixth root of unity ``q``,
the root of ``x^2 = x - 1``.  Scalars (``QFieldElement``) are stored as
``a + b*q`` with ``a, b`` rational ``Fraction``s; they are the reference
path for single values.  Polynomials keep their coefficients as integer
numerators over one common positive denominator, so a product or a
division step is integer arithmetic with one gcd reduction per result.
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
    # Operands other than scalars give NotImplemented, so that a
    # Polynomial on the right gets its reflected method.

    def __add__(self, other: Scalar) -> "QFieldElement":
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
        o = QFieldElement.coerce(other)
        return QFieldElement(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "QFieldElement":
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
        o = QFieldElement.coerce(other)
        return QFieldElement(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: Scalar) -> "QFieldElement":
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
        o = QFieldElement.coerce(other)
        return QFieldElement(o.a - self.a, o.b - self.b)

    def __neg__(self) -> "QFieldElement":
        return QFieldElement(-self.a, -self.b)

    def __mul__(self, other: Scalar) -> "QFieldElement":
        if not isinstance(other, (QFieldElement, int, Fraction)):
            return NotImplemented
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
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        # a rational element equals, so hashes as, its Fraction
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

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


def _split(value: Scalar) -> tuple[int, int, int]:
    """Integers (a, b, d), d > 0, with value = (a + b*q) / d."""
    if isinstance(value, int):
        return value, 0, 1
    e = QFieldElement.coerce(value)
    d = lcm(e.a.denominator, e.b.denominator)
    return (e.a.numerator * (d // e.a.denominator),
            e.b.numerator * (d // e.b.denominator), d)


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
    and the degree compare ints.  Every operation works on the numerators
    and reduces once per result.  The constructor accepts ints, Fractions
    and field elements; ``coeffs`` reads the coefficients back as
    QFieldElements.

    >>> x = Polynomial.x()
    >>> ((1 + x) ** 2)(Fraction(1, 2))
    QFieldElement(9/4, 0)
    >>> (x ** 2 - 1).exact_div(x - 1) == x + 1
    True
    """

    __slots__ = ("_a", "_b", "_den")

    def __init__(self, coeffs: Iterable[Scalar]):
        parts = [_split(c) for c in coeffs]
        den = lcm(*(d for _, _, d in parts))
        self._set([a * (den // d) for a, _, d in parts],
                  [b * (den // d) for _, b, d in parts], den)

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
        return tuple(QFieldElement(Fraction(a, d), Fraction(b, d))
                     for a, b in zip(self._a, self._b))

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
        """Horner evaluation on the numerators, homogenised in the
        denominator of x, with one field element built at the end."""
        p, r, s = _split(x)
        acc_a = acc_b = 0
        s_pow = 1
        for ca, cb in zip(reversed(self._a), reversed(self._b)):
            acc_a, acc_b = (acc_a * p - acc_b * r + ca * s_pow,
                            acc_a * r + acc_b * (p + r) + cb * s_pow)
            s_pow *= s
        den = self._den * s ** max(self.degree, 0)
        return QFieldElement(Fraction(acc_a, den), Fraction(acc_b, den))

    def derivative(self, order: int = 1) -> "Polynomial":
        """The order-th derivative in one pass: x^k -> k!/(k-order)! x^(k-order)."""
        scale = [perm(k, order) for k in range(order, len(self._a))]
        return Polynomial._from_ints([c * m for c, m in zip(self._a[order:], scale)],
                                     [c * m for c, m in zip(self._b[order:], scale)],
                                     self._den)

    def scale_argument(self, c: Scalar) -> "Polynomial":
        """Return p(c*x).

        With c = (p + r q)/s, x^k picks up (p + r q)^k s^(deg-k) over a
        common s^deg.  For a power of q, s = 1 and the (p + r q)^k are
        units of Z[q], so every factor stays in {-1, 0, 1}.
        """
        p, r, s = _split(c)
        deg = self.degree
        powers, u, v = [], 1, 0
        for k in range(deg + 1):
            powers.append((u * s ** (deg - k), v * s ** (deg - k)))
            u, v = u * p - v * r, u * r + v * (p + r)
        a = [ca * u - cb * v for ca, cb, (u, v) in zip(self._a, self._b, powers)]
        b = [ca * v + cb * (u + v) for ca, cb, (u, v) in zip(self._a, self._b, powers)]
        return Polynomial._from_ints(a, b, self._den * s ** max(deg, 0))

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
        """Quotient and remainder, on integer numerators for every divisor.

        The divisor is made monic once, as m(x)/E with integer numerators
        m whose leading entry is E.  Each step that clears a leading
        numerator c scales the running remainder and quotient numerators
        by E, subtracts c x^k m(x) from the remainder and records c x^k in
        the quotient.  After s such steps, with den the denominator of
        self, E^s self = (quot/den) m + rem/den, reduced at the end.
        """
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        dq = self.degree - other.degree
        if dq < 0:
            return Polynomial([]), self
        # the leading coefficient is (u + v q)/den, and
        # 1/(u + v q) = (u + v - v q) / (u^2 + u v + v^2)
        u, v, den = other._a[-1], other._b[-1], other._den
        inv_lead = Polynomial._from_ints([(u + v) * den], [-v * den], u * u + u * v + v * v)
        monic = other * inv_lead
        ma, mb, big_e = monic._a, monic._b, monic._den
        top = len(ma) - 1
        ra, rb = list(self._a), list(self._b)
        qa, qb = [0] * (dq + 1), [0] * (dq + 1)
        steps = 0
        for k in range(dq, -1, -1):
            ca, cb = ra[k + top], rb[k + top]
            if not ca and not cb:
                continue
            if big_e != 1:
                ra = [c * big_e for c in ra]
                rb = [c * big_e for c in rb]
                qa = [c * big_e for c in qa]
                qb = [c * big_e for c in qb]
            steps += 1
            qa[k], qb[k] = ca, cb
            for j in range(top + 1):
                xa, xb = ma[j], mb[j]
                ra[k + j] -= ca * xa - cb * xb
                rb[k + j] -= ca * xb + cb * (xa + xb)
        scale = self._den * big_e ** steps
        quot = Polynomial._from_ints(qa, qb, scale)
        # m = E * monic and monic = other * inv_lead
        return quot * inv_lead * big_e, Polynomial._from_ints(ra[:top], rb[:top], scale)

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
