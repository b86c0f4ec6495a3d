"""Exact scalar arithmetic in the tower Q < Q(i) < Q(i)(t).

Every value is exact.  A Gaussian rational is three ints (a + b i)/d with
d > 0 and gcd(a, b, d) = 1, so each value has one representation: a sum or
product is a few integer products and one gcd, and ``re`` and ``im`` are
read back as ``fractions.Fraction``.  A univariate polynomial in ``t`` is
held the same way, as Gaussian-integer coefficient lists over one int
denominator with no common factor: a sum or product is formed on the int
lists and takes one content gcd, none over the denominator 1.  Rational
functions are coprime numerator/denominator pairs with a monic denominator.
The gcd of the two is taken only when both have positive degree: a nonzero
constant is coprime to every polynomial.  A parametric witness has its
entries in Q(i)(t); the limit at ``t -> 0`` of a quotient of polynomials
takes no gcd.

A value's repr, the one printer of exact values for files and reports, is
its form in the grammar of ``parser``: ``(1/2 + -3*i)``, ``t + -i*t^2``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd as _int_gcd
from math import inf, lcm


class GaussianRational:
    """An element (a + b*i)/d of Q(i), held as three ints with d > 0 and
    gcd(a, b, d) = 1, so that each value has one representation."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re = re if isinstance(re, (int, Fraction)) else Fraction(re)
        im = im if isinstance(im, (int, Fraction)) else Fraction(im)
        # the lcm of the two reduced denominators leaves gcd(a, b, d) = 1
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return _exact(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self):
        return bool(self.a or self.b)

    # -- field operations -------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        return _sum(self, other.a, other.b, other.d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        return _sum(self, -other.a, -other.b, other.d)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return _exact(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return gaussian(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self.a, self.b, self.d
        if not a and not b:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return gaussian(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        # (a + b i)/d / ((c + e i)/f) = f (a + b i)(c - e i) / (d (c^2 + e^2))
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        if not c and not e:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return gaussian(f * (a * c + b * e), f * (b * c - a * e),
                        self.d * (c * c + e * e))

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out, base = GR_ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ---------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return (not self.b and self.a == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self):
        """A real value hashes as the equal int or Fraction."""
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

    def eval_complex(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        """One factor of the grammar: ``2/3``, ``i``, ``-1/2*i``, ``(1 + -i)``."""
        a, b, d = self.a, self.b, self.d
        if not b:
            return _ratio(a, d)
        im = "i" if b == d else "-i" if b == -d else f"{_ratio(b, d)}*i"
        return f"({_ratio(a, d)} + {im})" if a else im


def _ratio(n, d):
    """n/d for d > 0 in lowest terms, as str(Fraction(n, d)) prints it."""
    g = _int_gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _exact(a, b, d):
    """(a + b i)/d for ints already normalized: d > 0, gcd(a, b, d) = 1."""
    out = object.__new__(GaussianRational)
    out.a, out.b, out.d = a, b, d
    return out


def gaussian(a, b, d):
    """(a + b i)/d for ints with d != 0, normalized by one gcd."""
    g = _int_gcd(d, a, b)  # d first: often small, it makes the rest cheap
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _exact(a, b, d)


def _sum(x, c, f, e):
    """x + (c + f i)/e.  For x = (a + b i)/d and g = gcd(d, e), a prime that
    divides the numerator of the sum and its denominator divides g, so the
    one further gcd is taken with g (Knuth's rule for fractions), and none
    when g = 1."""
    a, b, d = x.a, x.b, x.d
    if d == e:
        return gaussian(a + c, b + f, d)
    g = _int_gcd(d, e)
    if g == 1:
        return _exact(a * e + c * d, b * e + f * d, d * e)
    d, e = d // g, e // g
    a, b = a * e + c * d, b * e + f * d
    h = _int_gcd(g, a, b)
    return _exact(a // h, b // h, d * e * (g // h))


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class Poly:
    """A polynomial in t over Q(i), held as (re + im i)/d: re and im are the
    int coefficient lists of the real and imaginary parts of a Gaussian-integer
    numerator, lowest power first, each without trailing zeros, and d > 0 is
    an int with gcd(d, *re, *im) = 1, so that each value has one
    representation.  The lists are never changed once built.  A sum or
    product is formed on the int lists and divided by one content gcd, none
    when the denominator is 1; ``coeffs`` reads the coefficients back as
    reduced Gaussian rationals."""

    __slots__ = ("re", "im", "d")

    def __new__(cls, coeffs=()):
        cs = [c if type(c) is GaussianRational else GaussianRational.coerce(c)
              for c in coeffs]
        d = lcm(*(c.d for c in cs))
        return _poly([c.a * (d // c.d) for c in cs], [c.b * (d // c.d) for c in cs], d)

    @staticmethod
    def const(c) -> "Poly":
        c = GaussianRational.coerce(c)
        return _poly([c.a], [c.b], c.d)

    # -- basic structure -----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Gaussian rationals, lowest power first."""
        d = self.d
        return tuple(gaussian(a, b, d)
                     for a, b in zip_longest(self.re, self.im, fillvalue=0))

    @property
    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        n, m = len(self.re), len(self.im)
        return (n if n > m else m) - 1

    @property
    def order(self):
        """t-adic valuation: index of the lowest nonzero coefficient (inf for 0)."""
        for k, (a, b) in enumerate(zip_longest(self.re, self.im, fillvalue=0)):
            if a or b:
                return k
        return inf

    @property
    def lead(self) -> GaussianRational:
        return self.coeff(self.degree)

    def coeff(self, k: int) -> GaussianRational:
        re, im = self.re, self.im
        return gaussian(re[k] if 0 <= k < len(re) else 0,
                        im[k] if 0 <= k < len(im) else 0, self.d)

    @property
    def is_monic(self) -> bool:
        return len(self.re) > len(self.im) and self.re[-1] == self.d

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        d = lcm(self.d, other.d)
        s, o = d // self.d, d // other.d
        return _poly(_plus(self.re, other.re, s, o), _plus(self.im, other.im, s, o), d)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _poly([-x for x in self.re], [-x for x in self.im], self.d)

    def __mul__(self, other):
        if type(other) is int:
            return _poly([other * x for x in self.re], [other * x for x in self.im], self.d)
        if not isinstance(other, Poly):
            other = Poly.const(other)
        a, b, c, e = self.re, self.im, other.re, other.im
        re, im = _convolve(a, c), _convolve(a, e)
        if b:
            re, im = _plus(re, _convolve(b, e), 1, -1), _plus(im, _convolve(b, c))
        return _poly(re, im, self.d * other.d)

    def __truediv__(self, k: int):
        """This over a nonzero int."""
        return -self / -k if k < 0 else _poly(self.re, self.im, self.d * k)

    def scale(self, c) -> "Poly":
        return self * c

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out, base = POLY_ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other):
        """Exact long division by a nonzero polynomial, on the reduced
        coefficients (field coefficients)."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, ob = list(self.coeffs), other.coeffs
        dq = len(rem) - len(ob)
        if dq < 0:
            return POLY_ZERO, self
        quo = [GR_ZERO] * (dq + 1)
        lead_inv = ob[-1].inverse()
        for k in range(dq, -1, -1):
            c = rem[k + len(ob) - 1] * lead_inv
            if c.is_zero:
                continue
            quo[k] = c
            for j, oc in enumerate(ob):
                rem[k + j] = rem[k + j] - c * oc
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    # -- normal forms --------------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.lead.inverse())

    def primitive_part(self) -> "Poly":
        """Strip the rational content; keeps gcd chains from blowing up: the
        numerator divided by the gcd of its coefficients, over 1."""
        if self.is_zero:
            return self
        g = _int_gcd(*self.re, *self.im)
        return _poly([x // g for x in self.re], [x // g for x in self.im], 1)

    # -- evaluation -------------------------------------------------------------------

    def eval_complex(self, at: complex) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * at + c.eval_complex()
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.d == other.d and self.re == other.re and self.im == other.im

    def __hash__(self):
        """A constant hashes as its coefficient, which it equals."""
        re, im = self.re, self.im
        if len(re) > 1 or len(im) > 1:
            return hash((tuple(re), tuple(im), self.d))
        return hash(_exact(re[0] if re else 0, im[0] if im else 0, self.d))

    def __repr__(self):
        """A sum of terms ``c*t^k``, lowest power first: ``1 + t + -i*t^2``."""
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(repr(c))
                continue
            power = "t" if k == 1 else f"t^{k}"
            parts.append(power if c == GR_ONE else f"{c!r}*{power}")
        return " + ".join(parts) or "0"


def _poly(re, im, d):
    """(re + im i)/d for int lists, which become the result's, and an int
    d > 0: trailing zeros dropped and one content gcd divided out, none when
    d = 1."""
    while re and not re[-1]:
        re.pop()
    while im and not im[-1]:
        im.pop()
    if d != 1:
        g = _int_gcd(d, *re, *im)  # d first: often small, it makes the rest cheap
        if g != 1:
            re, im, d = [x // g for x in re], [x // g for x in im], d // g
    out = object.__new__(Poly)
    out.re, out.im, out.d = re, im, d
    return out


def _plus(p, q, s=1, o=1):
    """s p + o q for int lists, the shorter padded with zeros."""
    if s == o == 1:
        return [a + b for a, b in zip_longest(p, q, fillvalue=0)]
    return [s * a + o * b for a, b in zip_longest(p, q, fillvalue=0)]


def _convolve(a, b):
    """The product of two int coefficient lists, by the schoolbook rule."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for start, x in enumerate(a):
        if x:
            for k, y in enumerate(b, start):
                out[k] += x * y
    return out


POLY_ZERO = Poly()
POLY_ONE = Poly((GR_ONE,))
POLY_T = Poly((GR_ZERO, GR_ONE))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via a remainder sequence with content stripping each step."""
    a, b = a.primitive_part(), b.primitive_part()
    while not b.is_zero:
        a, b = b, (a % b).primitive_part()
    return a.monic()


def limit_at_zero(num: Poly, den: Poly):
    """Exact limit of num/den at t -> 0 for den != 0, or None at a pole: 0
    when num has the higher t-order, else the ratio of the lowest
    coefficients.  num and den need not be coprime."""
    order = num.order - den.order
    if order > 0:
        return GR_ZERO
    if order < 0:
        return None
    return num.coeff(num.order) / den.coeff(den.order)


class RationalFunction:
    """A quotient of polynomials in t, kept coprime with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=POLY_ONE):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = POLY_ZERO, POLY_ONE
            return
        if num.degree > 0 and den.degree > 0:  # else the gcd is 1
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        if not den.is_monic:
            inv = den.lead.inverse()
            num, den = num.scale(inv), den.scale(inv)
        self.num, self.den = num, den

    # -- construction -----------------------------------------------------------

    @staticmethod
    def coerce(value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, Poly):
            return RationalFunction(value)
        if isinstance(value, (int, Fraction, GaussianRational)):
            return RationalFunction(Poly.const(value))
        raise TypeError(f"cannot interpret {value!r} as a rational function")

    # -- predicates ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    # -- field operations -----------------------------------------------------------

    def __add__(self, other):
        other = RationalFunction.coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other):
        return RationalFunction.coerce(other) - self

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num, out.den = -self.num, self.den
        return out

    def __mul__(self, other):
        other = RationalFunction.coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        return self * RationalFunction.coerce(other).inverse()

    def __rtruediv__(self, other):
        return RationalFunction.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        """num^k / den^k, with no gcd: powers of coprime polynomials stay
        coprime and a power of a monic denominator stays monic."""
        if k < 0:
            return self.inverse() ** (-k)
        out = RationalFunction.__new__(RationalFunction)
        out.num, out.den = self.num ** k, self.den ** k
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Poly)):
            other = RationalFunction.coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        """Over the denominator 1, the hash of the numerator: a constant
        hashes as the int, Fraction or GaussianRational it equals."""
        if self.den == POLY_ONE:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == POLY_ONE:
            return f"{self.num!r}"
        return f"({self.num!r})/({self.den!r})"


RF_ZERO = RationalFunction(POLY_ZERO)
RF_ONE = RationalFunction(POLY_ONE)
RF_T = RationalFunction(POLY_T)
