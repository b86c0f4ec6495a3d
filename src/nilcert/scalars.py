"""Exact scalar arithmetic in the tower Q < Q(i) < Q(i)(t).

Every value is exact.  A Gaussian rational is three ints (a + b i)/d with
d > 0 and gcd(a, b, d) = 1, so each value has one representation: a sum or
product is a few integer products and one gcd, and ``re`` and ``im`` are
read back as ``fractions.Fraction``.  Univariate polynomials in ``t`` are
dense coefficient tuples over the Gaussian rationals, and rational functions
are coprime numerator/denominator pairs with a monic denominator.  The gcd is
taken only when both have positive degree: a nonzero constant is coprime to
every polynomial.  A parametric witness has its entries in Q(i)(t); the
limit at ``t -> 0`` of a quotient of polynomials takes no gcd.

A value's repr, the one printer of exact values for files and reports, is
its form in the grammar of ``parser``: ``(1/2 + -3*i)``, ``t + -i*t^2``.
"""

from __future__ import annotations

from fractions import Fraction
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
    """Dense univariate polynomial in t over the Gaussian rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is GaussianRational else GaussianRational.coerce(c)
              for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly((GaussianRational.coerce(c),))

    # -- basic structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def order(self):
        """t-adic valuation: index of the lowest nonzero coefficient (inf for 0)."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero:
                return k
        return inf

    @property
    def lead(self) -> GaussianRational:
        if self.is_zero:
            return GR_ZERO
        return self.coeffs[-1]

    def coeff(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GR_ZERO

    @property
    def is_monic(self) -> bool:
        return self.lead == GR_ONE

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __sub__(self, other):
        out = list(self.coeffs) + [GR_ZERO] * (len(other.coeffs) - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            out[k] = out[k] - c
        return Poly(out)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            other = Poly.const(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return POLY_ZERO
        out = [GR_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero:
                continue
            for j, cb in enumerate(b):
                if not cb.is_zero:
                    out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = GaussianRational.coerce(c)
        return Poly(tuple(x * c for x in self.coeffs))

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
        """Exact long division by a nonzero polynomial (field coefficients)."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return POLY_ZERO, self
        quo = [GR_ZERO] * (dq + 1)
        lead_inv = other.lead.inverse()
        ob = other.coeffs
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
        """Strip the rational content; keeps gcd chains from blowing up.

        With L the lcm of the denominators and G the gcd of the numerators
        scaled by L, the coefficients times L/G are coprime Gaussian integers."""
        if self.is_zero:
            return self
        cs = self.coeffs
        den = lcm(*(c.d for c in cs))
        g = _int_gcd(*(x * (den // c.d) for c in cs for x in (c.a, c.b)))
        return Poly(tuple(_exact(c.a * (den // c.d) // g, c.b * (den // c.d) // g, 1)
                          for c in cs))

    # -- evaluation -------------------------------------------------------------------

    def eval_complex(self, at: complex) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * at + c.eval_complex()
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        """A constant hashes as its coefficient, which it equals."""
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(self.lead)

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
