"""Exact scalar arithmetic in the tower Q < Q(i) < Q(i)(t) < Q(i)(t)[s]/(s^2 - r).

Every value is exact: Gaussian rationals are pairs of ``fractions.Fraction``,
univariate polynomials in ``t`` are dense coefficient tuples over the Gaussian
rationals, rational functions are coprime numerator/denominator pairs with a
monic denominator, and a tower element is ``base + rad * s`` for a single
adjoined square root ``s`` with ``s^2 = radicand``.

The adjoined root is purely formal: it is never evaluated to a number, and
limits at ``t -> 0`` are accepted only when they are independent of the branch
choice (the radical part must vanish in the limit).  Orders at ``t -> 0`` live
in (1/2)Z, with ``ord(s) = ord(radicand) / 2``.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd as _int_gcd
from math import inf, isqrt


class ExactArithmeticError(ArithmeticError):
    """Base class for failures of the exact scalar kernel."""


class LimitDiverges(ExactArithmeticError):
    """The value has strictly negative order at t = 0: no finite limit."""


class BranchAmbiguous(ExactArithmeticError):
    """The limit at t = 0 depends on the branch chosen for the square root."""


class MixedRadicands(ExactArithmeticError):
    """Arithmetic attempted between elements of incompatible radical extensions."""


ORDER_INF = inf  # order of the zero element


def _fraction_sqrt(q: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class GaussianRational:
    """An element a + b*i of Q(i), with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # -- predicates ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- field operations -------------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

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
        if type(other) is GaussianRational:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def sqrt(self):
        """An exact square root inside Q(i) if one exists, else None.

        The returned root is sign-normalized: re > 0, or re == 0 and im >= 0.
        """
        a, b = self.re, self.im
        if not b:
            r = _fraction_sqrt(a)
            if r is not None:
                return GaussianRational(r)
            r = _fraction_sqrt(-a)
            if r is not None:
                return GaussianRational(0, r)
            return None
        n = _fraction_sqrt(a * a + b * b)
        if n is None:
            return None
        x2 = (a + n) / 2
        x = _fraction_sqrt(x2)
        if x is None or not x:
            return None
        y = b / (2 * x)
        root = GaussianRational(x, y)
        return root if _canonical_positive(root) else -root

    def eval_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        if not self.re:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}*i)"


def _canonical_positive(z: GaussianRational) -> bool:
    return z.re > 0 or (z.re == 0 and z.im > 0)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class Poly:
    """Dense univariate polynomial in t over the Gaussian rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [GaussianRational.coerce(c) for c in coeffs]
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
        return ORDER_INF

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
        return self + (-other)

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
        """Strip the rational content; keeps gcd chains from blowing up."""
        if self.is_zero:
            return self
        num_gcd, den_lcm = 0, 1
        for c in self.coeffs:
            for part in (c.re, c.im):
                if part:
                    num_gcd = _int_gcd(num_gcd, part.numerator)
                    den_lcm = den_lcm * part.denominator // _int_gcd(den_lcm, part.denominator)
        return self.scale(Fraction(den_lcm, num_gcd))

    def sqrt(self):
        """Exact polynomial square root, sign-normalized; None if not a square."""
        if self.is_zero:
            return POLY_ZERO
        if self.degree % 2:
            return None
        lead_root = self.lead.sqrt()
        if lead_root is None:
            return None
        half = self.degree // 2
        root = [GR_ZERO] * (half + 1)
        root[half] = lead_root
        inv2lead = (lead_root + lead_root).inverse()
        for k in range(half - 1, -1, -1):
            acc = self.coeff(k + half)
            for j in range(k + 1, half):
                acc = acc - root[j] * root[k + half - j]
            root[k] = acc * inv2lead
        candidate = Poly(root)
        if candidate * candidate == self:
            return candidate
        return None

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
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if k == 0:
                parts.append(f"{c!r}")
            elif k == 1:
                parts.append(f"{c!r}*t")
            else:
                parts.append(f"{c!r}*t^{k}")
        return " + ".join(parts)


POLY_ZERO = Poly()
POLY_ONE = Poly((GR_ONE,))
POLY_T = Poly((GR_ZERO, GR_ONE))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via a remainder sequence with content stripping each step."""
    a, b = a.primitive_part(), b.primitive_part()
    while not b.is_zero:
        a, b = b, (a % b).primitive_part()
    return a.monic()


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

    @staticmethod
    def t() -> "RationalFunction":
        return RationalFunction(POLY_T)

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
        if k < 0:
            return self.inverse() ** (-k)
        return RationalFunction(self.num ** k, self.den ** k)

    # -- order and limits ---------------------------------------------------------------

    @property
    def order(self):
        """t-adic order at 0; sums of orders cancel common powers exactly."""
        if self.is_zero:
            return ORDER_INF
        return self.num.order - self.den.order

    def limit0(self) -> GaussianRational:
        """Exact limit for t -> 0; raises LimitDiverges when the order is negative."""
        o = self.order
        if o is ORDER_INF or o > 0:
            return GR_ZERO
        if o < 0:
            raise LimitDiverges(f"order {o} at t=0: {self!r}")
        v = self.num.order
        return self.num.coeff(v) / self.den.coeff(self.den.order)

    def sqrt(self):
        """Exact square root in the rational function field, or None."""
        rn = self.num.sqrt()
        if rn is None:
            return None
        rd = self.den.sqrt()
        if rd is None:
            return None
        out = RationalFunction(rn, rd)
        lead = out.num.lead
        if not _canonical_positive(lead):
            out = -out
        return out

    def eval_complex(self, at: complex) -> complex:
        return self.num.eval_complex(at) / self.den.eval_complex(at)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Poly)):
            other = RationalFunction.coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == POLY_ONE:
            return f"{self.num!r}"
        return f"({self.num!r})/({self.den!r})"


RF_ZERO = RationalFunction(POLY_ZERO)
RF_ONE = RationalFunction(POLY_ONE)
RF_T = RationalFunction(POLY_T)


class TowerElement:
    """``base + rad * s`` with ``s^2 = radicand``; radicand absent when rad = 0.

    Construction canonicalizes: a zero radical coefficient drops the extension,
    and a perfect-square radicand collapses onto the rational-function level
    (the sign-normalized root is used, fixing the formal branch).
    """

    __slots__ = ("base", "rad", "radicand")

    def __init__(self, base, rad=RF_ZERO, radicand=None):
        base = RationalFunction.coerce(base)
        rad = RationalFunction.coerce(rad)
        if not rad.is_zero and radicand is None:
            raise ValueError("radical coefficient without a radicand")
        if radicand is not None and not rad.is_zero:
            radicand = RationalFunction.coerce(radicand)
            if radicand.is_zero:
                rad, radicand = RF_ZERO, None
            else:
                root = radicand.sqrt()
                if root is not None:
                    base, rad, radicand = base + rad * root, RF_ZERO, None
        if rad.is_zero:
            radicand = None
            rad = RF_ZERO
        self.base, self.rad, self.radicand = base, rad, radicand

    # -- construction ---------------------------------------------------------

    @staticmethod
    def coerce(value) -> "TowerElement":
        if isinstance(value, TowerElement):
            return value
        if isinstance(value, (int, Fraction, GaussianRational, Poly, RationalFunction)):
            return TowerElement(RationalFunction.coerce(value))
        raise TypeError(f"cannot interpret {value!r} as a tower element")

    @staticmethod
    def zero() -> "TowerElement":
        return TOWER_ZERO

    @staticmethod
    def one() -> "TowerElement":
        return TOWER_ONE

    @staticmethod
    def t() -> "TowerElement":
        return TOWER_T

    @staticmethod
    def sqrt_of(radicand) -> "TowerElement":
        """The formal square root of a rational function."""
        return TowerElement(RF_ZERO, RF_ONE, RationalFunction.coerce(radicand))

    # -- predicates --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.base.is_zero and self.rad.is_zero

    def __bool__(self):
        return not self.is_zero

    @property
    def has_radical(self) -> bool:
        return not self.rad.is_zero

    def _common_radicand(self, other: "TowerElement"):
        if self.radicand is None:
            return other.radicand
        if other.radicand is None:
            return self.radicand
        if self.radicand == other.radicand:
            return self.radicand
        raise MixedRadicands(
            f"incompatible radicands {self.radicand!r} and {other.radicand!r}")

    # -- field operations ------------------------------------------------------------

    def __add__(self, other):
        other = TowerElement.coerce(other)
        r = self._common_radicand(other)
        return TowerElement(self.base + other.base, self.rad + other.rad, r)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-TowerElement.coerce(other))

    def __rsub__(self, other):
        return TowerElement.coerce(other) - self

    def __neg__(self):
        return TowerElement(-self.base, -self.rad, self.radicand)

    def __mul__(self, other):
        other = TowerElement.coerce(other)
        r = self._common_radicand(other)
        a, b, c, d = self.base, self.rad, other.base, other.rad
        base = a * c
        if not b.is_zero and not d.is_zero:
            base = base + b * d * r
        return TowerElement(base, a * d + b * c, r)

    __rmul__ = __mul__

    def inverse(self) -> "TowerElement":
        # (a + b s)^-1 = (a - b s) / (a^2 - b^2 r); the denominator is nonzero
        # because the radicand is never a perfect square after normalization.
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero tower element")
        if not self.has_radical:
            return TowerElement(self.base.inverse())
        n = self.base * self.base - self.rad * self.rad * self.radicand
        return TowerElement(self.base / n, -self.rad / n, self.radicand)

    def __truediv__(self, other):
        return self * TowerElement.coerce(other).inverse()

    def __rtruediv__(self, other):
        return TowerElement.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out, base = TOWER_ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- order and limits ----------------------------------------------------------------

    def order_at_zero(self):
        """min of the part orders, where ord(s) = ord(radicand)/2.

        Caveat: when the base and radical parts share the same order, leading
        terms could cancel for one branch of s; the minimum is still reported
        (a branch-independent lower bound), and limit_at_zero refuses those
        cases as BranchAmbiguous.
        """
        if self.is_zero:
            return ORDER_INF
        base_order = self.base.order
        if not self.has_radical:
            return base_order
        rad_order = self.rad.order + Fraction(self.radicand.order, 2)
        return min(base_order, rad_order)

    def limit_at_zero(self) -> GaussianRational:
        """Branch-independent exact limit for t -> 0.

        Raises LimitDiverges for negative order and BranchAmbiguous when the
        order-0 (or dominant negative-order) part carries the radical.
        """
        if self.is_zero:
            return GR_ZERO
        if not self.has_radical:
            return self.base.limit0()
        base_order = self.base.order
        rad_order = self.rad.order + Fraction(self.radicand.order, 2)
        order = min(base_order, rad_order)
        if order > 0:
            return GR_ZERO
        if rad_order <= 0:
            raise BranchAmbiguous(
                f"radical part has order {rad_order} at t=0: {self!r}")
        return self.base.limit0()

    def eval_complex(self, at: complex) -> complex:
        """Numeric evaluation choosing the principal square-root branch."""
        out = self.base.eval_complex(at)
        if self.has_radical:
            out += self.rad.eval_complex(at) * cmath.sqrt(self.radicand.eval_complex(at))
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Poly, RationalFunction)):
            other = TowerElement.coerce(other)
        if not isinstance(other, TowerElement):
            return NotImplemented
        return (self.base == other.base and self.rad == other.rad
                and self.radicand == other.radicand)

    def __hash__(self):
        return hash((self.base, self.rad, self.radicand))

    def __repr__(self):
        if not self.has_radical:
            return repr(self.base)
        return f"{self.base!r} + sqrt({self.radicand!r})*({self.rad!r})"


TOWER_ZERO = TowerElement(RF_ZERO)
TOWER_ONE = TowerElement(RF_ONE)
TOWER_T = TowerElement(RF_T)


# Module-level entry points mirroring the kernel's public contract.

def normalize(x) -> TowerElement:
    """Re-canonicalize a tower element (constructors already canonicalize)."""
    x = TowerElement.coerce(x)
    return TowerElement(x.base, x.rad, x.radicand)


def order_at_zero(x):
    """t-adic order in (1/2)Z of a tower element or rational function."""
    if isinstance(x, RationalFunction):
        return x.order
    return TowerElement.coerce(x).order_at_zero()


def limit_at_zero(x) -> GaussianRational:
    """Exact limit at t = 0; raises LimitDiverges / BranchAmbiguous."""
    if isinstance(x, RationalFunction):
        return x.limit0()
    return TowerElement.coerce(x).limit_at_zero()
