"""Recursive-descent parser for exact expressions: the linear combinations of
algebra, witness and claims files, and the polynomial conditions of claims
files.

Grammar (ASCII only):

    expression := term {('+' | '-') term}
    term       := factor {('*' | '/')? factor}      # juxtaposition multiplies
    factor     := prefixed ['^' signed_integer]
    prefixed   := '-' prefixed | atom
    atom       := integer | 't' | 'i' | 'e_<k>' | 'c(<i>,<j>,<k>)'
                | '(' expression ')'

Precedence: unary minus binds tighter than '^', which binds tighter than
multiplication and division, which bind tighter than addition.  So ``-t^2``
is ``(-t)^2``; write ``-(t^2)`` for the negative.  ``2t e_3`` multiplies by
juxtaposition; a '-' never starts a juxtaposed factor, so ``a - b`` stays a
subtraction.

Linear combinations (parse_expression, parse_scalar) evaluate to a linear
combination of the basis vectors e_1..e_n with coefficients in Q(i)(t), the
rational functions in t; c(i,j,k) is rejected.  Constant combinations
(parse_constants) have Q(i) coefficients: 't' is rejected too.  Each '^' is
bounded before it is computed (MAX_EXPONENT and the limits beside it).  The
grammar has no roots: any other letter, 'sqrt' included, is a syntax error.

Conditions (parse_condition) are polynomials in the structure constants
c(i,j,k), 1 <= i, j, k <= n, with Q(i) coefficients: 't' and 'e_k' are
rejected, and only a nonzero constant may divide or carry a negative
exponent.  A condition is folded into its monomial normal form, the
(monomial, coefficient) pairs sorted by monomial, where a monomial is the
sorted tuple of its 0-based (i, j, k) factors.

The printer emits a canonical fully-parenthesized form with explicit '*', so
parse -> print -> parse is a fixed point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .algebra import GAUSSIAN_FIELD, TOWER_FIELD
from .scalars import (GR_ONE, GR_ZERO, POLY_ONE, RF_ONE, RF_T,
                      GaussianRational, Poly, RationalFunction)


class ExpressionSyntaxError(ValueError):
    """Malformed expression; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonlinearExpressionError(ValueError):
    """Products or powers of basis vectors are not valid linear combinations;
    in a condition, division by an expression in the c(i,j,k) is not valid."""


_TOKEN_OPS = set("+-*/^(),")


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("int", int(text[start:pos]), start))
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        if ch == "e" and pos + 1 < n and text[pos + 1] == "_":
            start = pos
            pos += 2
            digits = ""
            while pos < n and text[pos].isdigit():
                digits += text[pos]
                pos += 1
            if not digits:
                raise ExpressionSyntaxError("basis vector needs an index", start)
            tokens.append(("basis", int(digits), start))
            continue
        if ch in "tic":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, n))
    return tokens


# Limits on one '^', checked at its position before the power is computed;
# the shipped data use exponents of at most 7.
MAX_EXPONENT = 64
MAX_T_DEGREE = 128        # in t, of each numerator and denominator
MAX_C_MONOMIALS = 10_000  # monomials of the result's total degree in the c(i,j,k)
MAX_COEFF_BITS = 1024


def _refuse_large_power(k, pos, coeffs, size, limit, what):
    """Raise unless |k| <= MAX_EXPONENT, size(|k|) <= limit and the result's
    coefficients stay within about MAX_COEFF_BITS bits: |k| times (the largest
    bit length among the base's Q(i) coefficients + that of their count)."""
    k = abs(k)
    if k > MAX_EXPONENT:
        raise ExpressionSyntaxError(f"exponent {k} exceeds {MAX_EXPONENT}", pos)
    if size(k) > limit:
        raise ExpressionSyntaxError(f"power of {what} {size(k)} exceeds {limit}", pos)
    bits = max((n.bit_length() for z in coeffs for q in (z.re, z.im)
                for n in (q.numerator, q.denominator)), default=0)
    if k * (bits + len(coeffs).bit_length()) > MAX_COEFF_BITS:
        raise ExpressionSyntaxError(
            f"power with coefficients over {MAX_COEFF_BITS} bits", pos)


class _Linear:
    """A scalar plus a linear combination of basis vectors over ``field``."""

    __slots__ = ("scalar", "vector")

    context, excluded, field = "a linear combination", {"c"}, TOWER_FIELD

    def __init__(self, scalar, vector):
        self.scalar = scalar
        self.vector = vector

    @classmethod
    def constant(cls, value, dim):
        return cls(cls.field.coerce(value), [cls.field.zero] * dim)

    @classmethod
    def basis(cls, index, dim):
        zero, one = cls.field.zero, cls.field.one
        return cls(zero, [one if k == index else zero for k in range(dim)])

    @property
    def is_scalar(self):
        return all(c.is_zero for c in self.vector)

    def __add__(self, other):
        return type(self)(self.scalar + other.scalar,
                          [a + b for a, b in zip(self.vector, other.vector)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return type(self)(-self.scalar, [-c for c in self.vector])

    def times(self, other, pos):
        if self.is_scalar:
            self, other = other, self
        if not other.is_scalar:
            raise NonlinearExpressionError(
                f"product of two basis-vector expressions (position {pos})")
        s = other.scalar
        return type(self)(self.scalar * s, [c * s for c in self.vector])

    def over(self, other, pos):
        if not other.is_scalar:
            raise NonlinearExpressionError("division by a basis-vector expression")
        if other.scalar.is_zero:
            raise ZeroDivisionError(f"division by zero at position {pos}")
        inv = other.scalar.inverse()
        return type(self)(self.scalar * inv, [c * inv for c in self.vector])

    def power(self, exponent, pos):
        if not self.is_scalar:
            raise NonlinearExpressionError(
                f"power of a basis-vector expression (position {pos})")
        degree, coeffs = self._size()
        _refuse_large_power(exponent, pos, coeffs, lambda k: k * degree,
                            MAX_T_DEGREE, "degree")
        return self.constant(self.scalar ** exponent, len(self.vector))

    def _size(self):
        """Degree in t and Q(i) coefficients of the scalar."""
        num, den = self.scalar.num, self.scalar.den
        return max(num.degree, den.degree), num.coeffs + den.coeffs


class _Constants(_Linear):
    """A linear combination with Q(i) coefficients: no 't'."""

    __slots__ = ()

    context, excluded = "a constant linear combination", {"t", "c"}
    field = GAUSSIAN_FIELD

    def _size(self):
        return 0, [self.scalar]


def _accumulate(terms, monomial, coeff):
    total = terms.get(monomial, GR_ZERO) + coeff
    if total:
        terms[monomial] = total
    else:
        terms.pop(monomial, None)


class _Polynomial:
    """A polynomial in the structure constants with Q(i) coefficients:
    {sorted tuple of 0-based (i, j, k) factors: nonzero coefficient}."""

    __slots__ = ("terms",)

    context, excluded = "a condition", {"t", "basis"}

    def __init__(self, terms):
        self.terms = terms

    @classmethod
    def constant(cls, value, dim):
        value = GaussianRational.coerce(value)
        return cls({(): value} if value else {})

    def __add__(self, other):
        out = dict(self.terms)
        for monomial, coeff in other.terms.items():
            _accumulate(out, monomial, coeff)
        return _Polynomial(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _Polynomial({m: -c for m, c in self.terms.items()})

    def times(self, other, pos):
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                _accumulate(out, tuple(sorted(ma + mb)), ca * cb)
        return _Polynomial(out)

    def over(self, other, pos):
        if any(other.terms):
            raise NonlinearExpressionError(
                f"division by an expression in the c(i,j,k) (position {pos})")
        if not other.terms:
            raise ZeroDivisionError(f"division by zero at position {pos}")
        inv = other.terms[()].inverse()
        return _Polynomial({m: c * inv for m, c in self.terms.items()})

    def power(self, exponent, pos):
        degree = max(map(len, self.terms), default=0)
        variables = len({c for monomial in self.terms for c in monomial})
        _refuse_large_power(exponent, pos, list(self.terms.values()),
                            lambda k: comb(variables + k * degree, variables),
                            MAX_C_MONOMIALS, "monomial count")
        one = _Polynomial({(): GR_ONE})
        base = self if exponent >= 0 else one.over(self, pos)
        out = one
        for _ in range(abs(exponent)):
            out = out.times(base, pos)
        return out


class _Parser:
    def __init__(self, text, dim, values=_Linear):
        self.dim = dim
        self.values = values
        self.tokens = _tokenize(text)
        self.idx = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def index(self, name):
        """A 1-based index in 1..dim, returned 0-based."""
        kind, value, pos = self.advance()
        if kind != "int":
            raise ExpressionSyntaxError(f"{name} needs an integer index", pos)
        if not 1 <= value <= self.dim:
            raise ExpressionSyntaxError(
                f"{name} index {value} out of range 1..{self.dim}", pos)
        return value - 1

    # -- grammar ----------------------------------------------------------------

    def parse(self):
        out = self.expression()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError("trailing input", pos)
        return out

    def expression(self):
        out = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                out = out + rhs if value == "+" else out - rhs
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                out = out.times(rhs, pos) if value == "*" else out.over(rhs, pos)
            elif kind in ("int", "t", "i", "c", "basis") or \
                    (kind == "op" and value == "("):
                out = out.times(self.factor(), pos)
            else:
                return out

    def factor(self):
        out = self.prefixed()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return out.power(self._signed_exponent(), pos)
        return out

    def _signed_exponent(self) -> int:
        kind, value, pos = self.peek()
        sign = 1
        if kind == "op" and value == "-":
            sign = -1
            self.advance()
            kind, value, pos = self.peek()
        if kind != "int":
            raise ExpressionSyntaxError("expected an integer exponent", pos)
        self.advance()
        return sign * value

    def prefixed(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.prefixed()
        return self.atom()

    def atom(self):
        kind, value, pos = self.advance()
        if kind in self.values.excluded:
            raise ExpressionSyntaxError(
                f"{kind!r} is not allowed in {self.values.context}", pos)
        if kind == "int":
            return self.values.constant(value, self.dim)
        if kind == "t":
            return self.values.constant(RF_T, self.dim)
        if kind == "i":
            return self.values.constant(GaussianRational(0, 1), self.dim)
        if kind == "basis":
            if not 1 <= value <= self.dim:
                raise ExpressionSyntaxError(
                    f"basis index e_{value} out of range 1..{self.dim}", pos)
            return self.values.basis(value - 1, self.dim)
        if kind == "c":
            self.expect_op("(")
            ijk = []
            for closing in ",,)":
                ijk.append(self.index("c(i,j,k)"))
                self.expect_op(closing)
            return _Polynomial({(tuple(ijk),): GR_ONE})
        if kind == "op" and value == "(":
            inner = self.expression()
            self.expect_op(")")
            return inner
        raise ExpressionSyntaxError("expected a value", pos)


def _vector(out):
    if not out.scalar.is_zero:
        raise NonlinearExpressionError(
            f"constant term {out.scalar!r} without a basis vector")
    return list(out.vector)


def parse_expression(text, dim=5):
    """Parse a linear combination; returns a list of dim RationalFunctions.

    A pure-scalar expression is accepted only when it is zero (the zero
    vector); any other constant term is an error.
    """
    return _vector(_Parser(text, dim).parse())


def parse_constants(text, dim=5):
    """Parse a linear combination with Q(i) coefficients; returns a list of
    dim GaussianRationals.  Same rules as parse_expression, but 't' is
    rejected."""
    return _vector(_Parser(text, dim, _Constants).parse())


def parse_scalar(text):
    """Parse a pure scalar expression into a RationalFunction."""
    out = _Parser(text, 1).parse()
    if not out.is_scalar:
        raise NonlinearExpressionError("expected a scalar expression")
    return out.scalar


def parse_condition(text, dim=5):
    """Parse a polynomial in the c(i,j,k) into its monomial normal form."""
    terms = _Parser(text, dim, _Polynomial).parse().terms
    return tuple(sorted(terms.items(), key=lambda item: item[0]))


# -- canonical printer ---------------------------------------------------------
#
# The printer emits expressions the grammar above re-parses to the same value,
# with explicit '*' between factors.  A trailing pass rewrites ' + -' into
# ' - ', which is semantically identical under the grammar.


def format_fraction(q: Fraction) -> str:
    return str(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_gaussian(z: GaussianRational) -> str:
    """A Gaussian rational as a single multiplicative factor."""
    if not z.im:
        return format_fraction(z.re)
    if z.im == 1:
        im = "i"
    elif z.im == -1:
        im = "-i"
    else:
        im = f"{format_fraction(z.im)}*i"
    if not z.re:
        return im
    return f"({format_fraction(z.re)} + {im})"


def format_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c.is_zero:
            continue
        power = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if not power:
            parts.append(format_gaussian(c))
        elif c == GaussianRational(1):
            parts.append(power)
        else:
            parts.append(f"{format_gaussian(c)}*{power}")
    return " + ".join(parts)


def format_rational_function(f: RationalFunction) -> str:
    """A rational function as one parenthesizable expression."""
    if f.den == POLY_ONE:
        return format_poly(f.num)
    return f"({format_poly(f.num)})/({format_poly(f.den)})"


def format_vector(coeffs) -> str:
    """Canonical printed form of a coefficient vector; '0' for the zero vector."""
    terms = []
    for k, c in enumerate(coeffs):
        c = RationalFunction.coerce(c)
        if c.is_zero:
            continue
        if c == RF_ONE:
            terms.append(f"e_{k + 1}")
        else:
            terms.append(f"({format_rational_function(c)}) * e_{k + 1}")
    text = " + ".join(terms) if terms else "0"
    return text.replace(" + -", " - ")
