"""Recursive-descent parser for exact expressions: the linear combinations of
algebra, witness and claims files, and the polynomial conditions of claims
files.

Grammar (ASCII only):

    expression := term {('+' | '-') term}
    term       := factor {('*' | '/')? factor}      # juxtaposition multiplies
    factor     := prefixed ['^' signed_integer]
    prefixed   := '-' prefixed | atom
    atom       := integer | 't' | 'i' | 'e_<k>' | 'c(<i>,<j>,<k>)'
                | 'sqrt' '(' expression ')' | '(' expression ')'

Precedence: unary minus binds tighter than '^', which binds tighter than
multiplication and division, which bind tighter than addition.  So ``-t^2``
is ``(-t)^2``; write ``-(t^2)`` for the negative.  ``2t e_3`` multiplies by
juxtaposition; a '-' never starts a juxtaposed factor, so ``a - b`` stays a
subtraction.

Linear combinations (parse_expression, parse_scalar) evaluate to a linear
combination of the basis vectors e_1..e_n with tower-element coefficients;
at most one distinct radicand may occur, and c(i,j,k) is rejected.

Conditions (parse_condition) are polynomials in the structure constants
c(i,j,k), 1 <= i, j, k <= n, with Q(i) coefficients: 't', 'sqrt' and 'e_k'
are rejected, and only a nonzero constant may divide or carry a negative
exponent.  A condition is folded into its monomial normal form, the
(monomial, coefficient) pairs sorted by monomial, where a monomial is the
sorted tuple of its 0-based (i, j, k) factors.

The printer emits a canonical fully-parenthesized form with explicit '*', so
parse -> print -> parse is a fixed point.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (GR_ONE, GR_ZERO, POLY_ONE, TOWER_ONE, TOWER_ZERO,
                      GaussianRational, MixedRadicands, Poly, RationalFunction,
                      TowerElement)


class ExpressionSyntaxError(ValueError):
    """Malformed expression; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MultipleRadicalsError(ValueError):
    """More than one distinct radicand in a single expression or file."""


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
        if text.startswith("sqrt", pos):
            tokens.append(("sqrt", "sqrt", pos))
            pos += 4
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


class _Linear:
    """A scalar plus a linear combination of basis vectors."""

    __slots__ = ("scalar", "vector")

    context, excluded = "a linear combination", {"c"}

    def __init__(self, scalar, vector):
        self.scalar = scalar
        self.vector = vector

    @classmethod
    def constant(cls, value, dim):
        return cls(TowerElement.coerce(value), [TOWER_ZERO] * dim)

    @property
    def is_scalar(self):
        return all(c.is_zero for c in self.vector)

    def __add__(self, other):
        return _Linear(self.scalar + other.scalar,
                       [a + b for a, b in zip(self.vector, other.vector)])

    def __sub__(self, other):
        return _Linear(self.scalar - other.scalar,
                       [a - b for a, b in zip(self.vector, other.vector)])

    def __neg__(self):
        return _Linear(-self.scalar, [-c for c in self.vector])

    def times(self, other, pos):
        if self.is_scalar:
            s = self.scalar
            return _Linear(s * other.scalar, [s * c for c in other.vector])
        if other.is_scalar:
            s = other.scalar
            return _Linear(self.scalar * s, [c * s for c in self.vector])
        raise NonlinearExpressionError(
            f"product of two basis-vector expressions (position {pos})")

    def over(self, other, pos):
        if not other.is_scalar:
            raise NonlinearExpressionError("division by a basis-vector expression")
        if other.scalar.is_zero:
            raise ZeroDivisionError(f"division by zero at position {pos}")
        inv = other.scalar.inverse()
        return _Linear(self.scalar * inv, [c * inv for c in self.vector])

    def power(self, exponent, pos):
        if not self.is_scalar:
            raise NonlinearExpressionError(
                f"power of a basis-vector expression (position {pos})")
        return _Linear.constant(self.scalar ** exponent, len(self.vector))


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

    context, excluded = "a condition", {"t", "sqrt", "basis"}

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
        one = _Polynomial({(): GR_ONE})
        base = self if exponent >= 0 else one.over(self, pos)
        out = one
        for _ in range(abs(exponent)):
            out = out.times(base, pos)
        return out


class _Parser:
    def __init__(self, text, dim, values=_Linear):
        self.text = text
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
            elif kind in ("int", "t", "i", "c", "basis", "sqrt") or \
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
            return _Linear.constant(TowerElement.t(), self.dim)
        if kind == "i":
            return self.values.constant(GaussianRational(0, 1), self.dim)
        if kind == "basis":
            if not 1 <= value <= self.dim:
                raise ExpressionSyntaxError(
                    f"basis index e_{value} out of range 1..{self.dim}", pos)
            vector = [TOWER_ZERO] * self.dim
            vector[value - 1] = TOWER_ONE
            return _Linear(TOWER_ZERO, vector)
        if kind == "c":
            self.expect_op("(")
            i = self.index("c(i,j,k)")
            self.expect_op(",")
            j = self.index("c(i,j,k)")
            self.expect_op(",")
            k = self.index("c(i,j,k)")
            self.expect_op(")")
            return _Polynomial({((i, j, k),): GR_ONE})
        if kind == "sqrt":
            self.expect_op("(")
            inner = self.expression()
            self.expect_op(")")
            if not inner.is_scalar:
                raise NonlinearExpressionError("sqrt of a basis-vector expression")
            arg = inner.scalar
            if arg.has_radical:
                raise MultipleRadicalsError("nested radicals are not supported")
            return _Linear.constant(TowerElement.sqrt_of(arg.base), self.dim)
        if kind == "op" and value == "(":
            inner = self.expression()
            self.expect_op(")")
            return inner
        raise ExpressionSyntaxError("expected a value", pos)


def parse_expression(text, dim=5):
    """Parse a linear combination; returns a list of dim TowerElements.

    A pure-scalar expression is accepted only when it is zero (the zero
    vector); any other constant term is an error.  At most one distinct
    radicand may occur across the whole expression, even in components that
    never meet arithmetically.
    """
    try:
        out = _Parser(text, dim).parse()
    except MixedRadicands as exc:
        raise MultipleRadicalsError(str(exc)) from exc
    if not out.scalar.is_zero:
        raise NonlinearExpressionError(
            f"constant term {out.scalar!r} without a basis vector")
    radicands = {c.radicand for c in out.vector if c.radicand is not None}
    if len(radicands) > 1:
        raise MultipleRadicalsError(
            f"{len(radicands)} distinct radicands in one expression")
    return list(out.vector)


def parse_scalar(text):
    """Parse a pure scalar expression into a TowerElement."""
    try:
        out = _Parser(text, 1).parse()
    except MixedRadicands as exc:
        raise MultipleRadicalsError(str(exc)) from exc
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
    if f.den == POLY_ONE:
        return format_poly(f.num)
    return f"({format_poly(f.num)})/({format_poly(f.den)})"


def format_scalar(x: TowerElement) -> str:
    """A tower element as one parenthesizable expression."""
    if not x.has_radical:
        return format_rational_function(x.base)
    radical = (f"sqrt({format_rational_function(x.radicand)}) * "
               f"({format_rational_function(x.rad)})")
    if x.base.is_zero:
        return radical
    return f"{format_rational_function(x.base)} + {radical}"


def format_vector(coeffs) -> str:
    """Canonical printed form of a coefficient vector; '0' for the zero vector."""
    terms = []
    for k, c in enumerate(coeffs):
        c = TowerElement.coerce(c)
        if c.is_zero:
            continue
        if c == TOWER_ONE:
            terms.append(f"e_{k + 1}")
        else:
            terms.append(f"({format_scalar(c)}) * e_{k + 1}")
    text = " + ".join(terms) if terms else "0"
    return text.replace(" + -", " - ")
