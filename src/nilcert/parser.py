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

Every entry point evaluates to one sparse value, {monomial: nonzero
coefficient}: a monomial is the sorted tuple of its 0-based atoms, k for
e_{k+1} or (i, j, k) for c(i+1,j+1,k+1); a scalar is {(): c} and zero is {}.
Each entry point fixes a context: its scalar class (GaussianRational or
RationalFunction) with that class's zero and one, the tokens it rejects, and
whether values stay linear in the atoms.  parse_expression and parse_scalar
read linear combinations of e_1..e_n over Q(i)(t), the rational functions in
t, and reject c(i,j,k); parse_constants reads them over Q(i) and rejects 't'.
parse_condition reads polynomials in the c(i,j,k), 1 <= i, j, k <= n, over
Q(i), rejects 't' and 'e_k', and returns the (monomial, coefficient) pairs
sorted by monomial.  A divisor must be a nonzero scalar; in a linear context
so must one factor of each product and the base of each power.

One rule bounds every '+', product, quotient and '^' before it is formed:
the result's degree in t stays within MAX_T_DEGREE and its size, monomials x
(1 + largest monomial degree) predicted from the operands, within MAX_SIZE,
which bounds both the atoms it holds and the work of forming it.  The work
of one expression, the sizes of its operations summed (a sum, formed in
place, counts the size of the terms it adds), stays within MAX_WORK.  Every
one of them keeps its coefficients, as predicted from its operands, within
MAX_COEFF_BITS; a '^' also has |k| <= MAX_EXPONENT, and a
power of a non-scalar is formed as |k| checked products.  A '(' or unary '-'
nests at most MAX_NESTING deep.  The grammar has no roots: any other letter,
'sqrt' included, is an error.

The scalars print themselves in this grammar (their repr), and format_vector
prints a vector by the reprs of its coefficients, so parse -> print -> parse
is a fixed point.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .scalars import (GR_I, GR_ONE, GR_ZERO, RF_ONE, RF_T, RF_ZERO,
                      GaussianRational, RationalFunction)


class ExpressionSyntaxError(ValueError):
    """Malformed expression; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonlinearExpressionError(ValueError):
    """Products or powers of basis vectors are not valid linear combinations;
    in a condition, division by an expression in the c(i,j,k) is not valid."""


_TOKEN_OPS = set("+-*/^(),")
_DIGITS = set("0123456789")  # str.isdigit also admits non-ASCII digits
_BLANKS = set(" \t\n\r\f\v")  # str.isspace also admits non-ASCII blanks


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch in _BLANKS:
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            while pos < n and text[pos] in _DIGITS:
                pos += 1
            tokens.append(("int", int(text[start:pos]), start))
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        if ch == "e" and pos + 1 < n and text[pos + 1] == "_":
            start, pos = pos, pos + 2
            while pos < n and text[pos] in _DIGITS:
                pos += 1
            if pos == start + 2:
                raise ExpressionSyntaxError("basis vector needs an index", start)
            tokens.append(("basis", int(text[start + 2:pos]), start))
            continue
        if ch in "tic":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, n))
    return tokens


# Limits checked at the position of their token before any work is done; the
# shipped files use exponents of at most 7, reach t-degree 7 and nest at most
# 4 deep.
MAX_EXPONENT = 64
MAX_T_DEGREE = 24         # in t, of each numerator and denominator
MAX_SIZE = 10_000         # monomials x (1 + largest monomial degree)
MAX_WORK = 40_000         # summed over the operations of one expression
MAX_COEFF_BITS = 1024     # predicted, of every operation
MAX_NESTING = 32          # open '(' and unary '-' around a token


def _is_scalar(value):
    return value.keys() <= {()}


def _degree(value):
    """The largest total degree of a monomial in the value."""
    return max(map(len, value), default=0)


def _weight(value):
    """The largest bit length of an int of the value's scalars, plus the bit
    length of their coefficient count: a product's coefficients are sums of
    products of its operands' coefficients.  The ints are a, b and d of a
    Gaussian rational (a + b i)/d, and re, im and d of the numerator and
    denominator ``Poly`` of a rational function, read with no gcd: never
    shorter than those of the reduced coefficients, so no input refused on
    the reduced ones is accepted."""
    top = count = 0  # the bit length of an or of ints is the largest one
    for c in value.values():
        if isinstance(c, RationalFunction):
            num, den = c.num, c.den
            for x in chain(num.re, num.im, den.re, den.im):
                top |= abs(x)
            top |= num.d | den.d
            count += num.degree + den.degree + 2
        else:
            top |= abs(c.a) | abs(c.b) | c.d
            count += 1
    return top.bit_length() + count.bit_length()


def _add_into(out, pairs):
    """Add (monomial, coefficient) pairs into the sparse value out."""
    for monomial, coeff in pairs:
        if monomial in out:
            coeff = out.pop(monomial) + coeff
        if coeff:
            out[monomial] = coeff
    return out


# What an entry point accepts: its scalar class with that class's zero, one
# and i, the tokens it rejects, and whether values must stay linear in the
# atoms.
_Context = namedtuple("_Context", "name scalar zero one i excluded linear")
_LINEAR = _Context("a linear combination", RationalFunction, RF_ZERO, RF_ONE,
                   RationalFunction(GR_I), {"c"}, True)
_CONSTANTS = _Context("a constant linear combination", GaussianRational,
                      GR_ZERO, GR_ONE, GR_I, {"t", "c"}, True)
_CONDITION = _Context("a condition", GaussianRational, GR_ZERO, GR_ONE, GR_I,
                      {"t", "basis"}, False)


class _Parser:
    def __init__(self, text, dim, context):
        self.dim = dim
        self.context = context
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        self.work = 0

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

    def nested(self, pos, parse):
        """parse() one level deeper, refused at pos beyond MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ExpressionSyntaxError(f"nesting exceeds {MAX_NESTING}", pos)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    # -- values: {monomial: nonzero coefficient} ------------------------------

    def refuse(self, what, t_degree, size, pos, work=None, bits=0):
        """Raise unless a result of the given t-degree, size and predicted
        coefficient bits stays within MAX_T_DEGREE, MAX_SIZE and
        MAX_COEFF_BITS, and the work of the expression, the sum of its
        operations' work (by default their size), within MAX_WORK.  A linear
        value holds at most dim + 1 monomials of degree at most 1, so its
        size and work are passed as 0 uncomputed."""
        if t_degree > MAX_T_DEGREE:
            raise ExpressionSyntaxError(
                f"{what} of degree {t_degree} exceeds {MAX_T_DEGREE}", pos)
        if size > MAX_SIZE:
            raise ExpressionSyntaxError(
                f"{what} of size {size} exceeds {MAX_SIZE}", pos)
        if bits > MAX_COEFF_BITS:
            raise ExpressionSyntaxError(
                f"{what} with coefficients over {MAX_COEFF_BITS} bits", pos)
        if size:
            self.work += size if work is None else work
            if self.work > MAX_WORK:
                raise ExpressionSyntaxError(
                    f"{what} brings the work to {self.work}, over {MAX_WORK}", pos)

    def t_degree(self, value):
        """The largest t-degree of a numerator or denominator in the value."""
        if self.context.scalar is GaussianRational:
            return 0
        return max((max(c.num.degree, c.den.degree) for c in value.values()),
                   default=0)

    def plus(self, a, b, degree, pos):
        """a + b, formed in place in a, which no other value holds, and a
        bound on its largest monomial degree, given that bound for a."""
        # x + y = (nx dy + ny dx) / (dx dy), or (nx + ny) / d if dx = dy = d,
        # whose coefficients have at most the bits of a product x y
        shared = [(a[m], b[m]) for m in a.keys() & b.keys()]
        t_degree = 0 if self.context.scalar is GaussianRational else max(
            self.t_degree(a), self.t_degree(b), *(
                0 if x.den == y.den else
                max(x.num.degree + y.den.degree, y.num.degree + x.den.degree,
                    x.den.degree + y.den.degree)
                for x, y in shared))
        bits = max((_weight({(): x}) + _weight({(): y}) for x, y in shared),
                   default=0)
        if self.context.linear:
            self.refuse("sum", t_degree, 0, pos, bits=bits)
        else:  # formed in place, so its work is the terms it adds
            db = _degree(b)
            degree = max(degree, db)
            self.refuse("sum", t_degree, (len(a) + len(b)) * (1 + degree), pos,
                        len(b) * (1 + db), bits)
        return _add_into(a, b.items()), degree

    def times(self, a, b, pos):
        # one factor of each product is a scalar wherever t may appear, so
        # the t-degree is at most the sum of theirs
        if self.context.linear and not (_is_scalar(a) or _is_scalar(b)):
            raise NonlinearExpressionError(
                f"product of two basis-vector expressions (position {pos})")
        self.refuse("product", self.t_degree(a) + self.t_degree(b),
                    0 if self.context.linear else
                    len(a) * len(b) * (1 + _degree(a) + _degree(b)), pos,
                    bits=_weight(a) + _weight(b))
        return _add_into({}, (((tuple(sorted(ma + mb)) if ma and mb
                                else ma or mb), ca * cb)
                              for ma, ca in a.items() for mb, cb in b.items()))

    def divide(self, a, b, pos):
        if not _is_scalar(b):
            raise NonlinearExpressionError(
                f"division by a non-scalar expression (position {pos})")
        if not b:
            raise ZeroDivisionError(f"division by zero at position {pos}")
        # 1/((c + e i)/f) = f (c - e i)/(c^2 + e^2) has twice the bits
        self.refuse("quotient", self.t_degree(a) + self.t_degree(b),
                    0 if self.context.linear else len(a) * (1 + _degree(a)), pos,
                    bits=_weight(a) + 2 * _weight(b))
        inv = b[()].inverse()
        return {monomial: coeff * inv for monomial, coeff in a.items()}

    def power(self, base, k, pos):
        if self.context.linear and not _is_scalar(base):
            raise NonlinearExpressionError(
                f"power of a basis-vector expression (position {pos})")
        if abs(k) > MAX_EXPONENT:
            raise ExpressionSyntaxError(
                f"exponent {abs(k)} exceeds {MAX_EXPONENT}", pos)
        out = {(): self.context.one}
        if k < 0:
            base, k = self.divide(out, base, pos), -k
        self.refuse("power", k * self.t_degree(base), 1, pos,
                    bits=k * _weight(base))
        if not _is_scalar(base):
            for _ in range(k):
                out = self.times(out, base, pos)
            return out
        return {(): base[()] ** k} if base else (out if k == 0 else {})

    # -- grammar ----------------------------------------------------------------

    def parse(self):
        out = self.expression()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError("trailing input", pos)
        return out

    def expression(self):
        out = self.term()
        degree = 0 if self.context.linear else _degree(out)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                if value == "-":
                    rhs = {monomial: -coeff for monomial, coeff in rhs.items()}
                out, degree = self.plus(out, rhs, degree, pos)
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                out = self.times(out, rhs, pos) if value == "*" \
                    else self.divide(out, rhs, pos)
            elif kind in ("int", "t", "i", "c", "basis") or \
                    (kind == "op" and value == "("):
                out = self.times(out, self.factor(), pos)
            else:
                return out

    def factor(self):
        out = self.prefixed()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return self.power(out, self._signed_exponent(), pos)
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
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            out = self.nested(pos, self.prefixed)
            return {monomial: -coeff for monomial, coeff in out.items()}
        return self.atom()

    def atom(self):
        kind, value, pos = self.advance()
        if kind in self.context.excluded:
            raise ExpressionSyntaxError(
                f"{kind!r} is not allowed in {self.context.name}", pos)
        if kind == "int":
            return {(): self.context.scalar(value)} if value else {}
        if kind == "t":
            return {(): RF_T}
        if kind == "i":
            return {(): self.context.i}
        if kind == "basis":
            if not 1 <= value <= self.dim:
                raise ExpressionSyntaxError(
                    f"basis index e_{value} out of range 1..{self.dim}", pos)
            return {(value - 1,): self.context.one}
        if kind == "c":
            self.expect_op("(")
            ijk = []
            for closing in ",,)":
                ijk.append(self.index("c(i,j,k)"))
                self.expect_op(closing)
            return {(tuple(ijk),): self.context.one}
        if kind == "op" and value == "(":
            inner = self.nested(pos, self.expression)
            self.expect_op(")")
            return inner
        raise ExpressionSyntaxError("expected a value", pos)


def _vector(text, dim, context):
    out = _Parser(text, dim, context).parse()
    if () in out:
        raise NonlinearExpressionError(
            f"constant term {out[()]!r} without a basis vector")
    return [out.get((k,), context.zero) for k in range(dim)]


def parse_expression(text, dim=5):
    """Parse a linear combination; returns a list of dim RationalFunctions.

    A pure-scalar expression is accepted only when it is zero (the zero
    vector); any other constant term is an error.
    """
    return _vector(text, dim, _LINEAR)


def parse_constants(text, dim=5):
    """Parse a linear combination with Q(i) coefficients; returns a list of
    dim GaussianRationals.  Same rules as parse_expression, but 't' is
    rejected."""
    return _vector(text, dim, _CONSTANTS)


def parse_scalar(text):
    """Parse a pure scalar expression into a RationalFunction."""
    out = _Parser(text, 1, _LINEAR).parse()
    if not _is_scalar(out):
        raise NonlinearExpressionError("expected a scalar expression")
    return out.get((), RF_ZERO)


def parse_condition(text, dim=5):
    """Parse a polynomial in the c(i,j,k) into its monomial normal form."""
    return tuple(sorted(_Parser(text, dim, _CONDITION).parse().items()))


def format_vector(coeffs) -> str:
    """Canonical printed form of a coefficient vector, its terms ``(c!r) * e_k``
    joined by ' + ' (' + -' printed as ' - '); '0' for the zero vector."""
    terms = []
    for k, c in enumerate(coeffs):
        c = RationalFunction.coerce(c)
        if c.is_zero:
            continue
        if c == RF_ONE:
            terms.append(f"e_{k + 1}")
        else:
            terms.append(f"({c!r}) * e_{k + 1}")
    text = " + ".join(terms) if terms else "0"
    return text.replace(" + -", " - ")
