"""Exact scalars in Q(i)(t): normalization, orders and limits of polynomial
quotients, field axioms, and polynomial arithmetic against the reference on
tuples of Gaussian rationals."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nilcert.scalars import (GR_ZERO, POLY_ONE, RF_ONE, RF_T, RF_ZERO,
                             GaussianRational, Poly, RationalFunction,
                             gaussian, limit_at_zero, poly_gcd)


def rf(num_coeffs, den_coeffs=(1,)):
    return RationalFunction(Poly(num_coeffs), Poly(den_coeffs))


def order(x):
    """t-order at 0 of a rational function, as ``limit_at_zero`` reads it."""
    return x.num.order - x.den.order


def limit(x):
    """The pair limit of a rational function; None at a pole."""
    return limit_at_zero(x.num, x.den)


def value(x, at):
    return x.num.eval_complex(at) / x.den.eval_complex(at)


T = RF_T


# -- normalization -------------------------------------------------------------


def test_common_factor_cancels():
    # (t^2 - 1)/(t - 1) -> t + 1
    x = rf((-1, 0, 1), (-1, 1))
    assert x == rf((1, 1))


def test_monic_denominator_normalization():
    # (1 + i t)/(2t): denominator becomes monic t, numerator 1/2 + (i/2) t
    x = RationalFunction(Poly((1, GaussianRational(0, 1))), Poly((0, 2)))
    assert x.den == Poly((0, 1))
    assert x.num == Poly((Fraction(1, 2), GaussianRational(0, Fraction(1, 2))))


def test_normalize_is_idempotent_on_canonical_values():
    # rebuilding a value from its own numerator and denominator changes nothing
    for x in (T ** 2 / (T + 1), rf((1,), (0, 1)), (rf((-1,)) - T ** 3) / T,
              RationalFunction(Poly((1, GaussianRational(0, 1))), Poly((0, 2)))):
        again = RationalFunction(x.num, x.den)
        assert again.num == x.num and again.den == x.den


def test_constant_numerator_or_denominator_skips_only_a_trivial_gcd():
    # the gcd route: divide by poly_gcd, then make the denominator monic
    def gcd_route(num, den):
        g = poly_gcd(num, den)
        num, den = num // g, den // g
        lead = den.lead.inverse()
        return num.scale(lead), den.scale(lead)

    half_i = GaussianRational(Fraction(1, 2), 1)
    for num, den in ((Poly((3,)), Poly((1, 2, 1))),
                     (Poly((half_i,)), Poly((0, 0, GaussianRational(0, 3)))),
                     (Poly((1, 2, 1)), Poly((GaussianRational(2, -1),))),
                     (Poly((0, half_i, 5)), Poly((Fraction(-3, 4),))),
                     (Poly((2,)), Poly((GaussianRational(0, 2),)))):
        x = RationalFunction(num, den)
        assert (x.num, x.den) == gcd_route(num, den)
        assert x.den.is_monic


def test_power_skips_the_gcd_and_matches_repeated_products():
    # each product below goes through the gcd; the power takes none
    half_i = GaussianRational(Fraction(1, 2), 1)
    for x in (rf((1, -2, 0, 1), (3, 0, 1)), rf((0, half_i), (-1, 0, 2)),
              rf((5,), (0, 0, 1)), rf((2, 3)), RF_ZERO):
        for k in range(-3 if x else 0, 4):
            want = RF_ONE
            for _ in range(abs(k)):
                want = want * x if k > 0 else want / x
            got = x ** k
            assert (got.num, got.den) == (want.num, want.den), (x, k)


def test_gaussian_constants_embed_as_order_zero_functions():
    i = RationalFunction.coerce(GaussianRational(0, 1))
    assert i * i == RationalFunction.coerce(-1)
    assert order(i) == 0
    assert limit(i) == GaussianRational(0, 1)


def test_gcd_of_zero_and_poly():
    p = Poly((1, 2, 1))
    assert poly_gcd(p, Poly()) == p.monic()


# -- order at zero ------------------------------------------------------------------


def test_order_cancels_to_constant():
    assert order(rf((0, 3, 1), (0, 1))) == 0  # (t^2 + 3t)/t
    # the unreduced pair has the same order
    assert Poly((0, 3, 1)).order - Poly((0, 1)).order == 0


def test_order_of_simple_pole():
    assert order(rf((1,), (0, 1))) == -1  # 1/t


def test_order_matches_float_slope():
    # oracle first: near 0, the slope of log|f| against log t is the order
    t1, t2 = 1e-4, 1e-6
    for x, want in ((T ** 3 * (1 + T) / (2 - T), 3),
                    ((1 + T) / (T ** 2 * (3 + T)), -2),
                    ((T ** 2 + T ** 5) / (T - T ** 3), 1)):
        f1, f2 = abs(value(x, t1)), abs(value(x, t2))
        slope = (math.log(f1) - math.log(f2)) / (math.log(t1) - math.log(t2))
        assert abs(slope - want) < 1e-3
        assert order(x) == want


def test_order_of_zero_is_infinite():
    assert order(RF_ZERO) == math.inf
    assert order(rf(())) == math.inf


# -- limits at zero -----------------------------------------------------------------------


def test_limit_of_cancelling_quotient():
    assert limit(rf((0, 3, 1), (0, 1))) == GaussianRational(3)
    # the same quotient as an unreduced pair
    assert limit_at_zero(Poly((0, 3, 1)), Poly((0, 1))) == GaussianRational(3)


def test_limit_of_pole_diverges():
    assert limit(rf((1,), (0, 1))) is None
    assert limit_at_zero(Poly((0, 1)), Poly((0, 0, 0, 1))) is None  # t / t^3


def test_limit_of_unreduced_pairs_needs_no_gcd():
    # t(1 + t) / (t(2 - t)) -> 1/2, with the common factor t left in place
    num, den = Poly((0, 1, 1)), Poly((0, 2, -1))
    assert poly_gcd(num, den) == Poly((0, 1))
    assert limit_at_zero(num, den) == GaussianRational(Fraction(1, 2))
    # a common factor (1 + t) that does not vanish at 0 changes nothing
    assert limit_at_zero(num * Poly((1, 1)), den * Poly((1, 1))) == \
        GaussianRational(Fraction(1, 2))
    assert limit_at_zero(Poly(), Poly((0, 0, 1))) == GR_ZERO


def test_sum_cancelling_to_a_pole_diverges():
    # oracle: (-1 - t^3)/t + t^2 = -1/t, so |f| ~ t^(-1)
    x = (rf((-1,)) - T ** 3) / T + T ** 2
    assert x == rf((-1,), (0, 1))
    assert abs(value(x, 1e-6)) > 1e5
    assert limit(x) is None


def test_limit_rules():
    # order > 0 tends to 0, order 0 to the ratio of the lowest coefficients,
    # order < 0 diverges
    assert limit(T * (1 + T) / (2 - T)) == GR_ZERO
    assert limit(RF_ZERO) == GR_ZERO
    assert limit((3 + T) / (2 - T)) == GaussianRational(Fraction(3, 2))
    i = GaussianRational(0, 1)
    assert limit((T * i + T ** 2) / (2 * T)) == i / 2
    assert limit((1 + T) / T ** 3) is None


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RF_ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        RationalFunction(POLY_ONE, Poly())


# -- field axioms (property tests) ----------------------------------------------------------


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
polys = st.lists(gaussians, min_size=0, max_size=3).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
rationals = st.builds(lambda n, d: RationalFunction(n, d), polys, nonzero_polys)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(rationals.filter(bool))
def test_multiplicative_inverse(a):
    assert a * a.inverse() == RF_ONE


@settings(max_examples=60, deadline=None)
@given(rationals, rationals)
def test_multiplication_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=80, deadline=None)
@given(rationals.filter(bool), rationals.filter(bool))
def test_order_is_additive_on_products(a, b):
    assert order(a * b) == order(a) + order(b)


@settings(max_examples=60, deadline=None)
@given(rationals.filter(bool), rationals.filter(bool))
def test_order_of_a_sum_is_the_smaller_when_orders_differ(a, b):
    if order(a) == order(b):
        b = b * T
    assert order(a + b) == min(order(a), order(b))


@settings(max_examples=60, deadline=None)
@given(rationals, rationals)
def test_limit_is_additive_when_both_exist(a, b):
    la, lb = limit(a), limit(b)
    if la is None or lb is None:
        return
    assert limit(a + b) == la + lb
    # the unreduced pair of the sum has the same limit
    assert limit_at_zero(a.num * b.den + b.num * a.den, a.den * b.den) == la + lb


def test_thousand_random_rational_function_limits_match_floats():
    rng = random.Random(20260808)
    checked = 0
    for _ in range(1000):
        num = Poly([GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                    for _ in range(rng.randint(1, 4))])
        den = Poly([GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                    for _ in range(rng.randint(1, 4))])
        if den.is_zero:
            continue
        # the pair as drawn, common factors and all, against floats
        got = limit_at_zero(num, den)
        assert got == limit(RationalFunction(num, den))
        if got is None:
            continue
        at = num.eval_complex(1e-6) / den.eval_complex(1e-6)
        want = got.eval_complex()
        assert abs(at - want) <= 1e-4 * max(1.0, abs(want))
        checked += 1
    assert checked > 400  # the draw must actually exercise the limit path


# -- representation: (a + b i)/d with d > 0 and gcd(a, b, d) = 1 ------------------------


wide_fractions = st.fractions(min_value=-1000, max_value=1000,
                              max_denominator=10 ** 6)
wide_gaussians = st.builds(GaussianRational, wide_fractions, wide_fractions)


def is_normal(z):
    return z.d > 0 and math.gcd(z.a, z.b, z.d) == 1


@settings(max_examples=200, deadline=None)
@given(wide_gaussians, wide_gaussians, st.integers(-4, 4))
def test_field_operations_keep_the_normal_form(x, y, k):
    # each result is normal and equals the same operation on (re, im)
    # Fraction pairs
    want = {"+": (x.re + y.re, x.im + y.im), "-": (x.re - y.re, x.im - y.im),
            "*": (x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re),
            "neg": (-x.re, -x.im)}
    got = {"+": x + y, "-": x - y, "*": x * y, "neg": -x}
    if y:
        n = y.re ** 2 + y.im ** 2
        want["inverse"] = (y.re / n, -y.im / n)
        got["inverse"] = y.inverse()
        want["/"] = ((x.re * y.re + x.im * y.im) / n,
                     (x.im * y.re - x.re * y.im) / n)
        got["/"] = x / y
        got["power"] = y ** k
        assert got["power"] * y ** -k == 1
    for op, z in got.items():
        assert is_normal(z), op
        if op in want:
            assert (z.re, z.im) == want[op], op


@settings(max_examples=200, deadline=None)
@given(wide_fractions, wide_fractions)
def test_components_read_back(re, im):
    z = GaussianRational(re, im)
    assert is_normal(z)
    assert z.re == re and z.im == im
    assert type(z.re) is Fraction and type(z.im) is Fraction


@settings(max_examples=200, deadline=None)
@given(wide_gaussians, wide_gaussians, wide_gaussians.filter(bool))
def test_one_value_has_one_representation(x, y, z):
    # the same value reached in two orders has the same fields and hash
    for left, right in (((x + y) * z, x * z + y * z), ((x * z) / z, x),
                        (x - y + y, x), ((x + y) - x, y), (x / z * z, x),
                        (gaussian(z.a * 6, z.b * 6, z.d * -6), -z)):
        assert (left.a, left.b, left.d) == (right.a, right.b, right.d)
        assert hash(left) == hash(right)


def test_real_gaussian_rationals_hash_as_the_equal_number():
    for value in (3, -7, 0, Fraction(1, 3), Fraction(-22, 7)):
        z = GaussianRational(value)
        assert z == value and hash(z) == hash(value)
        assert z in {value} and value in {z}
    assert GaussianRational(Fraction(6, 4), 0) in {Fraction(3, 2)}
    assert GaussianRational(1, 1) not in {1}


def test_constant_rational_functions_hash_as_their_constant():
    i = GaussianRational(0, 1)
    for value in (3, 0, Fraction(-5, 2), i, GaussianRational(Fraction(1, 2), 4)):
        f = RationalFunction.coerce(value)
        assert f == value and hash(f) == hash(value)
        assert f in {value}
    assert (T + 1) / (T + 1) in {1}
    assert RationalFunction.coerce(Poly((1, 2))) in {Poly((1, 2))}


def test_gaussian_arithmetic_builds_no_fraction(monkeypatch):
    x = GaussianRational(Fraction(3, 4), Fraction(-5, 6))
    y = GaussianRational(Fraction(7, 2), 1)
    f = rf((1, x, 2), (y, 0, 3))
    g = rf((x, 1), (2, y))

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for z in (x + y, x - y, x * y, x / y, y.inverse(), x ** 3, x ** -2, -x,
              x + 1, 2 - x, x * 5, 1 / x, x / 3):
        assert z.d > 0
    assert x != y and x * y == y * x
    for h in (f + g, f - g, f * g, f / g, f ** 2, f ** -1, f.inverse(),
              poly_gcd(f.num * g.den, f.den * g.den)):
        assert h
    assert limit(f * g) == limit(f) * limit(g)


# -- Poly: Gaussian-integer lists over one denominator, against RationalPoly ----------


huge_fractions = st.builds(Fraction, st.integers(-2 ** 90, 2 ** 90),
                           st.integers(2 ** 64 + 1, 2 ** 80))
poly_coefficients = st.one_of(
    gaussians, st.builds(GaussianRational, huge_fractions, huge_fractions),
    st.builds(GaussianRational, huge_fractions, st.just(0)))
reference_polys = st.lists(poly_coefficients, max_size=5)


def is_normal_poly(p):
    """d > 0, no common factor of d and the numerator, no trailing zero."""
    return (p.d > 0 and math.gcd(p.d, *p.re, *p.im) == 1
            and (not p.re or p.re[-1]) and (not p.im or p.im[-1]))


@settings(max_examples=150, deadline=None)
@given(reference_polys, reference_polys, poly_coefficients,
       st.integers(0, 3), st.integers(-2 ** 70, 2 ** 70).filter(bool))
def test_poly_operations_match_the_rational_reference(xs, ys, c, k, n):
    # every operation equals its counterpart on tuples of reduced Gaussian
    # rationals, and leaves the normal form
    p, q = Poly(xs), Poly(ys)
    rp, rq = oracles.RationalPoly(xs), oracles.RationalPoly(ys)
    assert p.coeffs == rp.coeffs
    got = {"+": p + q, "-": p - q, "*": p * q, "neg": -p, "**": p ** k,
           "scale": p.scale(c), "/n": p / n, "monic": p.monic(),
           "primitive": p.primitive_part()}
    want = {"+": rp + rq, "-": rp - rq, "*": rp * rq, "neg": -rp, "**": rp ** k,
            "scale": rp * c, "/n": rp * GaussianRational(Fraction(1, n)),
            "monic": rp.monic(), "primitive": rp.primitive_part()}
    if q:
        got["//"], got["%"] = p.divmod(q)
        want["//"], want["%"] = rp.divmod(rq)
        got["gcd"] = poly_gcd(p, q)
        want["gcd"] = oracles.rational_poly_gcd(rp, rq)
    for op, z in got.items():
        assert is_normal_poly(z), op
        assert z.coeffs == want[op].coeffs, op
        assert repr(z) == repr(want[op]), op
        assert (z.order, z.lead, z.degree) == \
            (want[op].order, want[op].lead, want[op].degree), op
        assert z.is_monic == (want[op].lead == 1), op
    assert [p.coeff(j) for j in range(-1, 7)] == \
        [rp.coeffs[j] if 0 <= j < len(rp.coeffs) else GR_ZERO for j in range(-1, 7)]


@settings(max_examples=150, deadline=None)
@given(reference_polys, reference_polys, reference_polys)
def test_one_poly_value_has_one_representation(xs, ys, zs):
    # a value reached by two routes has the same lists, denominator and hash,
    # and a constant hashes as its coefficient
    p, q, r = Poly(xs), Poly(ys), Poly(zs)
    for left, right in (((p + q) * r, p * r + q * r), ((p + q) - q, p),
                        (p * q, q * p), (Poly((p - p).coeffs), Poly())):
        assert (left.re, left.im, left.d) == (right.re, right.im, right.d)
        assert left == right and hash(left) == hash(right)
    assert (p == q) == (oracles.RationalPoly(xs) == oracles.RationalPoly(ys))
    if p.degree < 1:
        assert hash(p) == hash(p.lead) == hash(oracles.RationalPoly(xs))


def test_poly_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        POLY_ONE.divmod(Poly())
