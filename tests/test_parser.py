"""Expression grammar: examples, precedence, errors, and print round trips."""

from fractions import Fraction
from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert import files
from nilcert.parser import (MAX_NESTING, MAX_SIZE, MAX_T_DEGREE,
                            ExpressionSyntaxError, NonlinearExpressionError,
                            format_vector, parse_condition, parse_constants,
                            parse_expression, parse_scalar)
from nilcert.scalars import RF_ONE, RF_T, GaussianRational, Poly, RationalFunction

T = RF_T


def test_basic_linear_combination():
    coeffs = parse_expression("t e_1 + (1/3) e_3")
    assert coeffs[0] == T
    assert coeffs[2] == RationalFunction.coerce(Fraction(1, 3))
    assert coeffs[1].is_zero and coeffs[3].is_zero and coeffs[4].is_zero


def test_unit_vector():
    coeffs = parse_expression("e_1")
    assert coeffs[0] == RF_ONE
    assert all(c.is_zero for c in coeffs[1:])


def test_nested_fraction_with_juxtaposition():
    s = parse_scalar("(1-5t+5t^2)/(2t(2-3t)^2)")
    expected = (RationalFunction(Poly((1, -5, 5)))
                / (2 * T * (RationalFunction(Poly((2, -3)))) ** 2))
    assert s == expected


def test_scalar_times_parenthesized_vector():
    coeffs = parse_expression("-i (t^-1 e_3 - t^2 e_2)")
    minus_i = RationalFunction.coerce(GaussianRational(0, -1))
    assert coeffs[2] == minus_i / T
    assert coeffs[1] == minus_i * (-(T ** 2))


def test_unary_minus_binds_tighter_than_power():
    assert parse_scalar("-2^2") == RationalFunction.coerce(4)
    assert parse_scalar("-(2^2)") == RationalFunction.coerce(-4)
    assert parse_scalar("-t^2") == T ** 2
    assert parse_scalar("-(t^2)") == -(T ** 2)


def test_signed_exponent():
    assert parse_scalar("t^-3") == T ** -3


def test_juxtaposition_never_swallows_subtraction():
    assert parse_scalar("3 - 2") == RationalFunction.coerce(1)
    assert parse_scalar("3 (-2)") == RationalFunction.coerce(-6)


def test_syntax_error_carries_position():
    # digits are ASCII only: a superscript or an Arabic-Indic digit, which
    # str.isdigit accepts, is an unexpected character, not a number
    for text, position in (("t e_1 + & e_2", 8), ("\u00b2", 0), ("1\u00b2", 1),
                           ("e_\u00b9", 0), ("\u0663", 0)):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(text)
        assert err.value.position == position, text


def test_unbalanced_parenthesis():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(t e_1")


def test_sqrt_is_not_in_the_grammar():
    # one grammar serves all three file formats, and it has no roots: 'sqrt'
    # is an unexpected character wherever it appears
    for parse, text, position in ((parse_expression, "sqrt(t) e_1", 0),
                                  (parse_expression, "t e_1 + sqrt(t) e_2", 8),
                                  (parse_scalar, "sqrt(4)", 0),
                                  (parse_constants, "sqrt(-4) e_3", 0),
                                  (parse_condition, "sqrt(2)*c(1,1,2)", 0)):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(text)
        assert err.value.position == position, text


def test_nonlinear_expressions_rejected():
    with pytest.raises(NonlinearExpressionError):
        parse_expression("e_1 e_2")
    with pytest.raises(NonlinearExpressionError):
        parse_expression("e_1^2")
    with pytest.raises(NonlinearExpressionError):
        parse_expression("1/e_1")
    with pytest.raises(NonlinearExpressionError):
        parse_expression("t e_1 + 3")  # stray constant term
    # one rule serves every context: a product, power or divisor must stay
    # linear in the basis vectors, and a divisor must be a scalar
    for parse, text in ((parse_constants, "e_1 e_2"),
                        (parse_constants, "e_1^2"),
                        (parse_constants, "e_1^0"),
                        (parse_expression, "(t e_1)^1"),
                        (parse_scalar, "e_1"),
                        (parse_condition, "1/c(1,1,2)"),
                        (parse_condition, "c(1,1,2)^-1")):
        with pytest.raises(NonlinearExpressionError):
            parse(text)


def test_nesting_is_bounded():
    for open_, close in (("(", ")"), ("-", ""), ("-(", ")")):
        depth = MAX_NESTING // len(open_)
        text = open_ * depth + "e_1" + close * depth
        assert parse_expression(text)[0] == RF_ONE * (-1) ** text.count("-")
        deeper = open_ * (depth + 1) + "e_1" + close * (depth + 1)
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(deeper)
        assert err.value.position == MAX_NESTING, open_


def test_sum_degree_is_predicted_from_the_denominators():
    d = MAX_T_DEGREE // 2 + 1
    # over a shared denominator the sum keeps its degree
    assert (parse_expression(f"1/(t+1)^{d} e_1 + 1/(t+1)^{d} e_1")
            == parse_expression(f"2/(t+1)^{d} e_1"))
    # over coprime ones it has the degree of their product
    with pytest.raises(ExpressionSyntaxError, match="sum of degree"):
        parse_expression(f"1/(t+1)^{d} e_1 + 1/(t+2)^{d} e_1")


def test_witness_lines_parse_without_reading_reduced_coefficients(monkeypatch):
    # the coefficient bound reads the int lists of each Poly; reading
    # Poly.coeffs would reduce every coefficient by its own gcd.  Only
    # Poly.divmod, in the gcd that normalizes a rational function, reads them.
    reads, depth = [], []
    coeffs, divmod_ = Poly.coeffs, Poly.divmod

    def counted(poly):
        if not depth:
            reads.append(poly)
        return coeffs.fget(poly)

    def divmod_counted(poly, other):
        depth.append(poly)
        try:
            return divmod_(poly, other)
        finally:
            depth.pop()

    lines = [line.split("=", 1)[1] for wid in files.witness_ids()
             for line in files.data_text("witnesses", f"{wid}.wit").splitlines()
             if line.startswith("E_")]
    assert len(lines) == 5 * len(files.witness_ids()) == 220
    monkeypatch.setattr(Poly, "coeffs", property(counted))
    monkeypatch.setattr(Poly, "divmod", divmod_counted)
    for line in lines:
        parse_expression(line)
    assert reads == []


def test_work_budget_admits_the_largest_sums():
    # 3333 products of two atoms, the most a sum of size <= MAX_SIZE holds;
    # a sum is charged the terms it adds, not the size of its result
    atoms = [f"c({i},{j},{k})" for i in range(1, 6) for j in range(1, 6)
             for k in range(1, 6)]
    pairs = islice(combinations_with_replacement(atoms, 2), MAX_SIZE // 3)
    text = " + ".join(f"{a}*{b}" for a, b in pairs)
    assert len(parse_condition(text)) == MAX_SIZE // 3
    with pytest.raises(ExpressionSyntaxError, match="brings the work to"):
        parse_condition(f"({text}) 2 2 2 2")


def test_basis_index_out_of_range():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("e_7")


def test_zero_vector_parses():
    assert all(c.is_zero for c in parse_expression("0"))


def test_print_parse_round_trip_examples():
    examples = [
        "t e_1 + (1/3) e_3",
        "-i (t^-1 e_3 - t^-4 e_4 + t^-7 e_5 - t^2 e_2)",
        "((2t - 1)/(2 - 3t)) e_2 + ((1 - 5t + 5t^2)/(2t(2 - 3t)^2)) e_3",
        "0",
    ]
    for text in examples:
        coeffs = parse_expression(text)
        printed = format_vector(coeffs)
        assert parse_expression(printed) == coeffs, text
        assert format_vector(parse_expression(printed)) == printed, text


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
polys = st.lists(gaussians, min_size=0, max_size=3).map(Poly)
rationals = st.builds(lambda n, d: RationalFunction(n, d),
                      polys, polys.filter(lambda p: not p.is_zero))


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=5, max_size=5))
def test_print_parse_is_identity_on_random_vectors(coeffs):
    printed = format_vector(coeffs)
    assert parse_expression(printed) == coeffs


def test_scalars_print_in_the_grammar():
    i, half = GaussianRational(0, 1), GaussianRational(Fraction(1, 2))
    for value, text in ((T, "t"), (i, "i"), (-i, "-i"), (half, "1/2"),
                        (half + 3 * i, "(1/2 + 3*i)"),
                        (half - 3 * i, "(1/2 + -3*i)"),
                        (Poly((0, 1, -i)), "t + -i*t^2"),
                        (Poly((2, -1, 0, half * i)), "2 + -1*t + 1/2*i*t^3"),
                        (RF_ONE / (T + 1), "(1)/(1 + t)"),
                        (Poly(()), "0")):
        assert repr(value) == text


units = st.sampled_from([GaussianRational(re, im) for re, im in
                         ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1))])
coefficients = st.one_of(units, gaussians)
printed_polys = st.lists(coefficients, max_size=4).map(Poly)
printed_scalars = st.one_of(
    coefficients, printed_polys,
    st.builds(RationalFunction, printed_polys,
              printed_polys.filter(lambda p: not p.is_zero)))


@settings(max_examples=200, deadline=None)
@given(printed_scalars)
def test_repr_parses_back_to_the_same_value(x):
    text = repr(x)
    back = parse_scalar(text)
    assert back == x
    assert repr(back) == text
