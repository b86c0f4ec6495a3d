"""Hostile input: text built from grammar tokens and from the line shapes of
the four file formats either loads or is refused as a format error, quickly,
and the command line answers it with exit code 0, 1 or 2."""

import contextlib
import io
import json
import os
import re
import tempfile
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilcert import files
from nilcert.cli import main

TOKENS = ("0", "1", "2", "7", "64", "10000000000000000000", "t", "i", "e_1",
          "e_5", "e_6", "e_", "c(1,1,2)", "c(5,5,5)", "c(6,1,1)", "c(", "c",
          ",", "(", ")", "+", "-", "*", "/", "^", "^-", " ", "sqrt", "x", "=",
          "->", "#")
EXPONENTS = ("0", "1", "2", "-1", "-3", "7", "24", "25", "64", "65")


def grammar(atoms, max_leaves):
    """Expressions over the atoms, built with every operator of the grammar."""
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(("+", "-", "*", "/", "")), inner)
            .map(" ".join),
            inner.map("({})".format),
            inner.map("-{}".format),
            st.tuples(inner, st.sampled_from(EXPONENTS)).map("^".join)),
        max_leaves=max_leaves)


def linear(scalars):
    """Linear combinations, which load far more often than free expressions."""
    return st.lists(st.tuples(scalars, st.sampled_from(
        ("e_1", "e_2", "e_3", "e_4", "e_5"))).map(" ".join),
        min_size=1, max_size=4).map(" + ".join)


constants = grammar(("0", "1", "2", "3/4", "i", "(2+i)", "(1-i)"), 6)
scalars = grammar(("0", "1", "2", "3/4", "t", "i", "(1+t)", "(t-1)", "(2+i)"),
                  6)
soup = st.lists(st.sampled_from(TOKENS), max_size=16).map("".join)
expressions = st.one_of(
    linear(scalars), soup, grammar(("0", "2", "t", "i", "e_1", "e_3",
                                    "c(1,1,2)", "c(2,3,5)", "(1+t)", "(2+i)"),
                                   12))

FIELDS = {
    "e": expressions,
    "k": st.sampled_from(("-1", "0", "1", "2", "3", "5", "6", "64", "65",
                          "x", "")),
    "n": st.sampled_from(("A_01", "A_05", "A_15", "A_23", "A_24", "C5", "X",
                          "")),
}
SHAPES = {
    "algebra": ("algebra {n}", "dim {k}", "field Q(i)", "field {e}",
                "table commutative", "table raw", "table {e}",
                "e_{k} * e_{k} = {e}", "{e} = {e}"),
    "witness": ("witness {n} -> {n}", "dim {k}", "E_{k} = {e}", "E_{k} {e}"),
    "claims": ("claim {n} !-> {n} {n}", "require A_{k} A_{k} <= A_{k}",
               "require A_{k} A_{k} = 0", "require A_{k}^{k} = 0",
               "require ann >= {k}", "require poly {e} = 0", "require {e}",
               "witness {n} : {e}, {e}, {e}, {e}, {e}"),
    "edges": ("{n} -> {n}",),
    "none": ("{e}", "# {e}"),
}


def lines(*formats):
    """Up to 8 lines in the shapes of the formats, their fields drawn."""
    shapes = [shape for name in formats for shape in SHAPES[name]]

    @st.composite
    def line(draw):
        return re.sub(r"\{(\w)\}", lambda m: draw(FIELDS[m.group(1)]),
                      draw(st.sampled_from(shapes)))

    return st.lists(line(), max_size=8).map("\n".join)


free_text = lines(*SHAPES)
algebra_text = st.builds(
    "algebra X\ndim 5\n{}\n".format,
    st.lists(st.builds("e_{} * e_{} = {}".format, st.integers(1, 5),
                       st.integers(1, 5),
                       st.one_of(linear(constants), expressions)), max_size=6)
    .map("\n".join))
# the rows t e_j, one of them replaced by a drawn row
witness_text = st.builds(
    lambda names, k, row: "witness {} -> {}\n".format(*names) + "".join(
        f"E_{j} = {row if j == k else f't e_{j}'}\n" for j in range(1, 6)),
    st.sampled_from((("A_23", "A_24"), ("A_01", "A_02"), ("A_24", "A_24"),
                     ("A_23", "X"))),
    st.integers(1, 5), st.one_of(linear(scalars), expressions))
claims_text = st.builds("claim A_05 !-> A_15\n{}\n".format, lines("claims"))
texts = st.one_of(free_text, algebra_text, witness_text, claims_text)

LOADERS = (files.load_algebra, files.load_witness, files.load_claims,
           files.load_edges)
# derandomize: every run tries the same inputs; drop it to search afresh


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(texts)
def test_every_loader_loads_or_refuses_within_a_second(text):
    for load in LOADERS:
        started = time.perf_counter()
        try:
            load(text)
        except files.FileFormatError:
            pass
        assert time.perf_counter() - started < 1.0, load.__name__


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(
    st.tuples(st.sampled_from(("identify", "invariants", "derivations")),
              st.one_of(algebra_text, free_text)),
    st.tuples(st.just("verify"), st.one_of(witness_text, free_text))))
def test_cli_exits_0_1_or_2_with_one_json_error(command_and_text):
    command, text = command_and_text
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.txt")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path])
    assert code in (0, 1, 2)
    if code == 2:
        records = err.getvalue().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["error"] == "input"
