"""ASCII file formats: algebra tables, parametric-basis witnesses,
non-degeneration claims, and reference graph edge lists.

All formats are line based (split at line feeds only), '#' starts a comment,
and every number is exact.  Each line, less its comment and end blanks, must
match its format's one ``re.ASCII`` pattern in whole: blanks and digits are
ASCII, as in ``parser``, and names are kept as written between blanks.

Algebra file::

    algebra A_09
    dim 5
    field Q(i)
    table commutative          # or: table raw (no symmetrization)
    e_1 * e_2 = e_4
    e_2 * e_3 = -1 e_5

Witness file (``dim``, 5 by default, comes before the rows)::

    witness A_23 -> A_24
    E_1 = t e_1 + e_2
    ...exactly dim lines...

Claims file (blocks; a ``witness`` line names a source of its claim, once)::

    claim A_13 !-> A_12 A_16
    require A_1 A_1 <= A_4
    require A_1 A_2 <= A_5
    witness A_13 : e_3, e_2, e_1, e_4, e_5

    claim A_05 !-> A_15
    require A_2 A_3 = 0
    require poly c(1,3,4)*c(2,2,5) - c(1,3,5)*c(2,2,4) = 0

Other condition forms: ``require A_p^k = 0`` and ``require ann >= d``.  Flag
indices lie in 1..dim, power exponents in 1..MAX_EXPONENT (64, the bound of
every ``^`` in the grammar) and ``d`` in 0..dim; a ``poly`` condition
is a polynomial in the c(i,j,k), 1 <= i, j, k <= dim, with Q(i) coefficients,
parsed by the expression grammar of ``parser``.

Algebra products and claims witness bases are read in Q(i) (``t`` is
rejected), witness files in Q(i)(t), the rational functions in t.  No format
has roots: a ``sqrt`` is a FileFormatError on its line.
"""

from __future__ import annotations

import re
from importlib import resources

from . import certificates, degeneration
from .algebra import MAX_DIM, StructureTable
from .parser import (MAX_EXPONENT, format_vector, parse_condition,
                     parse_constants, parse_expression)


class FileFormatError(ValueError):
    """Malformed input file."""


_BLANKS = " \t\n\r\f\v"  # parser._BLANKS, and \s under re.ASCII
_LINE_ERRORS = (ValueError, ZeroDivisionError)  # raised by range checks, int(), the parser
# the line grammar: one pattern per format, 'require' lines taking a _CONDITION
_ALGEBRA_LINE = re.compile(r"algebra\s+(?P<name>\S+)"
                           r"|dim\s+(?P<dim>\d+)"
                           r"|field\s+(?P<field>.+)"
                           r"|table\s+(?P<mode>.+)"
                           r"|e_(?P<i>\d+)\s*\*\s*e_(?P<j>\d+)\s*=\s*(?P<rhs>.*)",
                           re.ASCII)
_WITNESS_LINE = re.compile(r"witness\s+(?P<source>\S+?)\s*->\s*(?P<target>\S+)"
                           r"|dim\s+(?P<dim>\d+)"
                           r"|E_(?P<row>\d+)\s*=\s*(?P<rhs>.*)", re.ASCII)
# 'A_p^k = 0', 'A_p A_q <= A_r', 'A_p A_q = 0', 'ann >= d', 'poly ... = 0'
_CONDITION = (r"A_(?P<p>\d+)(?:\^(?P<k>\d+)\s*=\s*0"
              r"|\s+A_(?P<q>\d+)\s*(?:<=\s*A_(?P<r>\d+)|=\s*0))"
              r"|ann\s*>=\s*(?P<ann>\d+)"
              r"|poly\s+(?P<poly>\S(?:.*\S)?)\s*=\s*0")
_CLAIMS_LINE = re.compile(r"claim\s(?P<sources>.*?)!->(?P<targets>.*)"
                          r"|require\s+(?:" + _CONDITION + ")"
                          r"|witness\s+(?P<name>\S+?)\s*:\s*(?P<basis>.*)", re.ASCII)
_EDGE_LINE = re.compile(r"(?P<source>\S+?)\s*->\s*(?P<target>\S+)", re.ASCII)
_NAME = re.compile(r"\S+", re.ASCII)


def _lines(text, pattern):
    """(lineno, match) of each line with text before its '#', matched in whole."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(_BLANKS)
        if line:
            match = pattern.fullmatch(line)
            if match is None:
                raise FileFormatError(f"line {lineno}: unrecognized line {line!r}")
            yield lineno, match


def _bounded(m, group, what, low, high):
    """The int of a group's matched digits, in low..high; None if unmatched."""
    if m[group] is None:
        return None
    value = int(m[group])
    if not low <= value <= high:
        raise ValueError(f"{what} {value} outside {low}..{high}")
    return value


# -- algebra files ------------------------------------------------------------------


def load_algebra(text):
    """Parse an algebra file; returns (name, StructureTable over Q(i))."""
    name, dim, symmetrize = None, None, True
    products = []
    for lineno, m in _lines(text, _ALGEBRA_LINE):
        try:
            if m["name"] is not None:
                name = m["name"]
            elif m["dim"] is not None:
                dim = _bounded(m, "dim", "dim", 1, MAX_DIM)
            elif m["field"] is not None:
                if m["field"] != "Q(i)":
                    raise ValueError(f"unsupported field {m['field']!r}")
            elif m["mode"] is not None:
                if m["mode"] not in ("commutative", "raw"):
                    raise ValueError(f"unknown table mode {m['mode']!r}")
                symmetrize = m["mode"] == "commutative"
            else:
                products.append((lineno, m))
        except _LINE_ERRORS as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from None
    if name is None or dim is None:
        raise FileFormatError("missing 'algebra <name>' or 'dim <n>' header")
    entries = {}
    for lineno, m in products:
        try:
            i, j = (_bounded(m, g, "product index", 1, dim) for g in "ij")
            for k, value in enumerate(parse_constants(m["rhs"], dim)):
                if not value:
                    continue
                for key in {(i - 1, j - 1, k), (j - 1, i - 1, k)} if symmetrize \
                        else {(i - 1, j - 1, k)}:
                    if key in entries and entries[key] != value:
                        raise ValueError(f"conflicting entry {key}")
                    entries[key] = value
        except _LINE_ERRORS as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from None
    return name, StructureTable(dim, entries)


def dump_algebra(name, table: StructureTable) -> str:
    """Canonical algebra file; lists each unordered pair once when symmetric."""
    symmetric = table.is_commutative()
    lines = [f"algebra {name}", f"dim {table.dim}", "field Q(i)",
             f"table {'commutative' if symmetric else 'raw'}"]
    listed = set()
    for (i, j, k) in sorted(table.entries):
        if (i, j) in listed:
            continue
        if symmetric and j < i:
            continue
        listed.add((i, j))
        vec = table.product_vec(i, j)
        lines.append(f"e_{i + 1} * e_{j + 1} = {format_vector(vec)}")
    return "\n".join(lines) + "\n"


# -- witness files ----------------------------------------------------------------------


def load_witness(text) -> degeneration.DegenerationWitness:
    source, target, dim = None, None, 5
    rows = {}
    for lineno, m in _lines(text, _WITNESS_LINE):
        try:
            if m["source"] is not None:
                source, target = m["source"], m["target"]
            elif m["dim"] is not None:
                if rows:
                    raise ValueError("dim must come before the E_k rows")
                dim = _bounded(m, "dim", "dim", 1, MAX_DIM)
            else:
                idx = _bounded(m, "row", "row index", 1, dim)
                if idx in rows:
                    raise ValueError(f"duplicate E_{idx}")
                rows[idx] = parse_expression(m["rhs"], dim)
        except _LINE_ERRORS as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from None
    if source is None:
        raise FileFormatError("missing 'witness A -> B' header")
    if len(rows) != dim:
        raise FileFormatError(f"expected exactly E_1..E_{dim} lines")
    matrix = degeneration.ParametricMatrix([rows[i] for i in range(1, dim + 1)])
    return degeneration.DegenerationWitness(source, target, matrix)


def dump_witness(witness: degeneration.DegenerationWitness) -> str:
    lines = [f"witness {witness.source} -> {witness.target}"]
    for i, row in enumerate(witness.matrix.rows):
        lines.append(f"E_{i + 1} = {format_vector(row)}")
    return "\n".join(lines) + "\n"


# -- claims files ----------------------------------------------------------------------------


def _parse_condition(m, dim):
    if m["ann"] is not None:
        return certificates.AnnDimAtLeast(_bounded(m, "ann", "ann bound", 0, dim))
    if m["poly"] is not None:
        return certificates.PolynomialEq(parse_condition(m["poly"], dim), m["poly"])
    p, q, r = (_bounded(m, g, "flag index", 1, dim) for g in "pqr")
    if m["k"] is not None:
        return certificates.PowerVanish(
            p, _bounded(m, "k", "power exponent", 1, MAX_EXPONENT))
    # r None encodes containment in 0
    return certificates.FlagContainment(p, q, r)


def load_claims(text, dim=5):
    """Parse a claims file into a list of NonDegenerationClaim."""
    blocks = []  # (sources, targets, conditions, witness bases)
    for lineno, m in _lines(text, _CLAIMS_LINE):
        try:
            if m["sources"] is not None:
                blocks.append((tuple(_NAME.findall(m["sources"])),
                               tuple(_NAME.findall(m["targets"])), [], {}))
            elif not blocks:
                raise ValueError("condition outside a claim block")
            elif m["name"] is not None:
                sources, _, _, witnesses = blocks[-1]
                if m["name"] not in sources:
                    raise ValueError(f"witness {m['name']} is no source of its claim")
                if m["name"] in witnesses:
                    raise ValueError(f"duplicate witness {m['name']}")
                matrix = [parse_constants(part.strip(_BLANKS), dim)
                          for part in m["basis"].split(",")]
                if len(matrix) != dim:
                    raise ValueError(f"witness basis needs {dim} rows")
                witnesses[m["name"]] = matrix
            else:
                blocks[-1][2].append(_parse_condition(m, dim))
        except _LINE_ERRORS as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from None
    return [certificates.NonDegenerationClaim(
                sources, targets, certificates.ClosedSetSpec(tuple(conditions)),
                witnesses) for sources, targets, conditions, witnesses in blocks]


def _condition_line(conj) -> str:
    if isinstance(conj, (certificates.FlagContainment,
                         certificates.PowerVanish)):
        return conj.describe()
    if isinstance(conj, certificates.AnnDimAtLeast):
        return f"ann >= {conj.d}"
    if isinstance(conj, certificates.PolynomialEq):
        return f"poly {conj.text} = 0"
    raise TypeError(f"unknown condition {conj!r}")


def dump_claims(claims) -> str:
    blocks = []
    for claim in claims:
        lines = [f"claim {' '.join(claim.sources)} !-> {' '.join(claim.targets)}"]
        lines.extend(f"require {_condition_line(c)}" for c in claim.spec.conjuncts)
        for name, rows in sorted(claim.witness_bases.items()):
            parts = ", ".join(format_vector(row) for row in rows)
            lines.append(f"witness {name} : {parts}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# -- edge lists ------------------------------------------------------------------------------------


def load_edges(text):
    return [(m["source"], m["target"]) for _, m in _lines(text, _EDGE_LINE)]


def dump_edges(edges) -> str:
    return "\n".join(f"{a} -> {b}" for a, b in edges) + "\n"


# -- shipped data -------------------------------------------------------------------------------------


def _data_root():
    return resources.files("nilcert").joinpath("data")


def data_text(*parts) -> str:
    node = _data_root()
    for part in parts:
        node = node.joinpath(part)
    return node.read_text(encoding="ascii")


def witness_ids():
    """Sorted ids (file stems) of the shipped witness files."""
    directory = _data_root().joinpath("witnesses")
    return sorted(p.name.removesuffix(".wit") for p in directory.iterdir()
                  if p.name.endswith(".wit"))


def load_shipped_witness(witness_id) -> degeneration.DegenerationWitness:
    return load_witness(data_text("witnesses", f"{witness_id}.wit"))


def load_all_witnesses():
    return [(wid, load_shipped_witness(wid)) for wid in witness_ids()]


def load_shipped_claims():
    return load_claims(data_text("nondegeneration_claims.txt"))


def load_reference_edges():
    return load_edges(data_text("reference_graph_edges.txt"))


def algebra_file_names():
    directory = _data_root().joinpath("algebras")
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".alg"))


def load_shipped_algebra(file_name):
    return load_algebra(data_text("algebras", file_name))
