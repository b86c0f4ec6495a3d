"""ASCII file formats: algebra tables, parametric-basis witnesses,
non-degeneration claims, and reference graph edge lists.

All formats are line based, '#' starts a comment, and every number is exact.

Algebra file::

    algebra A_09
    dim 5
    field Q(i)
    table commutative          # or: table raw (no symmetrization)
    e_1 * e_2 = e_4
    e_2 * e_3 = -1 e_5

Witness file::

    witness A_23 -> A_24
    E_1 = t e_1 + e_2
    ...exactly dim lines...

Claims file (several blocks)::

    claim A_13 !-> A_12 A_16
    require A_1 A_1 <= A_4
    require A_1 A_2 <= A_5
    witness A_13 : e_3, e_2, e_1, e_4, e_5

    claim A_05 !-> A_15
    require A_2 A_3 = 0
    require poly c(1,3,4)*c(2,2,5) - c(1,3,5)*c(2,2,4) = 0

Other condition forms: ``require A_p^k = 0`` and ``require ann >= d``.  Flag
indices lie in 1..dim and power exponents are at least 1; a ``poly`` condition
is a polynomial in the c(i,j,k), 1 <= i, j, k <= dim, with Q(i) coefficients,
parsed by the expression grammar of ``parser``.
"""

from __future__ import annotations

from importlib import resources

from .algebra import GAUSSIAN_FIELD, StructureTable
from .certificates import (AnnDimAtLeast, ClosedSetSpec, FlagContainment,
                           NonDegenerationClaim, PolynomialEq, PowerVanish)
from .degeneration import DegenerationWitness, ParametricMatrix
from .parser import format_vector, parse_condition, parse_expression


class FileFormatError(ValueError):
    """Malformed input file."""


def _meaningful_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


# -- algebra files ------------------------------------------------------------------


def load_algebra(text):
    """Parse an algebra file; returns (name, StructureTable over Q(i))."""
    name, dim, symmetrize = None, None, True
    products = []
    for lineno, line in _meaningful_lines(text):
        if line.startswith("algebra "):
            name = line.split(None, 1)[1].strip()
        elif line.startswith("dim "):
            dim = int(line.split(None, 1)[1])
        elif line.startswith("field "):
            field = line.split(None, 1)[1].strip()
            if field != "Q(i)":
                raise FileFormatError(f"line {lineno}: unsupported field {field!r}")
        elif line.startswith("table "):
            mode = line.split(None, 1)[1].strip()
            if mode not in ("commutative", "raw"):
                raise FileFormatError(f"line {lineno}: unknown table mode {mode!r}")
            symmetrize = mode == "commutative"
        elif "=" in line:
            lhs, rhs = line.split("=", 1)
            parts = lhs.split("*")
            if len(parts) != 2:
                raise FileFormatError(f"line {lineno}: expected 'e_i * e_j = ...'")
            try:
                i = int(parts[0].strip().removeprefix("e_"))
                j = int(parts[1].strip().removeprefix("e_"))
            except ValueError:
                raise FileFormatError(f"line {lineno}: bad product {lhs!r}") from None
            products.append((lineno, i, j, rhs.strip()))
        else:
            raise FileFormatError(f"line {lineno}: unrecognized line {line!r}")
    if name is None or dim is None:
        raise FileFormatError("missing 'algebra <name>' or 'dim <n>' header")
    entries = {}
    for lineno, i, j, rhs in products:
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise FileFormatError(f"line {lineno}: index out of range")
        coeffs = parse_expression(rhs, dim)
        for k, c in enumerate(coeffs):
            if c.is_zero:
                continue
            if not c.is_constant:
                raise FileFormatError(
                    f"line {lineno}: non-constant coefficient {c!r}")
            value = c.constant_value()
            for key in {(i - 1, j - 1, k), (j - 1, i - 1, k)} if symmetrize \
                    else {(i - 1, j - 1, k)}:
                if key in entries and entries[key] != value:
                    raise FileFormatError(f"line {lineno}: conflicting entry {key}")
                entries[key] = value
    return name, StructureTable(dim, entries, GAUSSIAN_FIELD)


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


def load_witness(text) -> DegenerationWitness:
    source, target, dim = None, None, 5
    rows = {}
    for lineno, line in _meaningful_lines(text):
        if line.startswith("witness "):
            header = line.split(None, 1)[1]
            if "->" not in header:
                raise FileFormatError(f"line {lineno}: expected 'witness A -> B'")
            source, target = (p.strip() for p in header.split("->", 1))
        elif line.startswith("dim "):
            dim = int(line.split(None, 1)[1])
        elif line.startswith("E_"):
            lhs, rhs = line.split("=", 1)
            idx = int(lhs.strip().removeprefix("E_"))
            if idx in rows:
                raise FileFormatError(f"line {lineno}: duplicate E_{idx}")
            rows[idx] = parse_expression(rhs.strip(), dim)
        else:
            raise FileFormatError(f"line {lineno}: unrecognized line {line!r}")
    if source is None:
        raise FileFormatError("missing 'witness A -> B' header")
    if sorted(rows) != list(range(1, dim + 1)):
        raise FileFormatError(f"expected exactly E_1..E_{dim} lines")
    matrix = ParametricMatrix([rows[i] for i in range(1, dim + 1)])
    return DegenerationWitness(source, target, matrix)


def dump_witness(witness: DegenerationWitness) -> str:
    lines = [f"witness {witness.source} -> {witness.target}"]
    for i, row in enumerate(witness.matrix.rows):
        lines.append(f"E_{i + 1} = {format_vector(row)}")
    return "\n".join(lines) + "\n"


# -- claims files ----------------------------------------------------------------------------


def _parse_int(text, lineno, what):
    try:
        return int(text)
    except ValueError:
        raise FileFormatError(
            f"line {lineno}: {what} must be an integer, got {text.strip()!r}") from None


def _parse_flag_atom(token, lineno, dim):
    token = token.strip()
    if not token.startswith("A_"):
        raise FileFormatError(f"line {lineno}: expected flag A_p, got {token!r}")
    p = _parse_int(token.removeprefix("A_"), lineno, "flag index")
    if not 1 <= p <= dim:
        raise FileFormatError(f"line {lineno}: flag index A_{p} outside 1..{dim}")
    return p


def _parse_flag_pair(text, lineno, dim):
    atoms = text.split()
    if len(atoms) != 2:
        raise FileFormatError(f"line {lineno}: expected 'A_p A_q', got {text.strip()!r}")
    return tuple(_parse_flag_atom(atom, lineno, dim) for atom in atoms)


def _parse_condition(line, lineno, dim):
    body = line.removeprefix("require ").strip()
    if body.startswith("ann"):
        rest = body.removeprefix("ann").strip()
        if not rest.startswith(">="):
            raise FileFormatError(f"line {lineno}: expected 'ann >= d'")
        return AnnDimAtLeast(_parse_int(rest.removeprefix(">="), lineno, "ann bound"))
    if body.startswith("poly "):
        expr = body.removeprefix("poly ").strip()
        if not expr.endswith("= 0"):
            raise FileFormatError(f"line {lineno}: polynomial condition must end '= 0'")
        text = expr[: -len("= 0")].strip()
        try:
            return PolynomialEq(parse_condition(text, dim), text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from None
    # flag products and powers: 'A_p A_q <= A_r', 'A_p A_q = 0', 'A_p^k = 0'
    if "^" in body.split("=")[0] and "<=" not in body:
        lhs, rhs = body.split("=", 1)
        if rhs.strip() != "0":
            raise FileFormatError(f"line {lineno}: power condition must be '= 0'")
        base, k = lhs.split("^", 1)
        k = _parse_int(k, lineno, "power exponent")
        if k < 1:
            raise FileFormatError(f"line {lineno}: power exponent {k} must be >= 1")
        return PowerVanish(_parse_flag_atom(base, lineno, dim), k)
    if "<=" in body:
        lhs, rhs = body.split("<=", 1)
        p, q = _parse_flag_pair(lhs, lineno, dim)
        return FlagContainment(p, q, _parse_flag_atom(rhs, lineno, dim))
    if "=" in body:
        lhs, rhs = body.split("=", 1)
        if rhs.strip() != "0":
            raise FileFormatError(f"line {lineno}: expected '= 0'")
        p, q = _parse_flag_pair(lhs, lineno, dim)
        return FlagContainment(p, q, None)  # None encodes containment in 0
    raise FileFormatError(f"line {lineno}: unrecognized condition {body!r}")


def load_claims(text, dim=5):
    """Parse a claims file into a list of NonDegenerationClaim."""
    claims = []
    current = None

    def flush():
        nonlocal current
        if current is not None:
            claims.append(NonDegenerationClaim(
                sources=tuple(current["sources"]),
                targets=tuple(current["targets"]),
                spec=ClosedSetSpec(tuple(current["conditions"])),
                witness_bases=dict(current["witnesses"]),
            ))
        current = None

    for lineno, line in _meaningful_lines(text):
        if line.startswith("claim "):
            flush()
            body = line.removeprefix("claim ")
            if "!->" not in body:
                raise FileFormatError(f"line {lineno}: expected 'claim A !-> B ...'")
            lhs, rhs = body.split("!->", 1)
            current = {"sources": lhs.split(), "targets": rhs.split(),
                       "conditions": [], "witnesses": {}}
        elif current is None:
            raise FileFormatError(f"line {lineno}: condition outside a claim block")
        elif line.startswith("require "):
            current["conditions"].append(_parse_condition(line, lineno, dim))
        elif line.startswith("witness "):
            body = line.removeprefix("witness ")
            if ":" not in body:
                raise FileFormatError(f"line {lineno}: expected 'witness NAME : ...'")
            name, rows = body.split(":", 1)
            try:
                matrix = [parse_expression(part.strip(), dim)
                          for part in rows.split(",")]
            except (ValueError, ZeroDivisionError) as exc:
                raise FileFormatError(f"line {lineno}: {exc}") from None
            if len(matrix) != dim:
                raise FileFormatError(f"line {lineno}: witness basis needs {dim} rows")
            constant = []
            for row in matrix:
                crow = []
                for c in row:
                    if not c.is_constant:
                        raise FileFormatError(
                            f"line {lineno}: witness basis must be constant")
                    crow.append(c.constant_value())
                constant.append(crow)
            current["witnesses"][name.strip()] = constant
        else:
            raise FileFormatError(f"line {lineno}: unrecognized line {line!r}")
    flush()
    return claims


def _condition_line(conj) -> str:
    if isinstance(conj, FlagContainment):
        if conj.r is None:
            return f"A_{conj.p} A_{conj.q} = 0"
        return f"A_{conj.p} A_{conj.q} <= A_{conj.r}"
    if isinstance(conj, PowerVanish):
        return f"A_{conj.p}^{conj.k} = 0"
    if isinstance(conj, AnnDimAtLeast):
        return f"ann >= {conj.d}"
    if isinstance(conj, PolynomialEq):
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
    edges = []
    for lineno, line in _meaningful_lines(text):
        if "->" not in line:
            raise FileFormatError(f"line {lineno}: expected 'A -> B'")
        src, dst = (p.strip() for p in line.split("->", 1))
        edges.append((src, dst))
    return edges


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


def load_shipped_witness(witness_id) -> DegenerationWitness:
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
