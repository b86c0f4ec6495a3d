"""Catalog of the 5-dimensional nilpotent commutative associative algebras.

The 24 nonzero isomorphism classes are named A_01..A_24; the algebra with zero
multiplication is named C5.  Each entry carries its multiplication table, read
from the shipped algebra file that transcribes the printed classification
(``data/algebras/a01.alg`` .. ``a24.alg``, ``c5.alg``), and the expected
derivation dimension of the classification, used as a cross-check.

Identification works through an invariant fingerprint (derivation dimension,
dimensions of the power ideals, annihilator dimension, nilpotency index).
Fingerprints do not separate every pair of classes: A_11 and A_15 share one,
so identify() returns candidate lists rather than forcing a single name.
Identities and invariants are computed in Gaussian integers on the scaled
table of StructureTable.integer_tensor, isomorphic to the input (its lemma).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import files
from .algebra import StructureTable, annihilator, power_chain
from .derivations import derivation_dimension


class UnknownAlgebraError(KeyError):
    """Requested catalog name does not exist."""


class NotInVarietyError(ValueError):
    """Input algebra is not commutative, associative and nilpotent."""


# Derivation-dimension column of the classification.
DER_DIMS = {
    "A_01": 5, "A_02": 6, "A_03": 6, "A_04": 7, "A_05": 7, "A_06": 7,
    "A_07": 7, "A_08": 8, "A_09": 8, "A_10": 9, "A_11": 9, "A_12": 11,
    "A_13": 8, "A_14": 9, "A_15": 9, "A_16": 10, "A_17": 10, "A_18": 11,
    "A_19": 11, "A_20": 12, "A_21": 11, "A_22": 12, "A_23": 14, "A_24": 17,
    "C5": 25,
}

DIM = 5


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    table: StructureTable
    expected_der_dim: int


@dataclass(frozen=True)
class InvariantFingerprint:
    """Basis-independent invariants used for identification."""

    dim_der: int
    power_dims: tuple  # dims of A^2, A^3, A^4, A^5
    ann_dim: int
    nilpotency_index: int  # least k with A^k = 0; -1 when A is not nilpotent

    def as_dict(self):
        return {"dim_der": self.dim_der,
                "power_dims": list(self.power_dims),
                "ann_dim": self.ann_dim,
                "nilpotency_index": self.nilpotency_index}


def names():
    """Catalog names in table order, the zero algebra last."""
    return list(DER_DIMS)


@lru_cache(maxsize=None)
def get(name: str) -> CatalogEntry:
    """The entry of a catalog name, read from its shipped file (a05.alg for
    A_05, the stem witness ids use).  Names come from witness headers, so an
    unknown one is refused before a file name is formed from it."""
    if name not in DER_DIMS:
        raise UnknownAlgebraError(name)
    file_name = name.lower().replace("_", "") + ".alg"
    printed, table = files.load_shipped_algebra(file_name)
    if printed != name:
        raise files.FileFormatError(f"{file_name} holds {printed}, not {name}")
    return CatalogEntry(name, table, DER_DIMS[name])


def fingerprint(alg: StructureTable) -> InvariantFingerprint:
    chain = power_chain(alg, alg.dim + 1)
    nilp = next((k for k in range(2, alg.dim + 2) if chain[k].is_zero), -1)
    return InvariantFingerprint(
        dim_der=derivation_dimension(alg),
        power_dims=tuple(chain[k].dim for k in range(2, min(alg.dim + 2, 6))),
        ann_dim=annihilator(alg).dim,
        nilpotency_index=nilp,
    )


@lru_cache(maxsize=None)
def catalog_fingerprint(name: str) -> InvariantFingerprint:
    """Fingerprint of a catalog algebra, computed once per process.

    Keyed by name, never by table: catalog tables are fixed, while tables
    handed to fingerprint() may be anything.
    """
    return fingerprint(get(name).table)


def _catalog_fingerprints():
    return {name: catalog_fingerprint(name) for name in names()}


@lru_cache(maxsize=None)
def fingerprint_collisions():
    """Classes of catalog names sharing a fingerprint (documented in reports)."""
    by_fp = {}
    for name, fp in _catalog_fingerprints().items():
        by_fp.setdefault(fp, []).append(name)
    return tuple(tuple(group) for group in by_fp.values() if len(group) > 1)


def identify(alg: StructureTable):
    """Catalog names whose fingerprint matches; candidate sets on collisions."""
    if alg.dim != DIM:
        raise NotInVarietyError(f"expected dimension {DIM}, got {alg.dim}")
    report = alg.check_identities()
    if not report.commutative or not report.associative:
        raise NotInVarietyError("algebra is not commutative and associative")
    fp = fingerprint(alg)
    if fp.nilpotency_index < 0:
        raise NotInVarietyError("algebra is not nilpotent")
    return sorted(name for name, cfp in _catalog_fingerprints().items() if cfp == fp)
