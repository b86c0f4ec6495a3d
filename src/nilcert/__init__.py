"""nilcert: exact-arithmetic verification of degenerations of 5-dimensional
nilpotent commutative associative algebras.

The package re-derives, with no floating point on any load-bearing path:

* the derivation-dimension column of the 24-algebra catalog,
* every parametric-basis degeneration witness (exact limit tables),
* the non-degeneration certificates (closed sets, Borel probes, certified or
  evidential escapes),
* the degeneration graph, its closure, covering reduction, and the comparison
  against an independently transcribed reference.
"""

__version__ = "1.0.0"

from .algebra import (GAUSSIAN_FIELD, TOWER_FIELD, StructureTable, Subspace,
                      annihilator, flag_subspace, power_chain,
                      subspace_product)
from .catalog import (CatalogEntry, InvariantFingerprint, fingerprint,
                      get, identify, names)
from .certificates import (AnnDimAtLeast, ClosedSetSpec, FlagContainment,
                           NonDegenerationClaim, PolynomialEq, PowerVanish,
                           borel_stability_probe, escape_evidence,
                           necessary_conditions, satisfies,
                           satisfies_with_witness)
from .degeneration import (DegenerationWitness, ParametricMatrix, Verdict,
                           generic_invertibility, limit_table,
                           numeric_crosscheck, transformed_constants, verify)
from .derivations import (DerivationSpace, derivation_dimension,
                          derivation_space, orbit_dimension)
from .graph import (DegenerationGraph, build, compare_with_reference,
                    emit_dot, emit_json, hasse_reduction, transitive_closure)
from .parser import format_vector, parse_expression, parse_scalar
from .scalars import (BranchAmbiguous, GaussianRational, LimitDiverges,
                      MixedRadicands, Poly, RationalFunction, TowerElement,
                      limit_at_zero, normalize, order_at_zero)

__all__ = [
    "__version__",
    "GAUSSIAN_FIELD", "TOWER_FIELD", "StructureTable", "Subspace",
    "annihilator", "flag_subspace", "power_chain", "subspace_product",
    "CatalogEntry", "InvariantFingerprint", "fingerprint", "get", "identify",
    "names",
    "AnnDimAtLeast", "ClosedSetSpec", "FlagContainment",
    "NonDegenerationClaim", "PolynomialEq", "PowerVanish",
    "borel_stability_probe", "escape_evidence", "necessary_conditions",
    "satisfies", "satisfies_with_witness",
    "DegenerationWitness", "ParametricMatrix", "Verdict",
    "generic_invertibility", "limit_table", "numeric_crosscheck",
    "transformed_constants", "verify",
    "DerivationSpace", "derivation_dimension", "derivation_space",
    "orbit_dimension",
    "DegenerationGraph", "build", "compare_with_reference", "emit_dot",
    "emit_json", "hasse_reduction", "transitive_closure",
    "format_vector", "parse_expression", "parse_scalar",
    "BranchAmbiguous", "GaussianRational", "LimitDiverges", "MixedRadicands",
    "Poly", "RationalFunction", "TowerElement", "limit_at_zero", "normalize",
    "order_at_zero",
]
