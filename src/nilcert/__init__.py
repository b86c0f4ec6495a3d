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
