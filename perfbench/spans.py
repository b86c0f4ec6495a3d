"""Span recorder for the traced run, installed from outside the package.

Each traced callable is replaced by a wrapper in every ``nilcert`` module
that holds a reference to it (modules import functions by name, so rebinding
the defining module alone would miss most calls); methods are wrapped on
their class.  A span is (id, parent id, name, start, end).  Spans are kept in
memory and written out once, after the traced round.

Workers forked by ``suite.run_all(jobs=2)`` inherit the wrappers.  The
worker entry point ``suite._verify_by_id`` is wrapped as well: in a worker it
appends that worker's spans to a file beside the trace, which the parent
merges after the round.  Span ids carry the process id in their high bits.
"""

from __future__ import annotations

import functools
import glob
import gzip
import importlib
import json
import os
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (layer, module, attribute, metric stem)
TARGETS = (
    ("suite", "nilcert.suite", "run_all", "run_all"),
    ("suite", "nilcert.suite", "_verify_by_id", "verify_by_id"),
    ("certificates", "nilcert.certificates", "check_claim", "check_claim"),
    ("certificates", "nilcert.certificates", "escape_evidence", "escape"),
    ("certificates", "nilcert.certificates", "borel_stability_probe",
     "borel_probe"),
    ("certificates", "nilcert.certificates", "satisfies", "satisfies"),
    ("certificates", "nilcert.certificates", "necessary_conditions",
     "necessary_conditions"),
    ("sampling", "nilcert.sampling", "random_invertible", "random_invertible"),
    ("algebra", "nilcert.algebra", "StructureTable.change_basis", "change_basis"),
    ("algebra", "nilcert.algebra", "StructureTable.check_identities",
     "check_identities"),
    ("algebra", "nilcert.algebra", "power_chain", "power_chain"),
    ("algebra", "nilcert.algebra", "annihilator", "annihilator"),
    ("algebra", "nilcert.algebra", "subspace_product", "subspace_product"),
    ("catalog", "nilcert.catalog", "fingerprint", "fingerprint"),
    ("catalog", "nilcert.catalog", "identify", "identify"),
    ("derivations", "nilcert.derivations", "derivation_dimension", "dimension"),
    ("linalg", "nilcert.linalg", "rref", "rref"),
    ("linalg", "nilcert.linalg", "gaussian_int_rank", "gaussian_int_rank"),
    ("linalg", "nilcert.linalg", "invert_matrix", "invert_matrix"),
    ("linalg", "nilcert.linalg", "det", "det"),
    ("degeneration", "nilcert.degeneration", "verify", "verify"),
    ("degeneration", "nilcert.degeneration",
     "ParametricMatrix.exceptional_values", "exceptional_values"),
    ("degeneration", "nilcert.degeneration", "ParametricMatrix.det", "det"),
    ("degeneration", "nilcert.degeneration", "transformed_constants",
     "transformed_constants"),
    ("degeneration", "nilcert.degeneration", "limit_table", "limit_table"),
    ("degeneration", "nilcert.degeneration", "numeric_crosscheck",
     "numeric_crosscheck"),
    ("parser", "nilcert.parser", "parse_expression", "parse_expression"),
    ("files", "nilcert.files", "load_algebra", "load_algebra"),
    ("files", "nilcert.files", "load_witness", "load_witness"),
)

LAYERS = ("suite", "certificates", "sampling", "algebra", "catalog",
          "derivations", "linalg", "degeneration", "parser", "files")

# Calls whose results are scanned for coefficient size (scalars.max_coeff_bits).
SCANNED = {"change_basis", "invert_matrix", "transformed_constants",
           "random_invertible", "load_algebra", "load_witness"}


def metric_names():
    """Per-layer metric names in a fixed order, with their unit and direction."""
    out = []
    for layer, _, _, stem in TARGETS:
        out.append((f"{layer}.{stem}_calls", "count", "lower"))
        out.append((f"{layer}.{stem}_s", "s", "lower"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [(f"suite.{section}_s", "s", "lower")
            for section in ("catalog", "witnesses", "claims", "screening")]
    out += [("certificates.escape_samples_per_s", "1/s", "higher"),
            ("scalars.max_coeff_bits", "bits", "lower"),
            ("trace.spans", "count", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


def coeff_bits(x):
    """Largest numerator or denominator bit length inside an exact value."""
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, (list, tuple)):
        return max((coeff_bits(v) for v in x), default=0)
    if isinstance(x, dict):
        return coeff_bits(list(x.values()))
    if x is None or isinstance(x, str):
        return 0
    kind = type(x).__name__
    if kind == "GaussianRational":
        return max(coeff_bits(x.re), coeff_bits(x.im))
    if kind == "Poly":
        return coeff_bits(x.coeffs)
    if kind == "RationalFunction":
        return max(coeff_bits(x.num), coeff_bits(x.den))
    if kind == "TowerElement":
        return max(coeff_bits(x.base), coeff_bits(x.rad), coeff_bits(x.radicand))
    if kind == "StructureTable":
        return coeff_bits(x.entries)
    if kind == "DegenerationWitness":
        return coeff_bits(x.matrix.rows)
    raise TypeError(f"no coefficient scan for {kind}")


class Recorder:
    """Spans of one process, in flat arrays to keep the per-call cost low."""

    def __init__(self, names, worker_dir):
        self.names = names
        self.worker_dir = worker_dir
        self.main_pid = os.getpid()
        self.stack = [-1]
        self._own(self.main_pid)

    def _own(self, pid):
        self.pid = pid
        self.base = pid << 32
        self.counter = 0
        self.clear()

    def clear(self):
        self.ids = array("q")
        self.parents = array("q")
        self.kinds = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.escape_samples = 0
        self.max_bits = 0

    def enter_worker(self):
        """In a forked worker, drop the spans copied from the parent.

        The stack is kept: its top is the parent's span that forked the
        worker, so the worker's spans hang below it.
        """
        if os.getpid() != self.pid:
            self._own(os.getpid())
        return self.pid != self.main_pid

    def flush_worker(self):
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a", encoding="ascii") as handle:
            handle.write(json.dumps(self._columns()) + "\n")
        self.clear()

    def _columns(self):
        return {"ids": list(self.ids), "parents": list(self.parents),
                "kinds": list(self.kinds), "starts": list(self.starts),
                "ends": list(self.ends), "escape_samples": self.escape_samples,
                "max_bits": self.max_bits}

    def merge_workers(self):
        for path in sorted(glob.glob(os.path.join(self.worker_dir,
                                                  "worker-*.jsonl"))):
            with open(path, encoding="ascii") as handle:
                for line in handle:
                    cols = json.loads(line)
                    self.ids.extend(cols["ids"])
                    self.parents.extend(cols["parents"])
                    self.kinds.extend(cols["kinds"])
                    self.starts.extend(cols["starts"])
                    self.ends.extend(cols["ends"])
                    self.escape_samples += cols["escape_samples"]
                    self.max_bits = max(self.max_bits, cols["max_bits"])
            os.remove(path)

    def write(self, path):
        with gzip.open(path, "wt", encoding="ascii") as handle:
            json.dump({"names": self.names, **self._columns()}, handle)


def _wrap(fn, kind, stem, rec, worker_entry):
    scan = stem in SCANNED
    escape = stem == "escape"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        in_worker = worker_entry and rec.enter_worker()
        rec.counter += 1
        sid = rec.base | rec.counter
        stack = rec.stack
        parent = stack[-1]
        stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            rec.ids.append(sid)
            rec.parents.append(parent)
            rec.kinds.append(kind)
            rec.starts.append(t0)
            rec.ends.append(t1)
        if scan:
            rec.max_bits = max(rec.max_bits, coeff_bits(result))
        if escape:
            rec.escape_samples += result.samples
        if in_worker:
            rec.flush_worker()
        return result

    return traced


def install(worker_dir):
    """Wrap every target; returns the recorder and an uninstall callable."""
    names = [f"{layer}.{stem}" for layer, _, _, stem in TARGETS]
    rec = Recorder(names, worker_dir)
    undo = []
    owners = [importlib.import_module(target[1]) for target in TARGETS]
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "nilcert" or n.startswith("nilcert."))]
    for kind, (_, _, attribute, stem) in enumerate(TARGETS):
        owner = owners[kind]
        if "." in attribute:
            cls_name, meth = attribute.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(original, kind, stem, rec, False))
            undo.append((cls, meth, original))
            continue
        original = getattr(owner, attribute)
        wrapper = _wrap(original, kind, stem, rec, stem == "verify_by_id")
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))

    def uninstall():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return rec, uninstall


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def layer_metrics(rec):
    """Inclusive time and calls per target, and self time per layer.

    A span's self time is its duration minus the part of it that its child
    spans cover; children of one span may run in parallel worker processes,
    so the covered part is the union of their intervals.
    """
    n = len(rec.ids)
    children = {}
    for idx in range(n):
        children.setdefault(rec.parents[idx], []).append(idx)
    calls = [0] * len(TARGETS)
    inclusive = [0.0] * len(TARGETS)
    self_time = {layer: 0.0 for layer in LAYERS}
    for idx in range(n):
        kind = rec.kinds[idx]
        lo, hi = rec.starts[idx], rec.ends[idx]
        calls[kind] += 1
        inclusive[kind] += hi - lo
        kids = children.get(rec.ids[idx], ())
        covered = _covered([(rec.starts[c], rec.ends[c]) for c in kids], lo, hi) \
            if kids else 0.0
        self_time[TARGETS[kind][0]] += hi - lo - covered
    metrics = {}
    for kind, (layer, _, _, stem) in enumerate(TARGETS):
        metrics[f"{layer}.{stem}_calls"] = calls[kind]
        metrics[f"{layer}.{stem}_s"] = inclusive[kind]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    escape_s = metrics["certificates.escape_s"]
    metrics["certificates.escape_samples_per_s"] = \
        rec.escape_samples / escape_s if escape_s else 0.0
    metrics["scalars.max_coeff_bits"] = rec.max_bits
    metrics["trace.spans"] = n
    return metrics
