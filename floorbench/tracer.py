"""Outside-in tracer: spans around floorgw's public functions and methods.

Nothing in ``floorgw`` knows about it.  ``Tracer.install`` rebinds every
wrapped function in each ``floorgw`` module namespace that holds it (so
``enumerate_marked`` is traced when ``diagrams``, ``gw`` or ``cli`` calls
it) and patches the arithmetic methods of ``USeries`` and ``LaurentPolyS``
on the classes.  Spans (name, start, end, parent span, job) are kept in
memory in int64 columns and written out once, when the run ends.  A
span's interval covers the tracer's own bookkeeping for that call, so the
bookkeeping counts in the span's self time, not in its caller's.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter_ns

FUNCTIONS = {
    "diagrams": ["enumerate_marked", "refined_count", "refined_multiplicity",
                 "vertex_partitions", "validate_diagram"],
    "algebra": ["sin_factor_series", "lp_substitute_exponential", "q_integer"],
    "gw": ["gw_relative_series", "log_series", "degeneration_series",
           "degeneration_cross_check", "vertex_series", "ab_identity_check",
           "f0_absolute_series", "f2_relative_dminus2_series"],
    "oracle": ["brute_force_enumerate", "brute_force_refined_count"],
    "cli": ["main"],
}

# (class, span name, method attributes); __rmul__ is an alias of __mul__.
METHODS = [
    ("USeries", "mul", ["__mul__", "__rmul__"]),
    ("USeries", "add", ["__add__"]),
    ("USeries", "inverse", ["inverse"]),
    ("USeries", "pow", ["__pow__"]),
    ("LaurentPolyS", "mul", ["__mul__", "__rmul__"]),
    ("LaurentPolyS", "add", ["__add__"]),
    ("LaurentPolyS", "pow", ["__pow__"]),
]

# Spans whose (delta, n) inputs are tracked for the useful-work ratio.
LISTINGS = ("diagrams.enumerate_marked", "oracle.brute_force_enumerate")

COLUMNS = ("name", "start_ns", "end_ns", "parent", "job")


def useries_mul_terms(a, b) -> int:
    """Coefficient products of ``a * b``, from the operand windows alone.

    Constant time: row i of the product of an ``la``-term window by an
    ``lb``-term window, truncated to ``n`` terms, has min(lb, n - i) products.
    """
    if isinstance(b, (int, Fraction)):
        return len(a.coefficients) if b else 0
    if not hasattr(b, "coefficients") or not a.coefficients or not b.coefficients:
        return 0
    order = min(a.order + b.valuation, b.order + a.valuation)
    n = order - (a.valuation + b.valuation)
    lb = len(b.coefficients)
    rows = min(len(a.coefficients), n)
    if rows <= 0:
        return 0
    full = max(0, min(rows, n - lb + 1))  # rows with all lb products
    return full * lb + (rows - full) * n - (rows - full) * (rows - 1 + full) // 2


def listing_key(delta, n: int) -> str:
    """A (delta, n) input under floorgw's degree equality (sorted vectors)."""
    return repr((sorted(delta.vectors), n))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.columns = {c: array("q") for c in COLUMNS}
        self.stack: list[int] = []
        self.job = -1
        self.diagrams = {name: 0 for name in LISTINGS}
        # listing name -> (delta, n) key -> jobs that listed it
        self.inputs: dict[str, dict[str, set]] = {name: {} for name in LISTINGS}
        self.mul_terms = 0

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        col = self.columns
        c_name, c_start, c_end = col["name"], col["start_ns"], col["end_ns"]
        c_parent, c_job = col["parent"], col["job"]
        stack = self.stack
        listing = name in LISTINGS
        terms = name == "algebra.USeries.mul"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter_ns()
            idx = len(c_name)
            c_name.append(name_id)
            c_parent.append(stack[-1] if stack else -1)
            c_job.append(self.job)
            c_start.append(start)
            c_end.append(0)
            if terms:
                self.mul_terms += useries_mul_terms(args[0], args[1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if listing:
                    self.diagrams[name] += len(result)
                    key = listing_key(args[0], args[1])
                    self.inputs[name].setdefault(key, set()).add(self.job)
                return result
            finally:
                stack.pop()
                c_end[idx] = perf_counter_ns()

        return traced

    def install(self) -> None:
        """Wrap every traced name; call once, after ``floorgw.cli`` is imported."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "floorgw"]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"floorgw.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        algebra = sys.modules["floorgw.algebra"]
        for cls_name, span, attrs in METHODS:
            cls = getattr(algebra, cls_name)
            wrapper = self._wrap(f"algebra.{cls_name}.{span}", getattr(cls, attrs[0]))
            for attr in attrs:
                setattr(cls, attr, wrapper)

    def metrics(self) -> dict[str, int | float]:
        """Per-name calls and self time, plus the diagram and term counts.

        All of them add up over processes; ``run.py`` derives the useful
        ratios from ``listing_inputs``.
        """
        col = self.columns
        names, parents = col["name"], col["parent"]
        durations = [e - s for s, e in zip(col["start_ns"], col["end_ns"])]
        child_ns = [0] * len(durations)
        for parent, dur in zip(parents, durations):
            if parent >= 0:
                child_ns[parent] += dur
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for name_id, dur, child in zip(names, durations, child_ns):
            calls[name_id] += 1
            self_ns[name_id] += dur - child
        out: dict[str, int | float] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_ns[name_id] / 1e9
        for name in LISTINGS:
            out[f"{name}.diagrams"] = self.diagrams[name]
        out["algebra.USeries.mul.terms"] = self.mul_terms
        return out

    def listing_inputs(self) -> dict[str, list[str]]:
        """The distinct (delta, n) keys each listing function was called with."""
        return {name: sorted(keys) for name, keys in self.inputs.items()}

    def cross_job_repeats(self) -> int:
        """(delta, n) keys that more than one job of this process listed."""
        return sum(
            len(jobs) > 1 for keys in self.inputs.values() for jobs in keys.values()
        )

    def write(self, path, job_ids: list[str]) -> None:
        """One JSON header line, then each column as int64 in native byte order."""
        header = {
            "names": self.names,
            "jobs": job_ids,
            "columns": list(COLUMNS),
            "spans": len(self.columns["name"]),
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for c in COLUMNS:
                self.columns[c].tofile(f)
