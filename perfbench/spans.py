"""Span recorder for the traced run.

Wrappers are installed from outside the program, around the public functions
of each ``orimat`` module, at every module attribute that holds the function
(``orimat.cli.o_vector``, ``orimat.harness.o_vector``, ...) and on the class
for methods.  Each span adds its duration to its parent's child time, so a
function's self time is its span minus the spans it caused.  Spans are folded
into per-name totals in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from statistics import median
from time import perf_counter

# metric prefix -> (module, attribute path) of each function timed as a span
SPANS = {
    "cli.main": ("orimat.cli", "main"),
    "chirotope.parse_chirotope": ("orimat.chirotope", "parse_chirotope"),
    "chirotope.lex_rank": ("orimat.chirotope", "lex_rank"),
    "chirotope.contract": ("orimat.chirotope", "Chirotope.contract"),
    "chirotope.delete": ("orimat.chirotope", "Chirotope.delete"),
    "chirotope.dual": ("orimat.chirotope", "Chirotope.dual"),
    "circuits.circuits_from_chirotope": ("orimat.circuits", "circuits_from_chirotope"),
    "circuits.cocircuits": ("orimat.circuits", "cocircuits"),
    "neighborly.o_vector": ("orimat.neighborly", "o_vector"),
    "neighborly.ort": ("orimat.neighborly", "ort"),
    "cyclic.c_value": ("orimat.cyclic", "CValueTable.c_value"),
    "harness.parse_database": ("orimat.harness", "parse_database"),
    "harness.compute_rows": ("orimat.harness", "compute_rows"),
    "harness.checkpoint.append": ("orimat.harness", "append_checkpoint"),
    "harness.checkpoint.load": ("orimat.harness", "load_checkpoint"),
    "harness.deletion_contraction_audit": ("orimat.harness", "deletion_contraction_audit"),
    "constructions.search_k_neighborly": ("orimat.constructions", "search_k_neighborly"),
    "constructions.composite_construction": ("orimat.constructions", "composite_construction"),
    "constructions.disjoint_cocircuit_construction": (
        "orimat.constructions",
        "disjoint_cocircuit_construction",
    ),
}

# Functions only counted: timing ~10^6 calls per pass would swamp them.
COUNTED = {
    "signvec.orthogonality_degree": ("orimat.signvec", "orthogonality_degree"),
    "cyclic.brute_force_entries": ("orimat.cyclic", "o_vector_brute"),
}

# Per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = (
    "chirotope.parse_chirotope.calls",
    "chirotope.lex_rank.calls",
    "chirotope.lex_rank.self_s",
    "chirotope.contract.self_s",
    "chirotope.delete.self_s",
    "chirotope.dual.self_s",
    "circuits.self_s",
    "circuits.members",
    "neighborly.o_vector.calls",
    "neighborly.o_vector.self_s",
    "neighborly.pairs_per_s",
    "neighborly.ort.calls",
    "neighborly.ort.self_s",
    "signvec.orthogonality_degree.calls",
    "cyclic.c_value.calls",
    "cyclic.c_value.self_s",
    "cyclic.brute_force_entries",
    "harness.parse_database.self_s",
    "harness.compute_rows.self_s",
    "harness.checkpoint.append.calls",
    "harness.checkpoint.append.self_s",
    "harness.checkpoint.load.self_s",
    "harness.deletion_contraction_audit.self_s",
    "constructions.search_k_neighborly.self_s",
    "constructions.composite_construction.self_s",
    "constructions.disjoint_cocircuit_construction.self_s",
    "cli.self_s",
    "cli.output_bytes",
    "trace.coverage",
    "trace.overhead_s",
)


class Recorder:
    """Per-name totals of spans: [calls, self seconds]."""

    def __init__(self):
        self.spans: dict[str, list] = {name: [0, 0.0] for name in SPANS}
        self.counts: dict[str, int] = {name: 0 for name in COUNTED}
        self.members = 0  # circuits returned by circuit derivation
        self.pairs = 0  # sum of |C| * 2^(n-1) over o_vector calls
        self._children: list[list[float]] = []

    def _run(self, name, fn, args, kwargs):
        children = [0.0]
        self._children.append(children)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            self._children.pop()
            if self._children:
                self._children[-1][0] += took
            stat = self.spans[name]
            stat[0] += 1
            stat[1] += took - children[0]

    def span_wrapper(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # time every step of the generator, not its (empty) creation
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._run(name, next, (it,), {})
                    except StopIteration:
                        return
                    yield item

        elif name == "circuits.circuits_from_chirotope":

            def wrapper(*args, **kwargs):
                result = self._run(name, fn, args, kwargs)
                self.members += len(result.members)
                return result

        elif name == "neighborly.o_vector":

            def wrapper(cs, *args, **kwargs):
                self.pairs += len(cs.members) << (cs.n - 1)
                return self._run(name, fn, (cs,) + args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                return self._run(name, fn, args, kwargs)

        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list:
        """Wrap every target at every place it is looked up; returns the undo
        list for ``uninstall``."""
        importlib.import_module("orimat.cli")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "orimat"]
        undo = []
        for table, make in ((SPANS, self.span_wrapper), (COUNTED, self.count_wrapper)):
            for name, (module, path) in table.items():
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = make(name, original)
                sites = [(owner, attr)] + [
                    (m, key)
                    for m in modules
                    for key, value in vars(m).items()
                    if value is original and (m, key) != (owner, attr)
                ]
                for site, key in sites:
                    undo.append((site, key, getattr(site, key)))
                    setattr(site, key, wrapper)
        return undo

    @staticmethod
    def uninstall(undo: list):
        for site, key, original in reversed(undo):
            setattr(site, key, original)


def pass_metrics(rec: Recorder, pass_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except ``trace.overhead_s``."""
    spans = rec.spans

    def self_s(*names):
        return sum(spans[name][1] for name in names)

    kernel_s = self_s("neighborly.o_vector")
    return {
        "chirotope.parse_chirotope.calls": spans["chirotope.parse_chirotope"][0],
        "chirotope.lex_rank.calls": spans["chirotope.lex_rank"][0],
        "chirotope.lex_rank.self_s": self_s("chirotope.lex_rank"),
        "chirotope.contract.self_s": self_s("chirotope.contract"),
        "chirotope.delete.self_s": self_s("chirotope.delete"),
        "chirotope.dual.self_s": self_s("chirotope.dual"),
        "circuits.self_s": self_s("circuits.circuits_from_chirotope", "circuits.cocircuits"),
        "circuits.members": rec.members,
        "neighborly.o_vector.calls": spans["neighborly.o_vector"][0],
        "neighborly.o_vector.self_s": kernel_s,
        "neighborly.pairs_per_s": rec.pairs / kernel_s if kernel_s else 0.0,
        "neighborly.ort.calls": spans["neighborly.ort"][0],
        "neighborly.ort.self_s": self_s("neighborly.ort"),
        "signvec.orthogonality_degree.calls": rec.counts["signvec.orthogonality_degree"],
        "cyclic.c_value.calls": spans["cyclic.c_value"][0],
        "cyclic.c_value.self_s": self_s("cyclic.c_value"),
        "cyclic.brute_force_entries": rec.counts["cyclic.brute_force_entries"],
        "harness.parse_database.self_s": self_s("harness.parse_database"),
        "harness.compute_rows.self_s": self_s("harness.compute_rows"),
        "harness.checkpoint.append.calls": spans["harness.checkpoint.append"][0],
        "harness.checkpoint.append.self_s": self_s("harness.checkpoint.append"),
        "harness.checkpoint.load.self_s": self_s("harness.checkpoint.load"),
        "harness.deletion_contraction_audit.self_s": self_s("harness.deletion_contraction_audit"),
        "constructions.search_k_neighborly.self_s": self_s("constructions.search_k_neighborly"),
        "constructions.composite_construction.self_s": self_s("constructions.composite_construction"),
        "constructions.disjoint_cocircuit_construction.self_s": self_s(
            "constructions.disjoint_cocircuit_construction"
        ),
        "cli.self_s": self_s("cli.main"),
        "cli.output_bytes": output_bytes,
        "trace.coverage": self_s(*spans) / pass_s,
    }


COUNT_METRICS = tuple(m for m in METRICS if m.endswith((".calls", ".members", "_entries", "_bytes")))


def layer_metrics(untraced_s: list[float], traced: list[dict]) -> dict[str, float]:
    """Fold the traced passes: counts must repeat exactly, times are medians."""
    for metric in COUNT_METRICS:
        values = {p[metric] for p in traced}
        if len(values) != 1:
            raise RuntimeError(f"count {metric} differs between traced passes: {sorted(values)}")
    out = {m: traced[0][m] for m in COUNT_METRICS}
    out["trace.overhead_s"] = median(p["pass_s"] for p in traced) - median(untraced_s)
    out.update({m: median(p[m] for p in traced) for m in METRICS if m not in out})
    return out

