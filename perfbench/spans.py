"""Spans and work counters recorded around calls into the tetracurves layers.

The tracer wraps a fixed set of public functions, one or more per layer.  A
wrapper replaces the function in its defining module and in every tetracurves
module that imported it by name, so a call the library makes to another
layer (``classify`` -> ``reduction_trace``) is recorded as a child span of
the call that caused it.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter

# layer module -> traced public functions
TRACED = {
    "tuples": ("reduction_trace", "regularity_closed_form", "degree_of_tuple"),
    "resolution": ("classify", "betti_table"),
    "gin": ("gin_of_curve", "ek_betti"),
    "monomials": ("ideal_of_tuple", "hilbert_data"),
    "koszul": ("betti_table_oracle",),
    "groebner": ("gin_oracle",),
}

# exception names that count as groebner.errors
ORACLE_ERRORS = ("DisagreementError", "NotBorelFixedError")


def _multidegrees(ideal) -> int:
    """Candidate multidegrees the Koszul oracle visits: prod(max exponent + 1)."""
    return math.prod(max(g.exps[k] for g in ideal.generators) + 1 for k in range(4))


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# span name -> work counted from (result, args, kwargs) of a call that returned
COUNTERS = {
    "tuples.reduction_trace": lambda r, a, k: {"tuples.trace_steps": len(r.steps)},
    "resolution.betti_table": lambda r, a, k: {"resolution.betti_entries": len(r.entries)},
    "gin.gin_of_curve": lambda r, a, k: (
        {"gin.unsupported": 1} if r is None else {"gin.generators": len(r.generators)}
    ),
    "monomials.ideal_of_tuple": lambda r, a, k: {"monomials.ideal_generators": len(r.generators)},
    # computed, not observed: the size of the degree <= upto simplex, C(upto+4, 4)
    "monomials.hilbert_data": lambda r, a, k: {
        "monomials.hilbert_monomials": math.comb(_arg(a, k, 1, "upto") + 4, 4)
    },
    "koszul.betti_table_oracle": lambda r, a, k: {"koszul.multidegrees": _multidegrees(_arg(a, k, 0, "ideal"))},
    "groebner.gin_oracle": lambda r, a, k: {"groebner.oracle_generators": len(r.generators)},
}


class Tracer:
    """Records one span per traced call: [name, start, end, case, parent, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.case = -1  # id of the current case, counted by the benchmark
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, self.case, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counts.update(counter(result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "tetracurves" or k.startswith("tetracurves.")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"tetracurves.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self.patch(module, attr, wrapper)

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr by wrapper until uninstall."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def trace_call(self, owner, attr: str, name: str) -> None:
        """Record spans named name around owner.attr, e.g. a subprocess call."""
        self.patch(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def busy(self, scale) -> tuple[Counter, float]:
        """Inclusive seconds per span name, each span scaled by scale(start),
        and the seconds of the spans the benchmark opened (no parent)."""
        out: Counter = Counter()
        root = 0.0
        for name, start, end, _, parent, _ in self.spans:
            seconds = (end - start) * scale(start)
            out[name] += seconds
            if parent is None:
                root += seconds
        return out, root

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def errors(self, name: str, kinds: tuple[str, ...]) -> int:
        return sum(1 for span in self.spans if span[0] == name and span[5] in kinds)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "case", "parent", "error")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
