"""Spans around the calls one suturant module makes into another.

The tracer replaces module attributes with wrappers: the name a module
imported from another module (``suturant.invariant.enumerate_multipoints``)
and the defining module's own global (``suturant.diagram.rebase``, for
calls that look it up at call time).  Each wrapper records a span with its
name, start, end, parent span and op id.  Spans stay in memory until the
run ends.  ``CyclotomicScalar.from_coeffs`` is far too hot for spans and
only counts calls.

Nothing is wrapped until ``install`` and everything is restored by
``uninstall``, so an untraced pass runs the program's own functions.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# span name -> modules whose attribute of that name is wrapped.  The span
# name is "<defining module>.<function>".
TARGETS = {
    "diagram.parse_diagram": ("diagram", "cli"),
    "diagram.validate": ("diagram", "cli"),
    "diagram.enumerate_multipoints": ("diagram", "invariant", "cli"),
    "diagram.rebase": ("diagram", "invariant"),
    "diagram.epsilon_class": ("diagram", "invariant"),
    "foxcalc.homology": ("foxcalc", "invariant", "cli"),
    "foxcalc.fox_matrix": ("foxcalc",),
    "foxcalc.determinant": ("foxcalc",),
    "foxcalc.fox_determinant": ("foxcalc", "invariant"),
    "foxcalc.canonical_class": ("foxcalc", "invariant"),
    "foxcalc.evaluate": ("foxcalc", "invariant"),
    "foxcalc.all_characters": ("foxcalc", "cli"),
    "kuperberg.contract": ("kuperberg", "invariant", "cli"),
    "algebra.coproduct_power": ("algebra",),
    "algebra.build_hn": ("algebra", "invariant", "cli"),
    "algebra.build_cyclic_group_algebra": ("algebra", "cli"),
    "algebra.check_axioms": ("algebra", "cli"),
    "moves.apply_move": ("moves", "cli"),
    "moves.generator_map": ("moves",),
    "invariant.torsion_class": ("invariant", "cli"),
    "invariant.invariant_h0": ("invariant",),
    "invariant.invariant_hn": ("invariant", "cli"),
    "cli.run": ("cli",),
}

# span name -> size of the result, summed into the span's "size".  The
# lengths of the iterated coproducts also give kuperberg.term_space (see
# ``summarize``).
SIZES = {
    "diagram.enumerate_multipoints": len,
    "foxcalc.fox_matrix": len,
    "foxcalc.determinant": lambda el: len(el.terms),
    "foxcalc.all_characters": len,
    "algebra.coproduct_power": len,
}


CONTRACT = "kuperberg.contract"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "size")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.size = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None            # spans are recorded only while set
        self.from_coeffs = defaultdict(int)
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            return
        for name, homes in TARGETS.items():
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"suturant.{mod}"), fn)
            wrapper = self._wrap(name, original)
            for home in homes:
                module = importlib.import_module(f"suturant.{home}")
                self._saved.append((module, fn, getattr(module, fn)))
                setattr(module, fn, wrapper)
        cyclo = importlib.import_module("suturant.cyclotomic")
        cls = cyclo.CyclotomicScalar
        raw = cls.__dict__["from_coeffs"]
        self._saved.append((cls, "from_coeffs", raw))
        counts, inner = self.from_coeffs, raw.__func__

        def counted(klass, coeffs, order):
            if self.op is not None:
                counts[self.op] += 1
            return inner(klass, coeffs, order)

        cls.from_coeffs = classmethod(counted)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if size_of is not None:
                span.size += size_of(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording ---------------------------------------------------------

    def call(self, op, fn):
        """Run ``fn`` as op ``op`` with recording on."""
        self.op = op
        try:
            return fn()
        finally:
            self.op = None

    def write(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": index[id(s.parent)] if s.parent else None,
                 "op": s.op, "size": s.size} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows,
                       "from_coeffs_calls": dict(self.from_coeffs)}, fh)


def summarize(spans, from_coeffs_calls):
    """Per-name calls, busy time (outermost spans of the name only), self
    time and summed sizes, plus per-layer self time and the term space:
    over all contractions, the product of the lengths of the iterated
    coproducts each one expands."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] += s.end - s.start
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    size = defaultdict(int)
    layer_self = defaultdict(float)
    term_space = {id(s): 1 for s in spans if s.name == CONTRACT}
    for s in spans:
        dur = s.end - s.start
        calls[s.name] += 1
        size[s.name] += s.size
        own = dur - child_time[id(s)]
        self_time[s.name] += own
        layer_self[s.name.split(".")[0]] += own
        node = s.parent
        while node is not None and node.name != s.name:
            node = node.parent
        if node is None:
            busy[s.name] += dur
        if s.name == "algebra.coproduct_power":
            node = s.parent
            while node is not None and node.name != CONTRACT:
                node = node.parent
            if node is not None:
                term_space[id(node)] *= s.size
    return {"calls": calls, "busy": busy, "self": self_time, "size": size,
            "layer_self": layer_self, "term_space": sum(term_space.values()),
            "from_coeffs": from_coeffs_calls}
