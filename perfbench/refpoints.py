"""Reference points for the scaling walls of the two engines.

    python3 perfbench/refpoints.py

Prints one JSON object, recorded under ``reference_points`` in
``baseline.json``, with two tables, each row the median of three
timings on a diagram from ``grow.py`` (flip seed 0):

* ``tensor_vs_alpha_slots``: ``invariant_hn(engine="tensor")`` at n = 3 on
  Hopf grown to d = 2, 3, 4, with the alpha slots and the coproduct term
  space it walks (``kuperberg.term_space`` of one traced call);
* ``multipoints_vs_d``: ``enumerate_multipoints``, ``fox_determinant`` and
  ``torsion_class`` on the trefoil grown to d = 2..7.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import grow  # noqa: E402
from suturant import diagram, foxcalc, invariant  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from suturant.invariant import SpincRelative  # noqa: E402
from suturant.kuperberg import CharacterAssignment  # noqa: E402

TENSOR_RECIPES = (grow.Recipe("hopf", 2, 3, 1), grow.Recipe("hopf", 3, 3, 1),
                  grow.Recipe("hopf", 4, 3, 1))
FOX_RECIPES = tuple(grow.Recipe("trefoil", d, 8, 0) for d in range(2, 8))


def median_ms(fn, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def tensor_rows():
    rows = []
    for recipe in TENSOR_RECIPES:
        diag = grow.grow(grow.load_corpus(ROOT, recipe.base), recipe, 0).diag
        group = foxcalc.homology(diag)
        chars = CharacterAssignment.from_character(
            foxcalc.Character(group, 3, (1,) * group.rank))
        spinc = SpincRelative(diagram.enumerate_multipoints(diag)[0])

        def op():
            return invariant.invariant_hn(diag, 3, chars, spinc,
                                          engine="tensor")
        tracer = Tracer()
        tracer.install()
        tracer.call("term_space", op)
        tracer.uninstall()
        rows.append({
            "recipe": recipe.name, "d": diag.d,
            "alpha_slots": sum(len(c.order) for c in diag.family("alpha")),
            "term_space": summarize(tracer.spans, {})["term_space"],
            "tensor_ms": median_ms(op)})
    return rows


def fox_rows():
    rows = []
    for recipe in FOX_RECIPES:
        diag = grow.grow(grow.load_corpus(ROOT, recipe.base), recipe, 0).diag
        group = foxcalc.homology(diag)
        rows.append({
            "recipe": recipe.name, "d": diag.d,
            "crossings": len(diag.crossings),
            "multipoints": len(diagram.enumerate_multipoints(diag)),
            "enumerate_ms": median_ms(
                lambda: diagram.enumerate_multipoints(diag)),
            "fox_determinant_ms": median_ms(
                lambda: foxcalc.fox_determinant(diag, group)),
            "torsion_class_ms": median_ms(
                lambda: invariant.torsion_class(diag))})
    return rows


def main():
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "tensor_vs_alpha_slots": tensor_rows(),
        "multipoints_vs_d": fox_rows()}, indent=2))


if __name__ == "__main__":
    main()
