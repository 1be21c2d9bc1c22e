"""Duality as an oracle that needs no second engine and no golden file:
the torsion class of a knot or link exterior with meridional sutures, and
of a rational homology sphere with one suture, is symmetric under
g -> g^-1 up to +-g (Milnor, "A duality theorem for Reidemeister torsion",
Ann. Math. 76, 1962; Torres, Ann. Math. 57, 1953).  Moves keep the
manifold, so the symmetry holds on every moved, grown and long diagram
built from a corpus base."""

import time

from suturant import parse_diagram
from suturant.foxcalc import GroupRingElement, canonical_class, class_equal
from suturant.invariant import torsion_class

from conftest import (SEED, corpus_names, load, moved_and_rotated,
                      slid_and_back)
from test_long_diagrams import chain_text, stabilized_trefoil_text

SLID = ("hopf", "trefoil", "figure8", "lens_3_1", "lens_7_1")
LONG = 200


def mirrored(cls_):
    """The class with every term key k sent to normalize(-k)."""
    rep = cls_.representative
    group = rep.group
    return canonical_class(GroupRingElement(group, {
        group.normalize([-x for x in k]): c for k, c in rep.terms.items()}))


def inputs():
    bases = [(name, load(name)) for name in corpus_names()]
    yield from moved_and_rotated(bases, range(SEED, SEED + 6))
    for name in SLID:
        for d in range(4, 9):
            yield f"{name} slid and back to d = {d}", slid_and_back(
                load(name), d)
    yield f"chain d = {LONG}", parse_diagram(chain_text(LONG))
    yield (f"trefoil stabilized {LONG} times",
           parse_diagram(stabilized_trefoil_text(LONG)))


def test_every_class_is_symmetric_under_inversion():
    start = time.perf_counter()
    labels = []
    for label, diag in inputs():
        cls_ = torsion_class(diag)
        assert class_equal(mirrored(cls_), cls_), (label, str(cls_))
        labels.append(label)
    elapsed = time.perf_counter() - start
    assert len(labels) >= 200
    assert elapsed < 2.0, elapsed
