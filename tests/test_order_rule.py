"""The order rule is read once, from the diagram's index, by both engines
and by ``validate``: on a diagram that breaks it, both engines raise the
same ``SuturantError`` subclass and no reader of the orders raises
anything else."""

import random
from dataclasses import replace

import pytest

from suturant import (CharacterAssignment, Curve, Multipoint, SuturantError,
                      all_characters, alpha_word, beta_word, build_hn,
                      contract, contract_values, epsilon_class,
                      fox_determinant, homology,
                      invariant_h0, invariant_hn_values, rebase,
                      torsion_class, validate)
from suturant.errors import NonSquareError
from suturant.foxcalc import multipoint_class
from suturant.invariant import SpincRelative, anchor_multipoint

from conftest import SEED, corpus_names, load, moved_and_rotated

ORDER_LINES = ("Membership", "DoubleUse", "Coverage")


def _with_orders(diag, **orders):
    """The diagram with the named curves' orders replaced."""
    return diag.with_curves(
        replace(c, order=tuple(orders[c.id].split())) if c.id in orders
        else c for c in diag.curves)


def _extra_closed_beta(diag):
    """The diagram with one more closed beta, without crossings, placed
    after the closed betas so that only ``Balanced`` fails."""
    curves = list(diag.curves)
    at = curves.index(diag.closed_betas[-1]) + 1
    curves.insert(at, Curve("b9", "beta", "closed", ()))
    return diag.with_curves(curves)


CORRUPTIONS = {
    "x3 on b2's order instead of b1's": ("trefoil", lambda d: _with_orders(
        d, b1="x1 x5", b2="x4 x2 x3")),
    "x3 dropped from b1's order": ("trefoil", lambda d: _with_orders(
        d, b1="x1 x5")),
    "unknown id on b2's order": ("hopf", lambda d: _with_orders(
        d, b2="c5 c7 c9")),
    "c1 repeated on a1's order": ("hopf", lambda d: _with_orders(
        d, a1="c1 c2 c3 c4 c1")),
    "x1's beta is no curve": ("trefoil", lambda d: replace(d, crossings=tuple(
        replace(x, beta="zz") if x.id == "x1" else x for x in d.crossings))),
    "an extra closed beta": ("trefoil", _extra_closed_beta),
}


def _raised(fn):
    """The SuturantError subclass ``fn`` raises, or None when it returns;
    any other exception propagates."""
    try:
        fn()
    except SuturantError as err:
        return type(err)
    return None


@pytest.mark.parametrize("label", sorted(CORRUPTIONS))
def test_both_engines_accept_and_reject_the_same_diagrams(label):
    name, corrupt = CORRUPTIONS[label]
    base = load(name)
    diag = corrupt(base)
    assert not validate(diag).passed
    group = homology(base)
    chars = [CharacterAssignment.from_character(chi)
             for chi in all_characters(group, 3)]
    anchor = anchor_multipoint(base)
    spinc = SpincRelative(anchor)
    fox, tensor = (_raised(lambda: invariant_hn_values(
        diag, 3, chars, spinc, engine=engine)) for engine in ("fox", "tensor"))
    assert fox is not None and fox is tensor, (fox, tensor)
    calls = [lambda: rebase(diag, anchor),
             lambda: epsilon_class(diag, anchor, anchor),
             lambda: multipoint_class(diag, group, anchor.picks),
             lambda: contract_values(diag, build_hn(3), chars),
             lambda: torsion_class(diag)]
    calls += [lambda c=c: (alpha_word if c.family == "alpha" else beta_word)(
        diag, c.id) for c in diag.curves]
    for call in calls:
        _raised(call)


def test_both_engines_refuse_an_unbalanced_diagram():
    """Trefoil with one more closed beta, at the characters of its own
    H_1: each engine raises NonSquareError before any determinant or
    sweep."""
    diag = _extra_closed_beta(load("trefoil"))
    chars = [CharacterAssignment.from_character(chi)
             for chi in all_characters(homology(diag), 3)]
    for engine in ("fox", "tensor"):
        with pytest.raises(NonSquareError):
            invariant_hn_values(diag, 3, chars,
                                SpincRelative(anchor_multipoint(diag)),
                                engine=engine)


def _unbalanced():
    """The unknot with one closed beta without crossings (d = 0, so no
    Fox row and an empty determinant) and the trefoil with one more."""
    unknot = load("unknot")
    yield unknot.with_curves(list(unknot.curves)
                             + [Curve("b9", "beta", "closed", ())])
    yield _extra_closed_beta(load("trefoil"))


def test_the_torsion_class_refuses_an_unbalanced_diagram():
    """On both :func:`_unbalanced` diagrams the torsion class raises
    NonSquareError, as invariant_h0 and both invariant_hn engines do."""
    for diag in _unbalanced():
        spinc = SpincRelative(Multipoint(()))
        for call in (lambda: torsion_class(diag),
                     lambda: invariant_h0(diag, spinc),
                     *(lambda e=e: invariant_hn_values(
                         diag, 2, [], spinc, engine=e)
                       for e in ("fox", "tensor"))):
            with pytest.raises(NonSquareError):
                call()


def test_each_engine_refuses_an_unbalanced_diagram_at_its_entry_point():
    """Called directly, the Fox determinant, with or without the group,
    and the contraction raise NonSquareError on both :func:`_unbalanced`
    diagrams, where they once gave 1 and 0."""
    for diag in _unbalanced():
        for call in (lambda: fox_determinant(diag),
                     lambda: fox_determinant(diag, homology(diag)),
                     lambda: contract(diag, build_hn(2),
                                      CharacterAssignment.trivial())):
            with pytest.raises(NonSquareError):
                call()


def _order_breaks(diag, rng):
    """The diagram and four seeded breaks of one of its orders: an id
    dropped, repeated, taken from another curve of the family, unknown."""
    yield diag
    curves = [c for c in diag.curves if c.order]
    if not curves:
        return
    c = rng.choice(curves)
    xid = rng.choice(c.order)
    others = [x for o in diag.family(c.family) if o is not c for x in o.order]
    cuts = [tuple(x for x in c.order if x != xid), c.order + (xid,),
            c.order + ("zz9",)]
    if others:
        cuts.append(c.order + (rng.choice(others),))
    for order in cuts:
        yield diag.with_curves(replace(o, order=order) if o is c else o
                               for o in diag.curves)


def test_the_index_builds_exactly_when_the_order_lines_pass():
    rng = random.Random(SEED + 22)
    for label, base in moved_and_rotated(
            (name, load(name)) for name in corpus_names()):
        for diag in _order_breaks(base, rng):
            lines_pass = all(e.ok for e in validate(diag).entries
                             if e.check.startswith(ORDER_LINES))
            assert (_raised(lambda: diag.place) is None) == lines_pass, label
