"""The diagram's memo holds its frame, H_1, the crossings' classes, the
anchor and the anchor's class, each built once per diagram object; the Fox
matrix and its determinant, which are the value, are built on every call."""

from dataclasses import fields, replace

import pytest

import suturant.foxcalc
import suturant.invariant
from suturant import (CharacterAssignment, FreeWord, all_characters,
                      apply_move, fox_matrix, homology, invariant_h0,
                      invariant_hn, rebase, torsion_class)
from suturant.cli import run
from suturant.errors import UnknownCurveError
from suturant.foxcalc import _classes, _walk, crossing_classes, \
    multipoint_class
from suturant.invariant import SpincRelative, anchor_multipoint
from suturant.moves import ReverseCurve
from conftest import (corpus_names, corpus_path, load, moved_and_rotated,
                      slid_and_back)


def _counting(monkeypatch, targets):
    """Calls of each (module, name), counted through the module attribute
    its caller reads."""
    calls = {}
    for module, name in targets:
        def counting(*args, _inner=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args)
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def counted(monkeypatch):
    """Calls of the H_1 presentation, the anchor search, the anchor's class
    and the determinant kernel."""
    return _counting(monkeypatch, ((suturant.foxcalc, "presented_group"),
                                   (suturant.invariant, "_anchor"),
                                   (suturant.invariant, "multipoint_class"),
                                   (suturant.foxcalc, "_det")))


@pytest.fixture
def walked(monkeypatch):
    """Calls of the class walk and of the determinant kernel."""
    return _counting(monkeypatch, ((suturant.foxcalc, "_walk"),
                                   (suturant.foxcalc, "_det")))


def test_every_entry_point_builds_the_frame_once(counted):
    """torsion_class, invariant_h0 and invariant_hn on both engines, on one
    diagram: one H_1, one anchor search and one anchor class, but one Fox
    determinant per Fox call."""
    diag = load("hopf")
    spinc = SpincRelative(anchor_multipoint(diag))
    chars = CharacterAssignment.from_character(
        all_characters(homology(diag), 2)[1])
    values = [torsion_class(diag), invariant_h0(diag, spinc)]
    values += [invariant_hn(diag, 2, chars, spinc, engine=engine)
               for engine in ("fox", "tensor")]
    values += [torsion_class(diag), invariant_h0(diag, spinc)]
    assert counted == {"presented_group": 1, "_anchor": 1,
                       "multipoint_class": 1, "_det": 5}
    assert values[4:] == values[:2]


@pytest.mark.parametrize("engine", ["fox", "tensor"])
def test_compute_builds_the_frame_once(counted, capsys, engine):
    """compute reads H_1 and the anchor, then the invariant reads them
    again from the memo."""
    argv = ["compute", str(corpus_path("hopf")), "--n", "2", "--all-chars",
            "--engine", engine]
    assert run(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8
    assert {k: counted[k] for k in ("presented_group", "_anchor",
                                    "multipoint_class")} == {
        "presented_group": 1, "_anchor": 1, "multipoint_class": 1}


def test_no_multipoint_is_kept_too(counted):
    diag = load("s1s2")
    assert anchor_multipoint(diag) is None
    assert anchor_multipoint(diag) is None
    assert counted == {"_anchor": 1}


def test_a_copy_starts_with_an_empty_memo():
    diag = load("trefoil")
    anchor = anchor_multipoint(diag)
    torsion_class(diag)
    assert diag.memo
    for copy in (replace(diag), diag.with_curves(diag.curves),
                 apply_move(diag, ReverseCurve("b1")), rebase(diag, anchor)):
        assert copy.memo == {}


def test_an_order_rule_breach_raises_on_every_call():
    trefoil = load("trefoil")
    broken = trefoil.with_curves(
        replace(c, order=c.order + ("x9",)) if c.id == "a1" else c
        for c in trefoil.curves)
    spinc = SpincRelative(anchor_multipoint(trefoil))
    for call in (lambda: homology(broken), lambda: torsion_class(broken),
                 lambda: invariant_h0(broken, spinc)):
        for _ in range(2):
            with pytest.raises(UnknownCurveError):
                call()
    assert suturant.foxcalc._homology not in broken.memo


def test_equality_and_hash_ignore_the_memo():
    diag, twin = load("figure8"), load("figure8")
    before = hash(diag)
    torsion_class(diag)
    invariant_h0(diag, SpincRelative(anchor_multipoint(diag)))
    assert len(diag.memo) == 4 and twin.memo == {}
    assert diag == twin and hash(diag) == hash(twin) == before
    assert "memo" not in {f.name for f in fields(diag)}


def _fresh(diag):
    """Alpha id -> its crossings' classes, from a walk of its own."""
    group = homology(diag)
    return {c.id: _walk(group, diag.ordered[c.id])
            for c in diag.family("alpha")}


@pytest.mark.parametrize("tensor_first", [False, True])
def test_every_entry_point_walks_each_alpha_once(walked, tensor_first):
    """torsion_class, invariant_h0 and invariant_hn on both engines, in
    either order, on a corpus diagram and a grown one: one walk per alpha
    curve of each diagram object, but one determinant per Fox call."""
    for diag in (load("hopf"), slid_and_back(load("trefoil"), 4)):
        walked.clear()
        spinc = SpincRelative(anchor_multipoint(diag))
        chars = CharacterAssignment.from_character(
            all_characters(homology(diag), 2)[1])
        engines = ("tensor", "fox") if tensor_first else ("fox", "tensor")
        values = [invariant_hn(diag, 2, chars, spinc, engine=engine)
                  for engine in engines]
        values += [torsion_class(diag), invariant_h0(diag, spinc)]
        values += [invariant_hn(diag, 2, chars, spinc, engine=engine)
                   for engine in engines]
        assert walked == {"_walk": len(diag.family("alpha")), "_det": 4}
        assert values[4:] == values[:2]


@pytest.mark.parametrize("engine", ["fox", "tensor"])
def test_compute_walks_each_alpha_once(walked, capsys, engine):
    """compute --all-chars on one loaded diagram: one walk per alpha, and
    one determinant on the Fox engine, none on the tensor engine."""
    argv = ["compute", str(corpus_path("hopf")), "--n", "2", "--all-chars",
            "--engine", engine]
    assert run(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8
    assert walked["_walk"] == len(load("hopf").family("alpha"))
    assert walked.get("_det", 0) == (engine == "fox")


def _frame_cases():
    """Every corpus diagram and its seeded move and rotated copies, each
    after the diagram it was made from, then every corpus base grown by
    slides to d = 2, 3 and 4."""
    yield from moved_and_rotated((name, load(name)) for name in corpus_names())
    for name in corpus_names():
        for d in (2, 3, 4):
            yield f"{name} grown to {d}", slid_and_back(load(name), d)


def test_the_kept_classes_are_the_diagrams_own():
    """On each case, after torsion_class and (with a multipoint)
    invariant_h0 have kept the classes, the kept classes, crossing_classes
    and each crossing's multipoint_class equal a fresh walk of that
    diagram, so no copy is served another diagram's classes."""
    for label, diag in _frame_cases():
        torsion_class(diag)
        if anchor_multipoint(diag) is not None:
            invariant_h0(diag, SpincRelative(anchor_multipoint(diag)))
        group, fresh = homology(diag), _fresh(diag)
        assert diag.memo[_classes] == fresh, label
        assert _classes(diag, group) == fresh, label
        assert crossing_classes(diag, group) == {
            x.id: k for c in diag.closed_alphas
            for x, k in zip(diag.ordered[c.id], fresh[c.id])}, label
        for c in diag.family("alpha"):
            for x, k in zip(diag.ordered[c.id], fresh[c.id]):
                assert multipoint_class(diag, group, (x.id,)) == k, label


def test_a_copy_gets_classes_of_its_own():
    """A replace, with_curves, move or rebase copy of a diagram whose
    classes are kept starts without them, and gets its own from a walk."""
    diag = load("figure8")
    anchor = anchor_multipoint(diag)
    torsion_class(diag)
    assert _classes in diag.memo
    for copy in (replace(diag), diag.with_curves(diag.curves),
                 apply_move(diag, ReverseCurve("a1")), rebase(diag, anchor)):
        assert _classes not in copy.memo
        fox_matrix(copy)
        assert copy.memo[_classes] == _fresh(copy)


def test_an_order_rule_breach_keeps_no_classes():
    """A diagram breaking the order rule raises from every function that
    reads the classes, on every call, and keeps none."""
    trefoil = load("trefoil")
    broken = trefoil.with_curves(
        replace(c, order=c.order + ("x9",)) if c.id == "a1" else c
        for c in trefoil.curves)
    for call in (lambda: crossing_classes(broken, None),
                 lambda: multipoint_class(broken, None, ("x1",)),
                 lambda: fox_matrix(broken), lambda: torsion_class(broken)):
        for _ in range(2):
            with pytest.raises(UnknownCurveError):
                call()
    assert broken.memo == {}


def test_a_pick_on_an_arc_gets_the_class_of_its_arcs_prefix():
    """A pick outside the closed alphas, on an alpha arc, is classed by the
    class rule on its arc: the word up to its basepoint, which sits before
    a positive crossing and after a negative one.  Every arc crossing of
    the corpus and its move and rotated copies."""
    seen = 0
    for label, diag in moved_and_rotated(
            (name, load(name)) for name in corpus_names()):
        group = homology(diag)
        for c in diag.family("alpha"):
            if c.closed:
                continue
            xs = diag.ordered[c.id]
            for i, x in enumerate(xs):
                prefix = FreeWord(tuple((y.beta, y.sign)
                                        for y in xs[:i + (x.sign < 0)]))
                assert multipoint_class(diag, group, (x.id,)) == \
                    group.project_word(prefix), (label, x.id)
                seen += 1
    assert seen
