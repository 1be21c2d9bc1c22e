"""The diagram's memo holds its frame, H_1, the anchor and the anchor's
class, each built once per diagram object; the Fox matrix and its
determinant, which are the value, are built on every call."""

from dataclasses import fields, replace

import pytest

import suturant.foxcalc
import suturant.invariant
from suturant import (CharacterAssignment, all_characters, apply_move,
                      homology, invariant_h0, invariant_hn, rebase,
                      torsion_class)
from suturant.cli import run
from suturant.errors import UnknownCurveError
from suturant.invariant import SpincRelative, anchor_multipoint
from suturant.moves import ReverseCurve
from conftest import corpus_path, load


@pytest.fixture
def counted(monkeypatch):
    """Calls of the H_1 presentation, the anchor search, the anchor's class
    and the determinant kernel, each counted through the module attribute
    its caller reads."""
    calls = {}
    for module, name in ((suturant.foxcalc, "presented_group"),
                         (suturant.invariant, "_anchor"),
                         (suturant.invariant, "multipoint_class"),
                         (suturant.foxcalc, "_det")):
        def counting(*args, _inner=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args)
        monkeypatch.setattr(module, name, counting)
    return calls


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
    assert len(diag.memo) == 3 and twin.memo == {}
    assert diag == twin and hash(diag) == hash(twin) == before
    assert "memo" not in {f.name for f in fields(diag)}
