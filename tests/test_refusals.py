"""Refusals: each bad diagram line, move line, move, CLI flag and
multipoint, and work past a stated budget, raises its ``SuturantError``
subclass, and through ``cli.run`` exits 1 with an ``error:`` line and no
traceback."""

import dataclasses
import time

import pytest

from suturant import (AddTrivialHandles, BudgetExceededError, CancelFinger,
                      Destabilize, DuplicateIdError, FingerIsotopy,
                      HandleslideCurve, IllegalMoveError,
                      InvalidMultipointError, Multipoint, ParseError,
                      ReorderCurves, ReverseCurve, Stabilize,
                      UnknownCurveError, apply_move, build_hn,
                      canonical_class, fox_determinant, multipoint_expansion,
                      multipoint_sign, parse_diagram, parse_move_script,
                      serialize_diagram, validate)
from suturant import cli, diagram, foxcalc, moves
from suturant.cli import run
from suturant.kuperberg import _Rules

from conftest import corpus_path, load, slid_and_back
from test_smith_normal_form import RECORDED, recorded_diagram

HEAD = "diagram t\nalpha a1 closed\nbeta b1 closed\ncrossing x1 a1 b1 +\n"


def refused(capsys, argv, *words):
    """Run the CLI, which must exit 1 with one ``error:`` line holding
    ``words`` and print nothing on stdout."""
    assert run([str(a) for a in argv]) == 1, argv
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:"), (argv, err)
    assert "Traceback" not in err and err.count("\n") == 1, (argv, err)
    for word in words:
        assert word in err, (argv, err)


# -- diagram files ------------------------------------------------------------

@pytest.mark.parametrize("error, text, words", [
    (ParseError, "diagram a b\n", "expected: diagram"),
    (ParseError, "alpha a1\n", "expected: alpha"),
    (ParseError, "beta b1 loop\n", "expected: beta"),
    (DuplicateIdError, "alpha a1 closed\nalpha a1 arc\n", "curve a1"),
    (ParseError, HEAD + "crossing x2 a1 b1\n", "expected: crossing"),
    (ParseError, HEAD + "crossing x2 a1 b1 0\n", "expected: crossing"),
    (DuplicateIdError, HEAD + "crossing x1 a1 b1 -\n", "crossing x1"),
    (ParseError, HEAD + "crossing x2 b1 b1 +\n", "unknown alpha curve b1"),
    (ParseError, HEAD + "crossing x2 a1 a1 +\n", "unknown beta curve a1"),
    (ParseError, HEAD + "order gamma a1 : x1\n", "expected: order"),
    (ParseError, HEAD + "order alpha a1 x1\n", "expected: order"),
    (ParseError, HEAD + "order alpha b1 : x1\n", "unknown alpha curve b1"),
    (DuplicateIdError, HEAD + "order beta b1 : x1\norder beta b1 :\n",
     "order for b1"),
    (ParseError, HEAD + "multipoint m1 x1\n", "expected: multipoint"),
    (DuplicateIdError, HEAD + "multipoint m1 : x1\nmultipoint m1 :\n",
     "multipoint m1"),
    (ParseError, HEAD + "twist a1\n", "unknown directive 'twist'"),
])
def test_each_bad_diagram_line_is_refused(tmp_path, capsys, error, text,
                                          words):
    with pytest.raises(error):
        parse_diagram(text)
    path = tmp_path / "bad.hd"
    path.write_text(text)
    refused(capsys, ["validate", path], words)


# -- move scripts -------------------------------------------------------------

def test_the_move_script_grammar():
    assert parse_move_script(
        "reorder alpha closed : a2 a1  # swap\n\n"
        "destabilize c8 c9\ncancel x6 x7\nreverse beta b1\nstabilize\n"
        "finger a1@2 b1@0 -+\nfinger a2@0 b2@1 -\n"
        "handleslide b1 over b2 (a1@2 -) (a2@0 +)\ntrivial-handles 3\n") == [
        ReorderCurves("alpha", "closed", ("a2", "a1")),
        Destabilize("c8", "c9"), CancelFinger("x6", "x7"),
        ReverseCurve("b1"), Stabilize(),
        FingerIsotopy("a1", "b1", 2, 0, plus_first=False),
        FingerIsotopy("a2", "b2", 0, 1, plus_first=False, single=True),
        HandleslideCurve("b1", "b2", (("a1", 2, -1), ("a2", 0, 1))),
        AddTrivialHandles(3)]


@pytest.mark.parametrize("line, words", [
    ("reorder alpha closed a2 a1", "malformed move line"),
    ("destabilize c8", "malformed move line"),
    ("cancel x6", "malformed move line"),
    ("finger a1@0 b1@0 ++", "malformed move line"),
    ("finger a1@x b1@0 +-", "malformed move line"),
    ("finger a1 b1@0 +-", "malformed move line"),
    ("handleslide a2 a1", "malformed move line"),
    ("twist a1", "unknown move 'twist'"),
    ("reverse", "malformed move line"),
    ("trivial-handles many", "malformed move line"),
])
def test_each_bad_move_line_is_refused(tmp_path, capsys, line, words):
    with pytest.raises(ParseError, match="line 2"):
        parse_move_script("stabilize\n" + line + "\n")
    script = tmp_path / "moves.txt"
    script.write_text("stabilize\n" + line + "\n")
    refused(capsys, ["move", corpus_path("trefoil"), "--script", script],
            "line 2", words)


# -- moves --------------------------------------------------------------------

@pytest.mark.parametrize("name, line, error, words", [
    ("trefoil", "finger a1@6 b1@0 +-", IllegalMoveError,
     "position 6 out of range"),
    ("trefoil", "finger a1@0 b1@-1 +-", IllegalMoveError,
     "position -1 out of range"),
    ("trefoil", "finger b1@0 a1@0 +-", IllegalMoveError,
     "one alpha and one beta"),
    ("trefoil", "finger a1@0 b2@0 +", IllegalMoveError, "two arcs"),
    ("trefoil", "finger a2@0 b2@1 +", IllegalMoveError, "at an end"),
    ("trefoil", "cancel x1 x2", IllegalMoveError, "different curve pairs"),
    ("trefoil", "cancel x1 x5", IllegalMoveError, "not oppositely signed"),
    ("trefoil", "cancel x1 x3", IllegalMoveError, "not adjacent"),
    ("trefoil", "destabilize a2 b2", IllegalMoveError, "needs closed curves"),
    ("trefoil", "destabilize a1 b1", IllegalMoveError,
     "interacts with other curves"),
    ("trefoil", "handleslide a1 over a1", IllegalMoveError, "over itself"),
    ("trefoil", "handleslide a1 over b1", IllegalMoveError,
     "within one family"),
    ("trefoil", "handleslide a1 over a2", IllegalMoveError, "over an arc"),
    ("hopf", "handleslide a2 over a1 (a3@0 +)", IllegalMoveError,
     "a3 is not in the beta family"),
    ("hopf", "handleslide a2 over a1 (b3@5 +)", IllegalMoveError,
     "position 5 out of range"),
    ("trefoil", "reorder alpha closed : a1 a2", IllegalMoveError,
     "block mismatch"),
    ("trefoil", "trivial-handles -1", IllegalMoveError, "count must be >= 0"),
    ("trefoil", "reverse alpha a9", UnknownCurveError, "a9"),
    ("trefoil", "cancel x1 x9", UnknownCurveError, "crossing x9"),
])
def test_each_illegal_move_is_refused(tmp_path, capsys, name, line, error,
                                      words):
    (move,) = parse_move_script(line)
    with pytest.raises(error, match=words):
        apply_move(load(name), move)
    script = tmp_path / "moves.txt"
    script.write_text(line + "\n")
    refused(capsys, ["move", corpus_path(name), "--script", script], words)


def test_trivial_handles_are_bounded_by_the_diagram_they_leave(
        tmp_path, capsys, trefoil):
    """The largest count that leaves at most ``MAX_CURVES`` curves is
    accepted; one more is refused, also when it comes on a later line."""
    count = (moves.MAX_CURVES - len(trefoil.curves)) // 2
    grown = apply_move(trefoil, AddTrivialHandles(count))
    assert len(grown.curves) == moves.MAX_CURVES
    for diag, more in ((trefoil, count + 1), (grown, 1)):
        with pytest.raises(IllegalMoveError, match="more than"):
            apply_move(diag, AddTrivialHandles(more))
    script = tmp_path / "moves.txt"
    for text in (f"trivial-handles {count + 1}\n",
                 f"trivial-handles {count}\ntrivial-handles 1\n"):
        script.write_text(text)
        refused(capsys, ["move", corpus_path("trefoil"), "--script", script],
                f"more than {moves.MAX_CURVES} curves")


def test_a_packed_determinant_past_its_budget_is_refused(tmp_path, capsys):
    """The 194-crossing diagram whose relation matrix is the recorded
    6 x 6 (H_1 = Z/2399650): its Fox matrix has no unit, and packing it
    would take 407,246,163 bits per entry, past ``MAX_PACKED_BITS``.
    ``class`` and ``compute --engine fox`` exit 1 within a second."""
    text = recorded_diagram(RECORDED["6x6"])
    with pytest.raises(BudgetExceededError, match="407246163 bits"):
        fox_determinant(parse_diagram(text))
    path = tmp_path / "recorded.hd"
    path.write_text(text)
    for argv in (["class", path],
                 ["compute", path, "--engine", "fox", "--n", "2",
                  "--char", "t=1"]):
        start = time.perf_counter()
        refused(capsys, argv, f"more than {foxcalc.MAX_PACKED_BITS}")
        assert time.perf_counter() - start < 1, argv


def test_characters_past_their_budget_are_refused(capsys):
    """``compute`` counts its candidate characters, once the coordinate
    keys are fixed, before it builds any: 2,097,152 characters of order 128
    on Hopf, or one of order 10^8, exit 1 within a second."""
    for argv, count, order in (
            (["compute", corpus_path("hopf"), "--n", "128", "--all-chars"],
             2097152, 128),
            (["compute", corpus_path("hopf"), "--n", "128",
              "--char", "b1=1"], 2097152, 128),
            (["compute", corpus_path("trefoil"), "--n", "1",
              "--order", "100000000", "--char", "t=0"], 1, 100000000)):
        start = time.perf_counter()
        refused(capsys, argv, f"{count} candidate character(s) of order "
                f"{order}", f"at most {cli.MAX_CHARACTER_WORK}")
        assert time.perf_counter() - start < 1, argv


def lens_text(p):
    """L(p, 1): one closed alpha meeting one closed beta p times, all
    crossings positive, so H_1 = Z/p and the class has p terms."""
    xs = " ".join(f"x{i}" for i in range(p))
    return "\n".join(["diagram lens", "alpha a1 closed", "beta b1 closed"]
                     + [f"crossing x{i} a1 b1 +" for i in range(p)]
                     + [f"order alpha a1 : {xs}",
                        f"order beta b1 : {xs}"]) + "\n"


def test_ranking_translates_past_its_budget_is_refused(tmp_path, capsys):
    """L(4000, 1) has 4,000 torsion translates of 4,000 terms to rank:
    ``class`` and ``compare`` exit 1 within a second.  L(512, 1) is the
    largest L(p, 1) admitted."""
    with pytest.raises(BudgetExceededError, match="513 term"):
        canonical_class(fox_determinant(parse_diagram(lens_text(513))))
    assert len(canonical_class(fox_determinant(parse_diagram(
        lens_text(512)))).representative.terms) == 512
    path = tmp_path / "lens.hd"
    path.write_text(lens_text(4000))
    for argv in (["class", path], ["compare", path, path]):
        start = time.perf_counter()
        refused(capsys, argv, "4000 term(s) at 4000 torsion translate(s)",
                f"exceeds {foxcalc.MAX_CLASS_WORK}")
        assert time.perf_counter() - start < 1, argv


def test_multipoints_past_their_budget_are_refused(tmp_path, capsys):
    """Hopf slid and back to d = 7 has 73,383,098 multipoints: the search
    stops past ``MAX_MULTIPOINTS`` leaves, for ``multipoints`` within 5 s
    and for the multipoint expansion."""
    diag = slid_and_back(load("hopf"), 7)
    with pytest.raises(BudgetExceededError, match="multipoints"):
        multipoint_expansion(diag)
    path = tmp_path / "hopf7.hd"
    path.write_text(serialize_diagram(diag))
    start = time.perf_counter()
    refused(capsys, ["multipoints", path],
            f"more than {diagram.MAX_MULTIPOINTS} multipoints")
    assert time.perf_counter() - start < 5


def test_moves_no_script_can_write_are_refused(hopf):
    for move, words in (
            (HandleslideCurve("a2", "a1", (("b3", 0, 2),)), "delta sign"),
            (object(), "unknown move")):
        with pytest.raises(IllegalMoveError, match=words):
            apply_move(hopf, move)


# -- CLI flags ----------------------------------------------------------------

def test_compute_refuses_an_unknown_multipoint_name(capsys):
    refused(capsys, ["compute", corpus_path("trefoil"), "--n", "3",
                     "--all-chars", "--multipoint", "m9"],
            "no multipoint named 'm9'")


def test_compute_refuses_a_char_entry_without_a_value(capsys):
    refused(capsys, ["compute", corpus_path("trefoil"), "--n", "3",
                     "--char", "t"], "bad --char entry 't'")


# -- multipoints --------------------------------------------------------------

@pytest.mark.parametrize("picks, words", [
    (("c1", "c9"), "unknown crossing c9"),
    (("c1", "c3"), "c3 reuses a curve"),
])
def test_a_bad_multipoint_is_refused(tmp_path, capsys, hopf, picks, words):
    with pytest.raises(InvalidMultipointError, match=words):
        multipoint_sign(hopf, Multipoint(picks))
    text = corpus_path("hopf").read_text() + \
        f"multipoint bad : {' '.join(picks)}\n"
    rep = validate(parse_diagram(text))
    assert [(e.check, e.witness) for e in rep.failures()] == \
        [("NamedMultipoints", f"bad: {words}")]
    path = tmp_path / "bad.hd"
    path.write_text(text)
    assert run(["compute", str(path), "--n", "2", "--multipoint", "bad"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"FAIL NamedMultipoints  [bad: {words}]" in err
    assert "Traceback" not in err


# -- the orbit fold -----------------------------------------------------------

@pytest.mark.parametrize("order", [2, 8])
def test_an_orbit_of_the_wrong_size_is_not_folded(order):
    """H_4 declaring b = K of order 2 (the orbit has not closed after two
    steps) or 8 (it closes after four): every basis index stays its own
    representative.  mu and pi_B are zero in the copy, so the closing
    tables, which refuse the order-8 copy of H_4 on their own, cannot
    decide; only the orbit-size checks do."""
    pkg = build_hn(4)
    copy = dataclasses.replace(pkg, integral=dataclasses.replace(
        pkg.integral, glike_b_order=order, mu={}, pi_b={}))
    assert _Rules(pkg).rep == (0, 0, 0, 0, 4, 4, 4, 4)
    assert _Rules(copy).rep == tuple(range(8))
    assert _Rules(copy).deg == (0,) * 8
