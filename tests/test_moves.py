import pytest

from suturant import (AddTrivialHandles, CancelFinger, CharacterAssignment,
                      Destabilize, FingerIsotopy, GroupRingElement,
                      HandleslideCurve, IllegalMoveError, ReorderCurves,
                      ReverseCurve, Stabilize, all_characters, alpha_word,
                      apply_move, build_hn, canonical_class, class_equal,
                      compose_generator_maps, contract, enumerate_multipoints,
                      fox_determinant, fox_matrix, generator_map, homology,
                      invariant_hn, orientation_flip, parse_move_script,
                      random_move_sequence, rebase, serialize_diagram,
                      torsion_class, transfer_exponents, validate)
from suturant.cli import run
from suturant.invariant import OrientationSign, SpincRelative

from conftest import SEED, corpus_names, corpus_path, load


def transferred_class(cls, gens_old, gens_new, gmap, new_group):
    rep = cls.representative
    terms = {}
    for key, c in rep.terms.items():
        v_new = transfer_exponents(rep.group.lift(key), gens_old,
                                   gens_new, gmap)
        k_new = new_group.project(v_new)
        terms[k_new] = terms.get(k_new, 0) + c
    return canonical_class(GroupRingElement(new_group, terms))


def run_sequence(diag, seq):
    gmap, flip, cur = {}, 1, diag
    for mv in seq:
        gmap = compose_generator_maps(gmap, generator_map(cur, mv))
        flip *= orientation_flip(cur, mv)
        cur = apply_move(cur, mv)
    return cur, gmap, flip


# -- single moves -------------------------------------------------------------

def test_finger_then_cancel_is_identity(trefoil):
    d2 = apply_move(trefoil, FingerIsotopy("a1", "b1", 2, 1))
    fresh = [x.id for x in d2.crossings
             if x.id not in {y.id for y in trefoil.crossings}]
    assert apply_move(d2, CancelFinger(*fresh)) == trefoil


def test_stabilize_then_destabilize_is_identity(trefoil):
    d2 = apply_move(trefoil, Stabilize())
    new_a = next(c.id for c in d2.curves if c.family == "alpha"
                 and c.id not in {k.id for k in trefoil.curves})
    new_b = next(c.id for c in d2.curves if c.family == "beta"
                 and c.id not in {k.id for k in trefoil.curves})
    assert apply_move(d2, Destabilize(new_a, new_b)) == trefoil


def test_stabilize_unknot_gives_unit_fox_matrix():
    diag = load("unknot")
    d2 = apply_move(diag, Stabilize())
    g = homology(d2)
    mat = fox_matrix(d2, g)
    assert mat == [[GroupRingElement.one(g)]]
    assert class_equal(torsion_class(d2), torsion_class(diag))


def test_reverse_alpha_word(trefoil):
    d2 = apply_move(trefoil, ReverseCurve("a1"))
    assert str(alpha_word(d2, "a1")) == "b1^-1 b2^-1 b1 b2^-1 b1^-1"
    assert class_equal(torsion_class(d2), torsion_class(trefoil))


def test_add_trivial_handles(trefoil):
    d2 = apply_move(trefoil, AddTrivialHandles(2))
    assert validate(d2).passed
    assert len(d2.family("alpha", "arc")) == 3
    g2 = homology(d2)
    assert g2.rank == homology(trefoil).rank + 2
    # the contraction is untouched by crossing-free arc pairs
    ca = CharacterAssignment(order=5, psi={"b1": 3, "b2": 1})
    based = rebase(trefoil, enumerate_multipoints(trefoil)[0])
    based2 = rebase(d2, enumerate_multipoints(d2)[0])
    assert contract(based, build_hn(5), ca) == \
        contract(based2, build_hn(5), ca)
    # and the torsion class transfers along the inclusion
    want = transferred_class(torsion_class(trefoil),
                             homology(trefoil).gens, g2.gens, {}, g2)
    assert class_equal(torsion_class(d2), want)


def test_illegal_moves_raise(trefoil):
    with pytest.raises(IllegalMoveError):
        apply_move(trefoil, CancelFinger("x1", "x2"))    # different curves
    with pytest.raises(IllegalMoveError):
        apply_move(trefoil, CancelFinger("x1", "x3"))    # not adjacent pair
    with pytest.raises(IllegalMoveError):
        apply_move(trefoil, Destabilize("a1", "b1"))     # interacting pair
    with pytest.raises(IllegalMoveError):
        apply_move(trefoil, HandleslideCurve("a1", "a1"))
    with pytest.raises(IllegalMoveError):
        apply_move(trefoil, HandleslideCurve("a1", "a2"))  # closed over arc
    with pytest.raises(IllegalMoveError):
        apply_move(trefoil, ReorderCurves("alpha", "closed", ("a1", "a2")))


def slid(diag, line):
    (move,) = parse_move_script(line)
    return apply_move(diag, move)


def test_endpoint_slide_adds_one_crossing_at_the_ends(trefoil):
    before = set(serialize_diagram(trefoil).splitlines())
    after = set(serialize_diagram(
        slid(trefoil, "finger a2@0 b2@0 +")).splitlines())
    assert after - before == {"crossing x6 a2 b2 +", "order alpha a2 : x6",
                              "order beta b2 : x6 x4 x2"}
    assert before - after == {"order alpha a2 : ", "order beta b2 : x4 x2"}


def test_endpoint_slides_keep_what_the_cli_prints(trefoil, tmp_path, capsys):
    def printed(path):
        outs = []
        for argv in (["class", path],
                     *(["compute", path, "--engine", engine, "--all-chars",
                        "--n", "3"] for engine in ("fox", "tensor"))):
            assert run(argv) == 0, argv
            outs.append(capsys.readouterr().out)
        return outs

    want = printed(str(corpus_path("trefoil")))
    for sign in "+-":
        for pos in (0, 2):
            path = tmp_path / f"slid{sign}{pos}.hd"
            path.write_text(serialize_diagram(
                slid(trefoil, f"finger a2@0 b2@{pos} {sign}")))
            assert printed(str(path)) == want, (sign, pos)


def test_endpoint_slide_refusals(trefoil):
    with pytest.raises(IllegalMoveError,
                       match="endpoint slide must happen at an end"):
        slid(trefoil, "finger a2@1 b2@0 +")
    with pytest.raises(IllegalMoveError,
                       match="endpoint slide needs two arcs"):
        slid(trefoil, "finger a1@0 b2@0 +")


def test_handleslide_is_a_tietze_move(hopf):
    d2 = apply_move(hopf, HandleslideCurve("a1", "a2",
                                           (("b3", 1, 1),)))
    assert validate(d2).passed
    assert class_equal(torsion_class(d2), torsion_class(hopf))


def test_beta_handleslide_transfers_generators(hopf):
    mv = HandleslideCurve("b1", "b2")
    gmap = generator_map(hopf, mv)
    assert {k: sorted(v) for k, v in gmap.items()} == \
        {"b2": [("b1", 1), ("b2", 1)]}
    d2 = apply_move(hopf, mv)
    g2 = homology(d2)
    want = transferred_class(torsion_class(hopf), homology(hopf).gens,
                             g2.gens, gmap, g2)
    assert class_equal(torsion_class(d2), want)


# -- random sequences ----------------------------------------------------------

def test_random_sequence_length_zero(trefoil):
    assert random_move_sequence(trefoil, 1, 0) == []


def test_random_sequences_are_legal_and_preserve_the_class():
    for name in corpus_names():
        diag = load(name)
        cls0 = torsion_class(diag)
        gens0 = homology(diag).gens
        for seed in range(SEED, SEED + 10):
            seq = random_move_sequence(diag, seed, 10)
            assert len(seq) == 10
            cur, gmap, _ = run_sequence(diag, seq)
            assert validate(cur).passed
            g_new = homology(cur)
            want = transferred_class(cls0, gens0, g_new.gens, gmap, g_new)
            assert class_equal(torsion_class(cur), want), (name, seed)


def test_lens_sequence_with_stabilize_keeps_augmentation():
    diag = load("lens_3_1")
    seq = [Stabilize()] + random_move_sequence(
        apply_move(diag, Stabilize()), 1, 4)
    cur, _, _ = run_sequence(diag, seq)
    cls = torsion_class(cur)
    assert abs(cls.representative.augmentation()) == 3


def test_normalized_invariant_through_moves(trefoil):
    """The fully normalized delta*zeta*Z, computed at a transported
    reference with a transported character and orientation, is unchanged."""
    n = 6
    g0 = homology(trefoil)
    mps = enumerate_multipoints(trefoil)
    diag0 = type(trefoil)(trefoil.name, trefoil.curves, trefoil.crossings,
                          {**trefoil.named_multipoints, "ref": mps[0]})
    chi0 = all_characters(g0, n)[1]
    ca0 = CharacterAssignment.from_character(chi0)
    val0 = invariant_hn(diag0, n, ca0, SpincRelative(mps[0]),
                        OrientationSign(1), engine="tensor")
    checked = 0
    for seed in range(SEED, SEED + 12):
        cur, gmap, flip = run_sequence(
            diag0, random_move_sequence(diag0, seed, 5))
        if "ref" not in cur.named_multipoints:
            continue
        ref = cur.named_multipoints["ref"]
        if ref not in enumerate_multipoints(cur):
            continue
        g1 = homology(cur)
        chi1 = _transported_character(chi0, g0, g1, gmap, n)
        ca1 = CharacterAssignment.from_character(chi1)
        for engine in ("tensor", "fox"):
            val1 = invariant_hn(cur, n, ca1, SpincRelative(ref),
                                OrientationSign(flip), engine=engine)
            assert val1 == val0, (seed, engine)
        checked += 1
    assert checked >= 6


def _transported_character(chi_old, g_old, g_new, gmap, order):
    def unit(i):
        return [1 if t == i else 0 for t in range(len(g_old.gens))]
    for cand in all_characters(g_new, order):
        if all(cand.exponent(g_new.project(transfer_exponents(
                unit(i), g_old.gens, g_new.gens, gmap)))
               == chi_old.exponent(g_old.project(unit(i)))
               for i in range(len(g_old.gens))):
            return cand
    raise AssertionError("no transported character")


# -- scripts ------------------------------------------------------------------

def test_move_script_round_trip(trefoil):
    script = """
    reverse alpha a1
    finger a1@2 b2@0 -+
    stabilize
    handleslide a2 over a1 : (b1@1 +)
    trivial-handles 1
    """
    moves = parse_move_script(script)
    assert [type(m).__name__ for m in moves] == [
        "ReverseCurve", "FingerIsotopy", "Stabilize", "HandleslideCurve",
        "AddTrivialHandles"]
    assert moves[3].delta == (("b1", 1, 1),)
    cur = trefoil
    for mv in moves:
        cur = apply_move(cur, mv)
    assert validate(cur).passed
