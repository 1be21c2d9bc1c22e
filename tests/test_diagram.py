import itertools
import random
from pathlib import Path

import pytest

from suturant import (DuplicateIdError, NonSquareError, ParseError, alpha_word,
                      canonical_sign, enumerate_multipoints, epsilon_class,
                      homology, multipoint_sign, parse_diagram, rebase,
                      serialize_diagram, validate)
from suturant.diagram import (Curve, Multipoint, check_balanced, closed_first,
                              intersection_matrix)

from conftest import corpus_names, corpus_path, load


def test_parse_trefoil_counts(trefoil):
    assert len(trefoil.closed_alphas) == 1
    assert len(trefoil.family("alpha", "arc")) == 1
    assert len(trefoil.closed_betas) == 1
    assert len(trefoil.family("beta", "arc")) == 1
    assert len(trefoil.crossings) == 5


def test_parse_unknot_is_valid_with_d_zero():
    diag = load("unknot")
    assert diag.d == 0
    assert validate(diag).passed


def test_parse_rejects_missing_curve_reference():
    text = "diagram t\nalpha a1 closed\nbeta b1 closed\ncrossing x a1 b9 +\n"
    with pytest.raises(ParseError):
        parse_diagram(text)


def test_parse_rejects_duplicate_ids():
    with pytest.raises(DuplicateIdError):
        parse_diagram("alpha a1 closed\nalpha a1 arc\n")
    text = corpus_path("trefoil").read_text() + "multipoint m1 : x3\n"
    with pytest.raises(DuplicateIdError, match="multipoint m1"):
        parse_diagram(text)


def test_serialize_round_trip():
    for name in corpus_names():
        diag = load(name)
        again = parse_diagram(serialize_diagram(diag))
        assert again == diag
        assert again.named_multipoints == diag.named_multipoints


def test_validate_unbalanced():
    text = ("diagram u\nalpha a1 closed\nalpha a2 closed\nbeta b1 closed\n"
            "order alpha a1 :\norder alpha a2 :\norder beta b1 :\n")
    diag = parse_diagram(text)
    rep = validate(diag)
    assert [(e.check, e.witness) for e in rep.failures()] == \
        [("Balanced", "2 closed alpha vs 1 closed beta")]
    with pytest.raises(NonSquareError, match="^2 closed alpha vs 1 closed"):
        check_balanced(diag)


def test_closed_first_is_the_ordering_convention():
    curves = [Curve(cid, fam, top, ()) for cid, fam, top in (
        ("b2", "beta", "arc"), ("a2", "alpha", "arc"),
        ("b1", "beta", "closed"), ("a1", "alpha", "closed"),
        ("a3", "alpha", "closed"), ("b3", "beta", "arc"))]
    assert [c.id for c in closed_first(curves)] == \
        ["a1", "a3", "a2", "b1", "b2", "b3"]
    rep = validate(parse_diagram(
        (Path(__file__).with_name("move_scripts") / "interleaved.hd")
        .read_text()))
    assert [e.check for e in rep.failures()] == \
        ["OrderingConvention[alpha]", "OrderingConvention[beta]"]


def test_validate_double_use():
    text = ("diagram u\nalpha a1 closed\nalpha a2 closed\n"
            "beta b1 closed\nbeta b2 closed\n"
            "crossing x a1 b1 +\n"
            "order alpha a1 : x\norder alpha a2 : x\n"
            "order beta b1 : x\norder beta b2 :\n")
    rep = validate(parse_diagram(text))
    assert any(e.check == "DoubleUse[alpha]" for e in rep.failures())


def test_trefoil_multipoints(trefoil):
    mps = enumerate_multipoints(trefoil)
    assert [m.picks for m in mps] == [("x1",), ("x3",), ("x5",)]


@pytest.mark.parametrize("p", [1, 3, 5, 7])
def test_lens_multipoint_count(p):
    assert len(enumerate_multipoints(load(f"lens_{p}_1"))) == p


def test_unknot_has_one_empty_multipoint():
    mps = enumerate_multipoints(load("unknot"))
    assert mps == [Multipoint(())]


def _permanent(mat):
    n = len(mat)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += prod
    return total


def test_multipoint_count_equals_permanent():
    # oracle: the permanent of the bipartite multiplicity matrix
    for name in corpus_names():
        diag = load(name)
        alphas = diag.closed_alphas
        betas = diag.closed_betas
        mat = [[sum(1 for x in diag.crossings
                    if x.alpha == a.id and x.beta == b.id)
                for b in betas] for a in alphas]
        assert len(enumerate_multipoints(diag)) == _permanent(mat), name


def test_rebase_conventions(trefoil):
    pos = rebase(trefoil, Multipoint(("x1",)))     # positive pick
    assert pos.curve("a1").order[0] == "x1"
    assert pos.curve("b1").order[0] == "x1"
    neg = rebase(trefoil, Multipoint(("x3",)))     # negative pick
    assert neg.curve("a1").order[-1] == "x3"
    assert neg.curve("b1").order[-1] == "x3"
    # idempotent
    assert rebase(pos, Multipoint(("x1",))) == pos
    # d = 0: nothing to do
    unknot = load("unknot")
    assert rebase(unknot, Multipoint(())) == unknot


def test_alpha_words(trefoil):
    assert str(alpha_word(trefoil, "a1")) == "b1 b2 b1^-1 b2 b1"
    assert str(alpha_word(trefoil, "a2")) == "1"
    lens = load("lens_4_1")
    assert alpha_word(lens, "a1").letters == (("b1", 1),) * 4


def test_word_exponent_sums_match_intersection_numbers():
    for name in corpus_names():
        diag = load(name)
        mat = intersection_matrix(diag)
        for i, a in enumerate(diag.closed_alphas):
            w = alpha_word(diag, a.id)
            assert len(w.letters) == len(diag.curve(a.id).order)
            sums = w.exponent_sums()
            for j, b in enumerate(diag.closed_betas):
                assert sums.get(b.id, 0) == mat[i][j]


def test_epsilon_identity_and_antisymmetry():
    for name in ("trefoil", "hopf", "figure8", "lens_5_1"):
        diag = load(name)
        g = homology(diag)
        mps = enumerate_multipoints(diag)
        for x in mps:
            assert epsilon_class(diag, x, x).letters == ()
        for x, y in itertools.product(mps, mps):
            exy = g.project_word(epsilon_class(diag, x, y))
            eyx = g.project_word(epsilon_class(diag, y, x))
            total = g.normalize(tuple(a + b for a, b in zip(exy, eyx)))
            assert total == g.identity()


def test_epsilon_cocycle():
    for name in ("trefoil", "figure8", "hopf"):
        diag = load(name)
        g = homology(diag)
        mps = enumerate_multipoints(diag)
        for x, y, z in itertools.product(mps, repeat=3):
            exy = g.project_word(epsilon_class(diag, x, y))
            eyz = g.project_word(epsilon_class(diag, y, z))
            exz = g.project_word(epsilon_class(diag, x, z))
            assert g.normalize(tuple(a + b for a, b in zip(exy, eyz))) == exz


def test_trefoil_epsilon_first_to_third_is_the_meridian(trefoil):
    # the single meridian crossing between the picks, once abelianized
    g = homology(trefoil)
    eps = epsilon_class(trefoil, Multipoint(("x1",)), Multipoint(("x3",)))
    assert g.project_word(eps) == g.project([0, 1])


def test_multipoint_signs(trefoil):
    assert multipoint_sign(load("unknot"), Multipoint(())) == 1
    assert multipoint_sign(trefoil, Multipoint(("x3",))) == -1
    assert multipoint_sign(trefoil, Multipoint(("x1",))) == 1
    lens = load("lens_5_1")
    for mp in enumerate_multipoints(lens):
        assert multipoint_sign(lens, mp) == 1


def test_canonical_sign():
    assert canonical_sign(load("lens_5_1")) == 1
    assert canonical_sign(load("trefoil")) == 1      # 1 - 1 + 1
    assert canonical_sign(load("s1s2")) == "ambiguous"


def test_rebase_commutes_with_reordering_of_curve_list(trefoil):
    rng = random.Random(7)
    curves = list(trefoil.curves)
    rng.shuffle(curves)
    # keep families/topology blocks legal for validate, but rebase itself
    # only rotates orders, so any curve-list order gives the same rotations
    shuffled = trefoil.with_curves(curves)
    a = rebase(trefoil, Multipoint(("x5",))).curve("a1").order
    b = rebase(shuffled, Multipoint(("x5",))).curve("a1").order
    assert a == b
