import itertools
import random
from operator import add

import pytest

from suturant import (Character, CharacterAssignment, CyclotomicScalar,
                      GroupRingElement, all_characters, alexander_from_torsion,
                      apply_move, build_hn, canonical_class, class_equal,
                      contract, enumerate_multipoints, epsilon_class,
                      evaluate, fox_determinant, homology, invariant_h0,
                      invariant_hn, invariant_hn_values, parse_diagram, rebase,
                      torsion_class)
from suturant.errors import (AmbiguousOrientationError, CharacterMismatchError,
                             GroupMismatchError, InvalidCharacterError,
                             InvalidReferenceError, NotDivisibleError,
                             SuturantError)
from suturant.foxcalc import crossing_classes
from suturant.invariant import (OrientationSign, SpincRelative,
                                anchor_multipoint)
from conftest import (SEED, corpus_names, load, moved_and_rotated,
                      slid_and_back)


def meridian_character(group, n):
    for chi in all_characters(group, n):
        if chi.on_generator(group.gens[-1]) == 1 % n:
            return chi
    raise AssertionError


def test_trefoil_invariant_value(trefoil):
    g = homology(trefoil)
    mps = enumerate_multipoints(trefoil)
    for n in (2, 3, 5, 7):
        ca = CharacterAssignment.from_character(meridian_character(g, n))
        want = (CyclotomicScalar.one(n) - CyclotomicScalar.root_power(1, n)
                + CyclotomicScalar.root_power(2, n))
        for engine in ("fox", "tensor"):
            got = invariant_hn(trefoil, n, ca, SpincRelative(mps[0]),
                               OrientationSign(1), engine=engine)
            assert got == want


def test_reference_multipoint_does_not_matter(trefoil):
    g = homology(trefoil)
    mps = enumerate_multipoints(trefoil)
    n = 5
    ca = CharacterAssignment.from_character(meridian_character(g, n))
    vals = {invariant_hn(trefoil, n, ca, SpincRelative(r),
                         OrientationSign(1), engine="tensor").coeffs
            for r in mps}
    assert len(vals) == 1


def test_offset_multiplies_by_its_character_value(trefoil):
    g = homology(trefoil)
    mps = enumerate_multipoints(trefoil)
    n = 5
    chi = meridian_character(g, n)
    ca = CharacterAssignment.from_character(chi)
    t = GroupRingElement.monomial(g, g.project([0, 1]))
    base = invariant_hn(trefoil, n, ca, SpincRelative(mps[0]), engine="fox")
    shifted = invariant_hn(trefoil, n, ca, SpincRelative(mps[0], t),
                           engine="fox")
    assert shifted == CyclotomicScalar.root_power(1, n) * base


def test_invariant_h0_and_specialization(trefoil):
    g = homology(trefoil)
    mps = enumerate_multipoints(trefoil)
    el = invariant_h0(trefoil, SpincRelative(mps[0]), OrientationSign(1))
    t = GroupRingElement.monomial(g, g.project([0, 1]))
    expected = GroupRingElement.one(g) - t + t * t
    assert class_equal(canonical_class(el), canonical_class(expected))
    for n in range(1, 7):
        for chi in all_characters(g, n):
            ca = CharacterAssignment.from_character(chi)
            assert evaluate(el, chi) == invariant_hn(
                trefoil, n, ca, SpincRelative(mps[0]), OrientationSign(1),
                engine="fox")


def test_unknot_invariant_is_one():
    diag = load("unknot")
    mps = enumerate_multipoints(diag)
    el = invariant_h0(diag, SpincRelative(mps[0]), OrientationSign(1))
    assert el == GroupRingElement.one(homology(diag))


def test_orientation_sign_flips_the_value(trefoil):
    mps = enumerate_multipoints(trefoil)
    plus = invariant_h0(trefoil, SpincRelative(mps[0]), OrientationSign(1))
    minus = invariant_h0(trefoil, SpincRelative(mps[0]), OrientationSign(-1))
    assert minus == -1 * plus
    # canonical resolves to +1 here: det(alpha . beta) = 1
    canon = invariant_h0(trefoil, SpincRelative(mps[0]),
                         OrientationSign("canonical"))
    assert canon == plus


def test_canonical_orientation_can_be_ambiguous():
    diag = load("s1s2")
    with pytest.raises(AmbiguousOrientationError):
        OrientationSign("canonical").resolve(diag)


def test_invalid_reference_rejected(trefoil):
    from suturant.diagram import Multipoint
    with pytest.raises(InvalidReferenceError):
        invariant_h0(trefoil, SpincRelative(Multipoint(("x2",))))


# Crossing ids that sort differently as strings and as numbers, listed in
# numeric order.  The least crossing, x1, lies in no multipoint (a3 needs
# b3).  The least multipoint in sorted-pick order is {x10, x3, x5}; the
# numeric or the listed order would give {x2, x4, x5}, and accepting x1
# would leave a3 unmatched.
STRING_ORDER = parse_diagram("""
diagram string_order
alpha a1 closed
alpha a2 closed
alpha a3 closed
beta b1 closed
beta b2 closed
beta b3 closed
crossing x1 a1 b3 +
crossing x2 a2 b1 +
crossing x3 a2 b2 +
crossing x4 a1 b2 -
crossing x5 a3 b3 +
crossing x10 a1 b1 +
order alpha a1 : x1 x10 x4
order alpha a2 : x2 x3
order alpha a3 : x5
order beta b1 : x10 x2
order beta b2 : x4 x3
order beta b3 : x1 x5
""")


def _choice_independence_cases():
    """Every corpus diagram and the string-order diagram, seeded
    move-sequence copies of each, and each of these also with the basepoint
    of every closed curve moved one crossing on."""
    bases = [(name, load(name)) for name in corpus_names()]
    bases.append(("string_order", STRING_ORDER))
    return moved_and_rotated(bases)


def test_anchor_is_the_least_multipoint():
    """The matching-built anchor is the first multipoint in enumeration
    order, or None when there is none (s1s2); at d = 0 (unknot) it is the
    empty multipoint."""
    assert anchor_multipoint(STRING_ORDER).picks == ("x10", "x3", "x5")
    assert anchor_multipoint(load("s1s2")) is None
    assert anchor_multipoint(load("unknot")).picks == ()
    for label, diag in _choice_independence_cases():
        mps = enumerate_multipoints(diag)
        assert anchor_multipoint(diag) == (mps[0] if mps else None), label


@pytest.mark.parametrize("d", [10, 16])
def test_anchor_at_d10(d):
    """Hopf stabilized to d = 10 (and 16), each new closed curve slid over
    the shortest old one of its family and back: about 2.5 * 10^13
    multipoints at d = 10, far beyond enumeration, and the anchor is still
    a valid reference."""
    diag = slid_and_back(load("hopf"), d)
    assert diag.d == d
    anchor = anchor_multipoint(diag)
    rebase(diag, anchor)
    assert class_equal(torsion_class(diag), canonical_class(
        invariant_h0(diag, SpincRelative(anchor))))


def test_torsion_class_is_choice_independent():
    """The torsion class, computed without any basepoint, is the class of
    invariant_h0 at every reference multipoint, sign and offset."""
    for label, diag in _choice_independence_cases():
        mps = enumerate_multipoints(diag)
        g = homology(diag)
        cls = torsion_class(diag)
        if not mps:
            assert cls.representative.is_zero(), label
        offsets = [None]
        if g.gens:
            last = [0] * (len(g.gens) - 1) + [1]
            offsets.append(GroupRingElement.monomial(g, g.project(last)))
        for ref in mps:
            for sign in (1, -1):
                for off in offsets:
                    el = invariant_h0(diag, SpincRelative(ref, off),
                                      OrientationSign(sign))
                    assert class_equal(canonical_class(el), cls), label


def _rebased_h0(diag, spinc, orient):
    """Reference for invariant_h0: the Fox determinant of the diagram
    rebased at the reference multipoint, translated by the offset plus the
    change-of-basepoint class from the anchor to the reference."""
    group = homology(diag)
    det = fox_determinant(rebase(diag, spinc.reference), group)
    eps = group.project_word(epsilon_class(
        diag, anchor_multipoint(diag), spinc.reference))
    coords = group.normalize(tuple(map(add, spinc.offset_coords(group), eps)))
    return det.translate(coords, orient.resolve(diag))


def test_invariant_h0_equals_the_rebased_determinant():
    """invariant_h0 takes the determinant at the diagram's own basepoints
    and shifts by the offset minus the anchor's crossing classes; that is
    exactly the rebased reference at every multipoint, sign and offset (a
    seeded group element), on the choice-independence cases and on grown
    bases (every multipoint of Hopf at d = 3, a seeded sample of six on
    the larger ones)."""
    rng = random.Random(SEED + 7)
    cases = [(label, diag, enumerate_multipoints(diag))
             for label, diag in _choice_independence_cases()]
    for name, d in (("hopf", 3), ("hopf", 4), ("trefoil", 3),
                    ("lens_6_1", 3)):
        diag = slid_and_back(load(name), d)
        mps = enumerate_multipoints(diag)
        if len(mps) > 40:
            mps = [mps[0]] + rng.sample(mps, 5)
        cases.append((f"{name} grown to {d}", diag, mps))
    for label, diag, mps in cases:
        g = homology(diag)
        offsets = [None]
        if g.ncoords:
            offsets.append(GroupRingElement.monomial(g, g.normalize(tuple(
                rng.randint(-3, 3) for _ in range(g.ncoords)))))
        for ref in mps:
            for sign in (1, -1):
                for off in offsets:
                    spinc = SpincRelative(ref, off)
                    orient = OrientationSign(sign)
                    assert invariant_h0(diag, spinc, orient) == _rebased_h0(
                        diag, spinc, orient), (label, ref, sign, off)


def _rebased_hn(diag, n, chars, spinc, orient):
    """Reference for the tensor branch of invariant_hn: the contraction of
    the diagram rebased at the reference multipoint, times zeta at the
    offset minus the anchor's crossing classes plus the reference's, times
    delta."""
    group = homology(diag)
    classes = crossing_classes(diag, group)
    coords = spinc.offset_coords(group)
    for sign, mp in ((-1, anchor_multipoint(diag)), (1, spinc.reference)):
        for xid in mp.picks:
            coords = tuple(a + sign * b for a, b in zip(coords, classes[xid]))
    zeta = CyclotomicScalar.root_power(chars.h1.exponent(coords), chars.order)
    z = contract(rebase(diag, spinc.reference), build_hn(n), chars)
    return orient.resolve(diag) * (zeta * z)


def test_tensor_invariant_equals_the_rebased_contraction():
    """The tensor branch contracts the diagram at its own basepoints and
    multiplies by the evaluated delta * t^h; that is exactly the contraction
    rebased at the reference with the reference's classes added back, at a
    sampled reference, sampled character, n = 2, 3, both signs and a seeded
    offset, on the choice-independence cases, on Hopf slid and back to
    d = 3 and on the trefoil slid and back to d = 2 and 3 (5,735
    multipoints at d = 3, so a sampled reference far from the anchor)."""
    rng = random.Random(SEED + 10)
    cases = list(_choice_independence_cases())
    cases += [(f"{name} grown to {d}", slid_and_back(load(name), d))
              for name, d in (("hopf", 3), ("trefoil", 2), ("trefoil", 3))]
    for label, diag in cases:
        mps = enumerate_multipoints(diag)
        if not mps:
            continue
        g = homology(diag)
        ref = rng.choice(mps)
        off = GroupRingElement.monomial(g, g.normalize(tuple(
            rng.randint(-3, 3) for _ in range(g.ncoords))))
        for n in (2, 3):
            chars = CharacterAssignment.from_character(
                rng.choice(all_characters(g, n)))
            for sign in (1, -1):
                spinc, orient = SpincRelative(ref, off), OrientationSign(sign)
                assert invariant_hn(diag, n, chars, spinc, orient,
                                    engine="tensor") == _rebased_hn(
                    diag, n, chars, spinc, orient), (label, ref, n, sign)


def test_values_of_a_list_are_the_values_one_by_one():
    """invariant_hn_values normalizes once per list; each value is still
    the one invariant_hn returns for its character alone, on both engines,
    at up to three seeded characters of order n = 2, 3, both signs and a
    seeded offset, on the choice-independence cases and on Hopf slid and
    back to d = 3."""
    rng = random.Random(SEED + 12)
    cases = list(_choice_independence_cases())
    cases.append(("hopf grown to 3", slid_and_back(load("hopf"), 3)))
    for label, diag in cases:
        ref = anchor_multipoint(diag)
        if ref is None:
            continue
        g = homology(diag)
        off = GroupRingElement.monomial(g, g.normalize(tuple(
            rng.randint(-3, 3) for _ in range(g.ncoords))))
        for n in (2, 3):
            chis = all_characters(g, n)
            chars = [CharacterAssignment.from_character(chi)
                     for chi in rng.sample(chis, min(3, len(chis)))]
            for sign, engine in itertools.product((1, -1), ("fox", "tensor")):
                args = (SpincRelative(ref, off), OrientationSign(sign),
                        engine)
                assert invariant_hn_values(diag, n, chars, *args) == [
                    invariant_hn(diag, n, c, *args) for c in chars], (
                    label, n, sign, engine)


def _raised(fn):
    try:
        fn()
    except SuturantError as e:
        return type(e), str(e)
    raise AssertionError("nothing raised")


@pytest.mark.parametrize("engine", ["fox", "tensor"])
def test_a_failing_character_in_a_list_raises_its_own_error(trefoil, engine):
    # at n = 2, order 6 admits psi(b1) = zeta^0 and zeta^3 but not zeta^1;
    # a Hopf character lives on another group
    spinc = SpincRelative(anchor_multipoint(trefoil))
    g = homology(trefoil)
    by_t = {chi.exps: CharacterAssignment.from_character(chi)
            for chi in all_characters(g, 6)}
    hopf = load("hopf")
    alien = CharacterAssignment.from_character(
        all_characters(homology(hopf), 6)[0])
    for bad in (by_t[(1,)], alien):
        listed = _raised(lambda: invariant_hn_values(
            trefoil, 2, [by_t[(0,)], bad, by_t[(3,)]], spinc,
            engine=engine))
        assert listed == _raised(lambda: invariant_hn(
            trefoil, 2, bad, spinc, engine=engine))
        assert listed[0] in (CharacterMismatchError, GroupMismatchError)


@pytest.mark.parametrize("engine", ["fox", "tensor"])
def test_both_engines_need_a_character_of_h1(trefoil, engine):
    bare = CharacterAssignment(order=3, psi={"b2": 1})
    with pytest.raises(InvalidCharacterError, match="character of H_1"):
        invariant_hn(trefoil, 3, bare,
                     SpincRelative(anchor_multipoint(trefoil)),
                     engine=engine)


@pytest.mark.parametrize("n, order", [(2, 3), (2, 4), (3, 6), (4, 2)])
def test_engines_accept_and_refuse_the_same_characters(n, order):
    """Both engines apply ``check_admissible``: at every character of the
    given order they return the same value or raise the same error."""
    refused = accepted = 0
    for name in ("trefoil", "figure8", "lens_3_1", "lens_6_1"):
        diag = load(name)
        spinc = SpincRelative(anchor_multipoint(diag))
        for chi in all_characters(homology(diag), order):
            chars = CharacterAssignment.from_character(chi)
            outcomes = []
            for engine in ("fox", "tensor"):
                try:
                    outcomes.append(invariant_hn(diag, n, chars, spinc,
                                                 engine=engine))
                except CharacterMismatchError as e:
                    outcomes.append(str(e))
            assert outcomes[0] == outcomes[1], (name, chi.exps)
            refused += isinstance(outcomes[0], str)
            accepted += not isinstance(outcomes[0], str)
    assert accepted and bool(refused) == (n % order != 0)


def test_s1s2_torsion_class_is_zero():
    cls = torsion_class(load("s1s2"))
    assert cls.representative.is_zero()


@pytest.mark.parametrize("p", range(1, 8))
def test_lens_torsion_augmentation(p):
    cls = torsion_class(load(f"lens_{p}_1"))
    assert abs(cls.representative.augmentation()) == p


def test_lens_vanishing_at_nontrivial_characters():
    for p in range(2, 8):
        diag = load(f"lens_{p}_1")
        g = homology(diag)
        mps = enumerate_multipoints(diag)
        for chi in all_characters(g, p):
            if chi.is_trivial():
                continue
            ca = CharacterAssignment.from_character(chi)
            v = invariant_hn(diag, p, ca, SpincRelative(mps[0]),
                             OrientationSign(1), engine="fox")
            assert v.is_zero()


def test_class_equality_examples():
    g = homology(load("trefoil"))
    t = GroupRingElement.monomial(g, g.project([0, 1]))
    one = GroupRingElement.one(g)
    a = canonical_class(one - t + t * t)
    assert class_equal(a, canonical_class(
        GroupRingElement.monomial(g, g.project([0, -1])) - one + t))
    assert class_equal(a, canonical_class(-(one - t + t * t)))
    assert not class_equal(a, canonical_class(one + t + t * t))


def test_alexander_of_hopf_link(hopf):
    g = homology(hopf)
    t1 = GroupRingElement.monomial(g, g.project([0, 0, 1, 0]))
    t2 = GroupRingElement.monomial(g, g.project([0, 0, 0, 1]))
    cls = torsion_class(hopf)
    one = GroupRingElement.one(g)
    expected = canonical_class((one - t1) * (one - t2))
    assert class_equal(cls, expected)
    alex = alexander_from_torsion(cls, [t1, t2])
    assert class_equal(alex, canonical_class(one))


def test_alexander_single_meridian_is_identity(trefoil):
    g = homology(trefoil)
    t = GroupRingElement.monomial(g, g.project([0, 1]))
    cls = torsion_class(trefoil)
    assert alexander_from_torsion(cls, [t]) is cls


def test_alexander_wrong_meridian_count(trefoil):
    g = homology(trefoil)
    t = GroupRingElement.monomial(g, g.project([0, 1]))
    with pytest.raises(NotDivisibleError):
        alexander_from_torsion(torsion_class(trefoil), [t, t])


def test_multipoint_independence_with_zeta(hopf):
    """zeta-corrected values agree across multipoints, and the zeta ratio is
    the evaluated change-of-basepoint class."""
    from suturant import contract, build_hn, epsilon_class, rebase
    g = homology(hopf)
    mps = enumerate_multipoints(hopf)
    n = 6
    for chi in all_characters(g, n)[:5]:
        ca = CharacterAssignment.from_character(chi)
        x0 = mps[0]
        normalized = []
        for x in mps:
            z = contract(rebase(hopf, x), build_hn(n), ca)
            zeta = CyclotomicScalar.root_power(
                chi.exponent(g.project_word(epsilon_class(hopf, x0, x))), n)
            normalized.append(zeta * z)
        assert all(v == normalized[0] for v in normalized)
        for x, y in itertools.product(mps, mps):
            zx = contract(rebase(hopf, x), build_hn(n), ca)
            zy = contract(rebase(hopf, y), build_hn(n), ca)
            ratio = CyclotomicScalar.root_power(
                chi.exponent(g.project_word(epsilon_class(hopf, x, y))), n)
            assert zx == ratio * zy
