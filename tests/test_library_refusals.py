"""Library refusals that no CLI path reaches: each raises its
``SuturantError`` subclass."""

import dataclasses

import pytest

from suturant import (Character, CharacterAssignment, CyclotomicScalar,
                      FreeWord, GroupRingElement, Multipoint,
                      alexander_from_torsion, all_characters, alpha_word,
                      basepoint_shift, beta_word, build_hn, class_equal,
                      contract, determinant, divide_by_element_minus_one,
                      fox_determinant, fox_matrix, homology, invariant_h0,
                      invariant_hn_values, multipoint_expansion,
                      multipoint_sign, rebase, torsion_class)
from suturant.errors import (ArcCurveError, CharacterMismatchError,
                             CyclotomicArithmeticError, GroupMismatchError,
                             InvalidCharacterError, InvalidMultipointError,
                             InvalidReferenceError, NonSquareError,
                             NotDivisibleError, UnknownCurveError,
                             UnknownGeneratorError)
from suturant.foxcalc import crossing_classes, multipoint_class
from suturant.invariant import SpincRelative, anchor_multipoint
from suturant.kuperberg import check_admissible

from conftest import load
from test_kuperberg import based_at_first, meridian_assignment


# -- diagram ------------------------------------------------------------------

def test_a_reference_with_too_few_picks_is_refused(hopf):
    short = Multipoint(("c1",))
    with pytest.raises(InvalidMultipointError, match="1 picks for 2 closed"):
        multipoint_sign(hopf, short)
    with pytest.raises(InvalidReferenceError, match="not a multipoint"):
        invariant_h0(hopf, SpincRelative(short))


def test_a_reference_that_is_no_multipoint_is_refused(hopf):
    """None, what ``anchor_multipoint`` gives a diagram without
    multipoints, and a bare crossing id, on both engines."""
    s1s2 = load("s1s2")
    assert anchor_multipoint(s1s2) is None
    for ref in (None, "x1"):
        for call in (multipoint_sign, rebase):
            with pytest.raises(InvalidMultipointError,
                               match="is not a Multipoint"):
                call(hopf, ref)
        for diag in (s1s2, hopf):
            spinc = SpincRelative(ref)
            with pytest.raises(InvalidReferenceError, match="not a multi"):
                invariant_h0(diag, spinc)
            chars = [CharacterAssignment.from_character(
                all_characters(homology(diag), 2)[0])]
            for engine in ("fox", "tensor"):
                with pytest.raises(InvalidReferenceError,
                                   match="not a multipoint"):
                    invariant_hn_values(diag, 2, chars, spinc,
                                        engine=engine)


def test_a_word_of_the_other_family_is_refused(trefoil):
    with pytest.raises(UnknownCurveError, match="b1 is not an alpha curve"):
        alpha_word(trefoil, "b1")
    with pytest.raises(UnknownCurveError, match="a1 is not a beta curve"):
        beta_word(trefoil, "a1")


# -- foxcalc ------------------------------------------------------------------

def test_a_word_in_an_unknown_generator_is_refused(trefoil):
    with pytest.raises(UnknownGeneratorError, match="z9"):
        homology(trefoil).project_word(FreeWord((("b1", 1), ("z9", -1))))


def test_group_ring_arithmetic_across_groups_is_refused(trefoil, hopf):
    one = GroupRingElement.one(homology(trefoil))
    other = GroupRingElement.one(homology(hopf))
    for op in (one.__add__, one.__sub__, one.__mul__):
        with pytest.raises(GroupMismatchError, match="different groups"):
            op(other)


def test_a_group_other_than_the_diagrams_h1_is_refused(trefoil, hopf):
    """Hopf's H_1 passed for the trefoil's, to every Fox-path function
    that takes a group; the trefoil's H_1 computed again, on a copy of
    the diagram, is the same group and passes."""
    foreign, picks = homology(hopf), anchor_multipoint(trefoil).picks
    for call in (fox_determinant, fox_matrix, multipoint_expansion,
                 crossing_classes,
                 lambda diag, g: multipoint_class(diag, g, picks)):
        with pytest.raises(GroupMismatchError, match="not the diagram's"):
            call(trefoil, foreign)
        assert call(trefoil, homology(dataclasses.replace(trefoil))) == \
            call(trefoil, None)


def test_the_empty_determinant_of_elements_is_refused():
    with pytest.raises(NonSquareError, match="no ring context"):
        determinant([])


def test_a_character_with_the_wrong_exponent_count_is_refused(hopf):
    group = homology(hopf)
    with pytest.raises(InvalidCharacterError, match="1 exponents for 3"):
        Character(group, 2, (1,))


def test_a_character_of_order_below_one_is_refused(trefoil):
    """Built alone, or listed: unchecked, order 0 listed none on the
    trefoil's Z and failed on a zero range step on L(3, 1)'s Z/3."""
    group, lens = homology(trefoil), homology(load("lens_3_1"))
    for order in (0, -3):
        with pytest.raises(InvalidCharacterError,
                           match=f"order {order} is below 1"):
            Character(group, order, (1,))
        for g in (group, lens):
            with pytest.raises(InvalidCharacterError,
                               match=f"order {order} is below 1"):
                all_characters(g, order)


def test_classes_of_different_shapes_are_not_compared(trefoil, hopf):
    with pytest.raises(GroupMismatchError, match="rank/torsion"):
        class_equal(torsion_class(trefoil), torsion_class(hopf))


def test_division_by_g_minus_one_needs_free_g(trefoil):
    lens = homology(load("lens_3_1"))
    with pytest.raises(NotDivisibleError, match="torsion-free"):
        divide_by_element_minus_one(GroupRingElement.one(lens),
                                    lens.identity())
    free = homology(trefoil)
    with pytest.raises(NotDivisibleError, match="finite order"):
        divide_by_element_minus_one(GroupRingElement.one(free),
                                    free.identity())


# -- invariant ----------------------------------------------------------------

def test_an_offset_of_two_terms_is_refused(trefoil):
    one = GroupRingElement.one(homology(trefoil))
    spinc = SpincRelative(anchor_multipoint(trefoil), one + one)
    with pytest.raises(InvalidReferenceError, match="single group element"):
        invariant_h0(trefoil, spinc)


def test_an_assignment_unlike_its_character_is_refused(trefoil):
    """The exponents of the order-3 character t=1 with t=2 as its
    character of H_1: unchecked, the Fox engine gives 2 + 2*x and the
    tensor engine -2*x.  Both refuse it, and an order that differs."""
    chis = all_characters(homology(trefoil), 3)
    chars = CharacterAssignment.from_character(chis[1])
    spinc = SpincRelative(anchor_multipoint(trefoil))
    for mixed in (dataclasses.replace(chars, h1=chis[2]),
                  dataclasses.replace(chars, order=6)):
        for engine in ("fox", "tensor"):
            with pytest.raises(InvalidCharacterError, match="differ"):
                invariant_hn_values(trefoil, 3, [chars, mixed], spinc,
                                    engine=engine)


def test_an_offset_that_is_no_element_of_the_diagrams_h1_is_refused(
        trefoil, hopf):
    """An int, and an element of Hopf's H_1 on the trefoil, on both
    engines: unchecked, the first has no terms to read and the second is
    cut to the trefoil's one coordinate."""
    foreign = homology(hopf)
    chars = [CharacterAssignment.from_character(
        all_characters(homology(trefoil), 3)[1])]
    for offset in (1, GroupRingElement.monomial(foreign, (1, 0, 0))):
        spinc = SpincRelative(anchor_multipoint(trefoil), offset)
        with pytest.raises(InvalidReferenceError, match="diagram's H_1"):
            invariant_h0(trefoil, spinc)
        for engine in ("fox", "tensor"):
            with pytest.raises(InvalidReferenceError, match="diagram's H_1"):
                invariant_hn_values(trefoil, 3, chars, spinc, engine=engine)


def test_an_n_below_one_is_refused_alike_on_both_engines(trefoil):
    """At the order-3 character t=1, where unchecked the Fox engine gave a
    value at n = 0 and the tensor engine failed to build H_0."""
    chars = [CharacterAssignment.from_character(
        all_characters(homology(trefoil), 3)[1])]
    spinc = SpincRelative(anchor_multipoint(trefoil))
    for n in (0, -2):
        texts = set()
        for engine in ("fox", "tensor"):
            with pytest.raises(CharacterMismatchError,
                               match=f"n = {n} is below 1") as err:
                invariant_hn_values(trefoil, n, chars, spinc, engine=engine)
            texts.add(str(err.value))
        assert len(texts) == 1


def test_alexander_needs_free_homology_and_single_meridians(hopf):
    lens = load("lens_3_1")
    one = GroupRingElement.one(homology(lens))
    with pytest.raises(NotDivisibleError, match="torsion"):
        alexander_from_torsion(torsion_class(lens), [one, one])
    g = homology(hopf)
    t1, t2 = (GroupRingElement.monomial(g, g.project(e))
              for e in ([0, 0, 1, 0], [0, 0, 0, 1]))
    with pytest.raises(NotDivisibleError, match="single group elements"):
        alexander_from_torsion(torsion_class(hopf), [t1 + t2, t2])


# -- kuperberg ----------------------------------------------------------------

def test_a_basepoint_shift_past_the_curve_is_refused(trefoil):
    based = based_at_first(trefoil)
    chars = meridian_assignment(trefoil, 2)
    k = len(based.curve("a1").order)
    with pytest.raises(ArcCurveError, match=f"position {k} out of range"):
        basepoint_shift(based, "a1", k, build_hn(2), chars)


def test_an_assignment_of_order_below_one_is_refused(trefoil):
    """By the admissibility rule, which the Fox engine applies as it is
    and the tensor engine before its sweep."""
    for order in (0, -2):
        chars = CharacterAssignment(order=order, psi={"b1": 1})
        with pytest.raises(CharacterMismatchError,
                           match=f"order {order} is below 1"):
            check_admissible(trefoil, 2, chars)
        with pytest.raises(CharacterMismatchError,
                           match=f"order {order} is below 1"):
            contract(trefoil, build_hn(2), chars)


def test_a_beta_shift_needs_the_a_star_order_to_divide(trefoil):
    """H_2 with a* declared of order 3: the beta unit needs a 3rd root of
    unity, which the order-2 character does not have."""
    pkg = build_hn(2)
    pkg = dataclasses.replace(pkg, cointegral=dataclasses.replace(
        pkg.cointegral, astar_order=3))
    with pytest.raises(CharacterMismatchError, match="a\\* order 3"):
        basepoint_shift(based_at_first(trefoil), "b1", 0, pkg,
                        meridian_assignment(trefoil, 2))


# -- cyclotomic ---------------------------------------------------------------

def test_scalars_of_different_orders_do_not_mix():
    a, b = CyclotomicScalar.one(2), CyclotomicScalar.one(3)
    for op in (a.__add__, a.__sub__, a.__mul__):
        with pytest.raises(CyclotomicArithmeticError, match="2 vs 3"):
            op(b)
