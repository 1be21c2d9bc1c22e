"""Library refusals that no CLI path reaches: each raises its
``SuturantError`` subclass."""

import dataclasses

import pytest

from suturant import (Character, CharacterAssignment, CyclotomicScalar,
                      FreeWord, GroupRingElement, Multipoint,
                      alexander_from_torsion, all_characters, alpha_word,
                      basepoint_shift, beta_word, build_hn, class_equal,
                      determinant, divide_by_element_minus_one, homology,
                      invariant_h0, invariant_hn_values, multipoint_sign,
                      torsion_class)
from suturant.errors import (ArcCurveError, CharacterMismatchError,
                             CyclotomicArithmeticError, GroupMismatchError,
                             InvalidCharacterError, InvalidMultipointError,
                             InvalidReferenceError, NonSquareError,
                             NotDivisibleError, UnknownCurveError,
                             UnknownGeneratorError)
from suturant.invariant import SpincRelative, anchor_multipoint

from conftest import load
from test_kuperberg import based_at_first, meridian_assignment


# -- diagram ------------------------------------------------------------------

def test_a_reference_with_too_few_picks_is_refused(hopf):
    short = Multipoint(("c1",))
    with pytest.raises(InvalidMultipointError, match="1 picks for 2 closed"):
        multipoint_sign(hopf, short)
    with pytest.raises(InvalidReferenceError, match="not a multipoint"):
        invariant_h0(hopf, SpincRelative(short))


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


def test_the_empty_determinant_of_elements_is_refused():
    with pytest.raises(NonSquareError, match="no ring context"):
        determinant([])


def test_a_character_with_the_wrong_exponent_count_is_refused(hopf):
    group = homology(hopf)
    with pytest.raises(InvalidCharacterError, match="1 exponents for 3"):
        Character(group, 2, (1,))


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
