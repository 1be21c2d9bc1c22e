import dataclasses
import itertools
import math
import random
import typing
from fractions import Fraction

import pytest

from suturant import (Character, CharacterAssignment, CyclotomicScalar,
                      HandleslideCurve, HopfPackage, PresentedAlgebra,
                      ReorderCurves, ReverseCurve, Stabilize, all_characters,
                      apply_move, basepoint_shift, build_cyclic_group_algebra,
                      build_hn, contract, contract_values, coproduct_power,
                      enumerate_multipoints, evaluate, fox_determinant,
                      homology, rebase)
from suturant.algebra import (RelativeCointegralData, RelativeIntegralData,
                              apply)
from suturant.diagram import perm_sign
from suturant.errors import (ArcCurveError, CharacterMismatchError,
                             CyclotomicArithmeticError, OddScalarError,
                             SuturantError)
from suturant.invariant import anchor_multipoint

from conftest import (SEED, corpus_names, load, moved_and_rotated,
                      slid_and_back)


def meridian_assignment(diag, n):
    """The character sending the meridian (the last beta generator) to a
    primitive n-th root; the other exponents are forced by H_1."""
    g = homology(diag)
    for chi in all_characters(g, n):
        if chi.on_generator(g.gens[-1]) == 1 % n:
            return CharacterAssignment.from_character(chi)
    raise AssertionError("no such character")


def based_at_first(diag):
    return rebase(diag, enumerate_multipoints(diag)[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_trefoil_contract_value(trefoil, n):
    based = based_at_first(trefoil)
    ca = meridian_assignment(trefoil, n)
    want = (CyclotomicScalar.one(n) - CyclotomicScalar.root_power(1, n)
            + CyclotomicScalar.root_power(2, n))
    assert contract(based, build_hn(n), ca) == want


def test_trefoil_contract_at_two_is_three(trefoil):
    based = based_at_first(trefoil)
    ca = meridian_assignment(trefoil, 2)
    assert contract(based, build_hn(2), ca) == CyclotomicScalar.integer(3, 2)


@pytest.mark.parametrize("p,m", [(p, m) for p in range(1, 8)
                                 for m in range(1, 8)])
def test_lens_group_algebra_counts_homomorphisms(p, m):
    diag = load(f"lens_{p}_1")
    based = based_at_first(diag)
    z = contract(based, build_cyclic_group_algebra(m),
                 CharacterAssignment.trivial())
    # oracle: brute-force count of homomorphisms Z/p -> Z/m
    count = sum(1 for j in range(m) if (p * j) % m == 0)
    assert count == math.gcd(p, m)
    assert z == CyclotomicScalar.integer(count, 1)


def test_unknot_contracts_to_one():
    diag = load("unknot")
    for pkg in (build_hn(3), build_cyclic_group_algebra(4)):
        assert contract(diag, pkg, CharacterAssignment.trivial()) == \
            CyclotomicScalar.one(1)


def test_s1s2_contracts_to_zero():
    diag = load("s1s2")
    assert contract(diag, build_hn(3),
                    CharacterAssignment.trivial(3)).is_zero()


def test_engine_equivalence_spot(figure8):
    based = based_at_first(figure8)
    g = homology(figure8)
    for n in (2, 3, 5):
        for chi in all_characters(g, n):
            ca = CharacterAssignment.from_character(chi)
            assert contract(based, build_hn(n), ca) == \
                evaluate(fox_determinant(based, g), chi)


def test_basepoint_shift_full_cycle_is_one(trefoil):
    based = based_at_first(trefoil)
    ca = meridian_assignment(trefoil, 5)
    pkg = build_hn(5)
    assert basepoint_shift(based, "a1", 0, pkg, ca) == \
        CyclotomicScalar.one(5)


def test_basepoint_shift_oracle(trefoil, hopf):
    # recompute the contraction on every rotation and compare with the
    # predicted unit
    for diag in (trefoil, hopf):
        based = based_at_first(diag)
        n = 6
        ca = meridian_assignment(diag, n)
        pkg = build_hn(n)
        z0 = contract(based, pkg, ca)
        for c in based.curves:
            if not c.closed or not c.order:
                continue
            for j in range(len(c.order)):
                rot = based.with_curves(
                    dataclasses.replace(k, order=k.order[j:] + k.order[:j])
                    if k.id == c.id else k for k in based.curves)
                unit = basepoint_shift(based, c.id, j, pkg, ca)
                assert contract(rot, pkg, ca) == unit * z0


def test_basepoint_shift_rejects_arcs(trefoil):
    with pytest.raises(ArcCurveError):
        basepoint_shift(trefoil, "b2", 0, build_hn(2),
                        meridian_assignment(trefoil, 2))


def test_character_assignment_hints_resolve():
    # h1 holds a foxcalc.Character, which the engine may not import
    hints = typing.get_type_hints(CharacterAssignment)
    assert hints == {"order": int, "psi": dict, "h1": object | None}


def test_character_mismatch_detected(trefoil):
    # zeta_4 is not an order-3 root of unity, so psi(b2) = zeta_4 cannot
    # be a character of the group-like span of the order-3 package
    bad = CharacterAssignment(order=4, psi={"b1": 0, "b2": 1})
    with pytest.raises(CharacterMismatchError):
        contract(based_at_first(trefoil), build_hn(3), bad)


def test_odd_scalar_guard():
    # corrupt the integral: an even map declared odd makes a nonzero
    # odd-parity contribution on any purely even contraction
    diag = load("lens_2_1")
    pkg = build_cyclic_group_algebra(2)
    bad_integral = dataclasses.replace(pkg.integral, mu_parity=1)
    bad = dataclasses.replace(pkg, integral=bad_integral)
    with pytest.raises(OddScalarError):
        contract(based_at_first(diag), bad, CharacterAssignment.trivial())
    with pytest.raises(OddScalarError):
        contract_values(based_at_first(diag), bad,
                        [CharacterAssignment.trivial(n) for n in (1, 2)])


def test_swapping_closed_curves_flips_sign_by_mu_parity(hopf):
    based = based_at_first(hopf)
    swapped = apply_move(based, ReorderCurves("alpha", "closed",
                                              ("a2", "a1")))
    ca = meridian_assignment(hopf, 4)
    # deg(mu) = 1 for the hn family: the bare contraction changes sign
    z = contract(based, build_hn(4), ca)
    assert contract(swapped, build_hn(4), ca) == -z
    # deg(mu) = 0 for the group algebra: no sign
    triv = CharacterAssignment.trivial()
    zc = contract(based, build_cyclic_group_algebra(3), triv)
    assert contract(swapped, build_cyclic_group_algebra(3), triv) == zc


def grown(diag, d, rng):
    """The diagram stabilized until it has d closed alphas.  After each
    stabilization the shortest older closed curve of each family, reversed
    or not at random, is slid over the new one; the manifold is kept."""
    while diag.d < d:
        before = {c.id for c in diag.curves}
        diag = apply_move(diag, Stabilize())
        for fam in ("alpha", "beta"):
            closed = diag.family(fam, "closed")
            new = next(c.id for c in closed if c.id not in before)
            old = min((c for c in closed if c.id != new),
                      key=lambda c: (len(c.order), c.id)).id
            if rng.random() < 0.5:
                diag = apply_move(diag, ReverseCurve(old))
            diag = apply_move(diag, HandleslideCurve(old, new))
    return diag


def anchored(diag):
    return rebase(diag, anchor_multipoint(diag))


@pytest.mark.parametrize("name", ["hopf", "trefoil", "lens_3_1"])
def test_engines_agree_on_grown_diagrams(name):
    """The contraction equals the evaluated Fox determinant at d = 4..6,
    also with one closed alpha's basepoint moved one crossing on."""
    rng = random.Random(SEED)
    diag = load(name)
    for d in (4, 5, 6):
        diag = grown(diag, d, rng)
        g = homology(diag)
        based = anchored(diag)
        turn = next(c.id for c in based.family("alpha", "closed")
                    if len(c.order) > 1)
        rotated = based.with_curves(
            dataclasses.replace(c, order=c.order[1:] + c.order[:1])
            if c.id == turn else c for c in based.curves)
        for copy in (based, rotated):
            det = fox_determinant(copy, g)
            for n in (2, 3):
                chars = all_characters(g, n)
                for chi in rng.sample(chars, min(3, len(chars))):
                    ca = CharacterAssignment.from_character(chi)
                    assert contract(copy, build_hn(n), ca) == \
                        evaluate(det, chi), (name, d, n, chi.exps)


@pytest.mark.parametrize("name,d,ns", [("hopf", 3, (2, 3)),
                                       ("hopf", 4, (2,)),
                                       ("trefoil", 2, (2, 3))])
def test_engines_agree_after_slide_and_back(name, d, ns):
    """Sliding each new closed curve over an old one and back gives wide
    frontiers (hundreds to thousands of states) in which states share
    their local configuration at a crossing most."""
    rng = random.Random(SEED)
    diag = slid_and_back(load(name), d)
    g = homology(diag)
    based = anchored(diag)
    det = fox_determinant(based, g)
    for n in ns:
        chars = all_characters(g, n)
        for chi in rng.sample(chars, min(3, len(chars))):
            assert contract(based, build_hn(n),
                            CharacterAssignment.from_character(chi)) == \
                evaluate(det, chi), (name, d, n, chi.exps)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_grown_lens_group_algebra_counts_homomorphisms(p):
    """Stabilization and handleslides keep L(p, 1), so the group algebra of
    Z/m still counts the homomorphisms Z/p -> Z/m."""
    rng = random.Random(SEED + p)
    diag = load(f"lens_{p}_1")
    for d in (3, 4, 5):
        diag = grown(diag, d, rng)
        based = anchored(diag)
        for m in range(1, 6):
            z = contract(based, build_cyclic_group_algebra(m),
                         CharacterAssignment.trivial())
            assert z == CyclotomicScalar.integer(math.gcd(p, m), 1), (d, m)


def test_odd_scalar_guard_on_a_grown_diagram():
    # three closed betas keep the corrupt functional parity odd
    diag = grown(load("lens_2_1"), 3, random.Random(SEED))
    pkg = build_cyclic_group_algebra(2)
    bad_integral = dataclasses.replace(pkg.integral, mu_parity=1)
    bad = dataclasses.replace(pkg, integral=bad_integral)
    with pytest.raises(OddScalarError):
        contract(anchored(diag), bad, CharacterAssignment.trivial())


def test_non_integral_prefactor_is_a_suturant_error(trefoil):
    pkg = build_hn(2)
    bad = dataclasses.replace(pkg, cointegral=dataclasses.replace(
        pkg.cointegral, iota_prefactor=Fraction(1, 7)))
    with pytest.raises(CyclotomicArithmeticError) as err:
        contract(based_at_first(trefoil), bad, meridian_assignment(trefoil, 2))
    assert isinstance(err.value, SuturantError)


def exterior_package():
    """The exterior algebra on odd primitive x, y (basis 1, x, y, xy), with
    mu = the xy coefficient, pi_B = the counit and iota(1) = 1 + x + xy.
    No axiom is claimed: the data only has to feed both evaluations of the
    contraction, and here, unlike in the shipped packages, two odd slots
    on one beta multiply to a nonzero element."""
    mul_sc = {(0, i): {i: 1} for i in range(4)}
    mul_sc.update({(i, 0): {i: 1} for i in range(1, 4)})
    mul_sc.update({(1, 2): {3: 1}, (2, 1): {3: -1}})
    comul_sc = {0: {(0, 0): 1}, 1: {(1, 0): 1, (0, 1): 1},
                2: {(2, 0): 1, (0, 2): 1},
                3: {(3, 0): 1, (1, 2): 1, (2, 1): -1, (0, 3): 1}}
    alg = PresentedAlgebra(4, ("1", "x", "y", "xy"), (0, 1, 1, 0), mul_sc,
                           comul_sc, {0: {0: 1}, 1: {1: -1}, 2: {2: -1},
                                      3: {3: 1}}, (1, 0, 0, 0), 0)
    integral = RelativeIntegralData(
        b_basis=(0,), i_b={0: {0: 1}}, pi_b={0: {0: 1}}, mu={3: {0: 1}},
        glike_b=0, glike_b_order=1, b_dlog=(0,), mu_parity=0)
    cointegral = RelativeCointegralData(
        a_basis=(0,), pi_a={0: {0: 1}}, i_a={0: {0: 1}},
        iota={0: {0: 1, 1: 1, 3: 1}}, astar_exps=(0,), astar_order=1,
        iota_prefactor=Fraction(1), iota_parity=0)
    return HopfPackage(alg, integral, cointegral, name="exterior")


def walked(based, pkg):
    """The contraction at the trivial character by its definition: a sum
    over every term of the iterated coproducts and antipodes, the slots
    rerouted from alpha order to beta order at the Koszul sign of the odd
    ones, each beta's product mapped by mu or pi_B."""
    alg, integ, coint = pkg.algebra, pkg.integral, pkg.cointegral
    alphas, betas = based.family("alpha"), based.family("beta")
    order = [xid for c in alphas for xid in c.order]
    where = {xid: i for i, xid in enumerate(order)}
    choices = [list(alg.antipode_sc[i].items()) for i in range(alg.dim)]
    total = 0
    for combo in itertools.product(*(coproduct_power(
            pkg, apply(coint.iota if c.closed else coint.i_a, {0: 1}),
            len(c.order)) for c in alphas)):
        coeff, slots = 1, []
        for c, key in combo:
            coeff, slots = coeff * c, slots + list(key)
        for picks in itertools.product(*(
                choices[i] if based.crossing(xid).sign < 0 else [(i, 1)]
                for i, xid in zip(slots, order))):
            term = math.prod(c for _, c in picks) * coeff
            odd = [where[x] for c in betas for x in c.order
                   if alg.parity[picks[where[x]][0]]]
            term *= perm_sign(odd)
            for c in betas:
                prod = alg.unit()
                for xid in c.order:
                    prod = alg.mul(prod, {picks[where[xid]][0]: 1})
                b_elem = apply(integ.mu if c.closed else integ.pi_b, prod)
                term *= b_elem.get(0, 0)
            total += term
    return total


@pytest.mark.parametrize("name", ["hopf", "trefoil", "figure8", "lens_2_1"])
def test_sweep_matches_the_term_walk_with_odd_products(name):
    """Also with b1 reversed, and after growth to d = 3."""
    based = based_at_first(load(name))
    pkg = exterior_package()
    for diag in (based, apply_move(based, ReverseCurve("b1")),
                 anchored(grown(load(name), 3, random.Random(SEED)))):
        want = walked(diag, pkg)
        assert contract(diag, pkg, CharacterAssignment.trivial()) == \
            CyclotomicScalar.integer(want, 1)
        # one sweep, one block per order
        assert contract_values(diag, pkg, [CharacterAssignment.trivial(n)
                                           for n in (1, 3, 2)]) == \
            [CyclotomicScalar.integer(want, n) for n in (1, 3, 2)]


def per_character(diag, pkg, assignments):
    return [contract(diag, pkg, chars) for chars in assignments]


def every_character(diag, n):
    return [CharacterAssignment.from_character(chi)
            for chi in all_characters(homology(diag), n)]


def test_one_sweep_equals_a_sweep_per_character():
    """On every corpus diagram, seeded move copies and rotations of them,
    at n = 2..4 and every character."""
    bases = [(name, load(name)) for name in corpus_names()]
    for label, diag in moved_and_rotated(bases):
        for n in (2, 3, 4):
            pkg, chars = build_hn(n), every_character(diag, n)
            assert contract_values(diag, pkg, chars) == \
                per_character(diag, pkg, chars), (label, n)


def test_one_sweep_on_a_wide_frontier():
    # Hopf slid and back to d = 3: 27 characters at n = 3
    diag = slid_and_back(load("hopf"), 3)
    pkg, chars = build_hn(3), every_character(diag, 3)
    assert len(chars) == 27
    assert contract_values(diag, pkg, chars) == \
        per_character(diag, pkg, chars)


def test_one_sweep_over_mixed_orders(hopf):
    """Each block has its own order: characters of orders 6, 3, 2 and 1,
    all admissible for H_6, and an empty list."""
    pkg = build_hn(6)
    chars = (every_character(hopf, 6)[:5] + every_character(hopf, 3)[-4:]
             + every_character(hopf, 2) + [CharacterAssignment.trivial()])
    assert {c.order for c in chars} == {6, 3, 2, 1}
    assert contract_values(hopf, pkg, chars) == \
        per_character(hopf, pkg, chars)
    assert contract_values(hopf, pkg, []) == []


def test_the_first_inadmissible_character_raises(trefoil):
    # zeta_4^1 and zeta_4^2 on b2: neither is a cube root of unity
    pkg = build_hn(3)
    good = every_character(trefoil, 3)
    bad = [CharacterAssignment(order=4, psi={"b1": 0, "b2": e})
           for e in (1, 2)]
    with pytest.raises(CharacterMismatchError) as alone:
        contract(trefoil, pkg, bad[0])
    with pytest.raises(CharacterMismatchError) as listed:
        contract_values(trefoil, pkg, good[:1] + bad + good[1:])
    assert str(listed.value) == str(alone.value)
