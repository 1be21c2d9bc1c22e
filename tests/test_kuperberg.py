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
from suturant import kuperberg
from suturant.algebra import (RelativeCointegralData, RelativeIntegralData,
                              apply, check_axioms)
from suturant.diagram import perm_sign
from suturant.errors import (ArcCurveError, CharacterMismatchError,
                             CyclotomicArithmeticError, OddScalarError,
                             SuturantError)
from suturant.invariant import anchor_multipoint
from suturant.kuperberg import _rules

from conftest import (SEED, corpus_names, load, moved_and_rotated,
                      slid_and_back)


def meridian_assignment(diag, n):
    """The character sending the meridian (the last beta generator) to a
    primitive n-th root; the other exponents are forced by H_1."""
    g = homology(diag)
    for chi in all_characters(g, n):
        if chi.on_generators()[g.gens[-1]] == 1 % n:
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


def test_odd_scalar_guard_reads_every_block(trefoil):
    # mu declared even: every nonzero contribution of the trefoil's one
    # closed beta is odd.  It vanishes at the first character (its hn(6)
    # value is 0) but not at the second, so only a later block shows it
    based = based_at_first(trefoil)
    pkg = build_hn(6)
    bad = dataclasses.replace(pkg, integral=dataclasses.replace(
        pkg.integral, mu_parity=0))
    vanishing = CharacterAssignment(order=6, psi={"b1": 4, "b2": 1})
    assert contract(based, pkg, vanishing).is_zero()
    assert contract_values(based, bad, [vanishing])[0].is_zero()
    with pytest.raises(OddScalarError):
        contract_values(based, bad,
                        [vanishing, CharacterAssignment.trivial(6)])


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
    """The contraction at the trivial character by its definition, before
    the cointegral prefactor: see :func:`walked_at`."""
    return walked_at(based, pkg, CharacterAssignment.trivial())[0]


def walked_at(based, pkg, chars):
    """The contraction at ``chars`` by its definition, before the
    cointegral prefactor, as coefficients over exponents mod chars.order: a
    sum over every term of the iterated coproducts and antipodes, the slots
    rerouted from alpha order to beta order at the Koszul sign of the odd
    ones, each beta's product mapped by mu or pi_B into B, where the
    character reads every b^t as x^(e * t), e its exponent on the beta."""
    alg, integ, coint = pkg.algebra, pkg.integral, pkg.cointegral
    alphas, betas = based.family("alpha"), based.family("beta")
    order = [xid for c in alphas for xid in c.order]
    where = {xid: i for i, xid in enumerate(order)}
    choices = [list(alg.antipode_sc[i].items()) for i in range(alg.dim)]
    total = [0] * chars.order
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
            poly = {0: term * perm_sign(odd)}
            for c in betas:
                prod = alg.unit()
                for xid in c.order:
                    prod = alg.mul(prod, {picks[where[xid]][0]: 1})
                b_elem = apply(integ.mu if c.closed else integ.pi_b, prod)
                e, read = chars.psi_exponent(c.id), {}
                for k, v in poly.items():
                    for pos, cb in b_elem.items():
                        x = (k + e * integ.b_dlog[pos]) % chars.order
                        read[x] = read.get(x, 0) + v * cb
                poly = read
            for k, v in poly.items():
                total[k] += v
    return total


def walked_value(based, pkg, chars):
    """:func:`walked_at` reduced and times the cointegral prefactor, once
    per closed alpha: what :func:`contract` returns."""
    closed = sum(1 for c in based.family("alpha") if c.closed)
    return CyclotomicScalar.from_coeffs(
        walked_at(based, pkg, chars), chars.order).scale(
            pkg.cointegral.iota_prefactor ** closed)


def off_h1(diag, n, rng):
    """Four characters of order n with an exponent drawn per beta, not
    induced by H_1, so that a closed alpha's signed exponent sum F, the
    degree its seed's orbit sum is read at, need not vanish mod n."""
    betas = [c.id for c in diag.family("beta")]
    return [CharacterAssignment(n, {b: rng.randrange(n) for b in betas})
            for _ in range(4)]


def relator_sums(diag, chars):
    """Per closed alpha, F = the signed sum of the exponents of its
    crossings' betas, mod chars.order."""
    return [sum(diag.crossing(x).sign
                * chars.psi_exponent(diag.crossing(x).beta)
                for x in c.order) % chars.order
            for c in diag.family("alpha", "closed")]


@pytest.mark.parametrize("n", [2, 3])
def test_the_fold_matches_the_term_walk_off_h1(n):
    """On every corpus diagram at exponents not induced by H_1: the sweep,
    which keys H_n's runs and remainders by their orbits under K and reads
    their degrees into the value, gives the term walk's value, which reads
    every b^t of a beta's image as x^(e * t).  A closed alpha's seed
    sum_i K^i X is read at F != 0 mod n on some of these characters, where
    the remainder's degree shows."""
    rng, pkg, seen = random.Random(SEED + n), build_hn(n), 0
    assert len(set(_rules(pkg).rep)) == 2
    for name in corpus_names():
        diag = load(name)
        chars = off_h1(diag, n, rng)
        seen += sum(any(relator_sums(diag, ca)) for ca in chars)
        assert contract_values(diag, pkg, chars) == \
            [walked_value(diag, pkg, ca) for ca in chars], name
    assert seen


def orbit_breaks(n):
    """Copies of H_n, n even, that each break one condition of the orbit
    fold (see the ``kuperberg`` module docstring) and keep the others: b = K
    odd,
    K not central (X K = -K X), K times K^i X = 2 K^(i+1) X (not a
    permutation of the basis), mu(X) = 2 (mu not shifting along an orbit),
    Delta(K X) with one sign flipped, and S(X) = +K^-1 X.  Each has the
    prefactor 1, as the broken copies' values need not be divisible by n."""
    pkg = build_hn(n)
    pkg = dataclasses.replace(pkg, cointegral=dataclasses.replace(
        pkg.cointegral, iota_prefactor=Fraction(1)))
    alg, integ = pkg.algebra, pkg.integral
    odd = [{n + (i + 1) % n: 1} for i in range(n)]

    def with_algebra(**changes):
        return dataclasses.replace(pkg, algebra=dataclasses.replace(
            alg, **changes))

    # K^i and K^i X of odd i change parity, so the product stays even
    parity = [p ^ (i % n) % 2 for i, p in enumerate(alg.parity)]
    anticentral, doubled = dict(alg.mul_sc), dict(alg.mul_sc)
    for i in range(n):
        anticentral[n + i, 1] = {k: -c for k, c in odd[i].items()}
        doubled[1, n + i] = doubled[n + i, 1] = {k: 2 for k in odd[i]}
    comul = dict(alg.comul_sc)
    comul[n + 1] = {k: c if k[0] < n else -c
                    for k, c in comul[n + 1].items()}
    antipode = dict(alg.antipode_sc)
    antipode[n] = {k: -c for k, c in antipode[n].items()}
    return {
        "b odd": with_algebra(parity=tuple(parity)),
        "b not central": with_algebra(mul_sc=anticentral),
        "b times a basis element not one": with_algebra(mul_sc=doubled),
        "mu not shifting": dataclasses.replace(
            pkg, integral=dataclasses.replace(
                integ, mu={**integ.mu, n: {0: 2}})),
        "Delta not equivariant": with_algebra(comul_sc=comul),
        "S not equivariant": with_algebra(antipode_sc=antipode),
    }


@pytest.mark.parametrize("label", sorted(orbit_breaks(2)))
def test_each_orbit_condition_is_checked(label):
    """A copy of H_2 and of H_4 that breaks one condition of the fold is
    not folded: every basis index is its own representative, and the sweep
    gives the term walk's value on every corpus diagram, at characters
    induced by H_1 and at exponents drawn per beta.  With K odd, B holds
    odd elements, and the sweep refuses a nonzero contribution of odd
    total parity, which the walk, summing every term, does not see; a fold
    would key K^i X by X and give a value on some of those diagrams."""
    rng, compared = random.Random(SEED), 0
    for n in (2, 4):
        pkg = orbit_breaks(n)[label]
        assert _rules(pkg).rep == tuple(range(2 * n)), n
        for name in corpus_names():
            diag = load(name)
            chars = every_character(diag, n)[:3] + off_h1(diag, n, rng)
            want = [walked_value(diag, pkg, ca) for ca in chars]
            try:
                got = contract_values(diag, pkg, chars)
            except OddScalarError:
                assert label == "b odd", (n, name)
                continue
            assert got == want, (n, name)
            compared += 1
    assert compared


def in_beta_order(pkg):
    """A copy of the package whose sweep multiplies each beta's slots in
    the beta's own order, keeping a run per stretch of placed slots, as it
    does for a package that does not supercommute."""
    copy = dataclasses.replace(pkg)
    _rules(copy).supercommutes = False
    return copy


@pytest.mark.parametrize("name", ["hopf", "trefoil", "figure8", "lens_2_1"])
def test_sweep_matches_the_term_walk_with_odd_products(name):
    """Also with b1 reversed, and after growth to d = 3, with each beta's
    slots multiplied in arrival order and in the beta's own order: the odd
    products x y = -y x are where the arrival order's sign shows."""
    based = based_at_first(load(name))
    pkg = exterior_package()
    assert _rules(pkg).supercommutes
    for diag in (based, apply_move(based, ReverseCurve("b1")),
                 anchored(grown(load(name), 3, random.Random(SEED)))):
        want = walked(diag, pkg)
        for copy in (pkg, in_beta_order(pkg)):
            assert contract(diag, copy, CharacterAssignment.trivial()) == \
                CyclotomicScalar.integer(want, 1)
            # one sweep, one block per order
            assert contract_values(diag, copy, [
                CharacterAssignment.trivial(n) for n in (1, 3, 2)]) == \
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


def test_a_replaced_package_reads_no_stale_rules():
    """The shipped packages are built once per process, and a copy made by
    ``dataclasses.replace`` starts with empty rules: with the antipode
    corrupted as in the axiom-suite test, contracted right after the
    shipped package, it gives the term walk's value, not the shipped one."""
    assert build_hn(3) is build_hn(3)
    pkg = build_hn(2)
    bad_sc = dict(pkg.algebra.antipode_sc)
    bad_sc[2] = {k: -v for k, v in bad_sc[2].items()}     # S(X) = +K^-1 X
    bad = dataclasses.replace(pkg, algebra=dataclasses.replace(
        pkg.algebra, antipode_sc=bad_sc))
    triv, differ = CharacterAssignment.trivial(), []
    for name in corpus_names():
        diag = load(name)
        shipped = contract(diag, pkg, triv)
        got = contract(diag, bad, triv)
        closed = sum(1 for c in diag.family("alpha") if c.closed)
        assert got == CyclotomicScalar.integer(walked(diag, bad), 1).scale(
            pkg.cointegral.iota_prefactor ** closed), name
        if got != shipped:
            differ.append(name)
    assert differ


def test_warm_rules_change_nothing():
    """On every corpus diagram, seeded move copies and rotations of them,
    the shipped package, whose rules earlier contractions filled, gives
    what a freshly built one gives: H_n at n = 2..4 and every character,
    and the group algebra of Z/3."""
    bases = [(name, load(name)) for name in corpus_names()]
    triv = [CharacterAssignment.trivial()]
    for label, diag in moved_and_rotated(bases):
        for n in (2, 3, 4):
            chars = every_character(diag, n)
            assert contract_values(diag, build_hn(n), chars) == \
                contract_values(diag, build_hn.__wrapped__(n), chars), \
                (label, n)
        assert contract_values(diag, build_cyclic_group_algebra(3), triv) \
            == contract_values(diag, build_cyclic_group_algebra.__wrapped__(3),
                               triv), label


def test_the_rule_memo_stays_within_its_bound():
    """After every corpus diagram at n = 2..4 and every character, the
    package's rules hold at most one table per (negative, last, closing
    kind), each keyed by local triples of orbit representatives or None:
    with r = dim / n = 2 representatives, K^0 and X, at most
    r * (r + 1)^2 = 18 entries per table."""
    for name in corpus_names():
        diag = load(name)
        for n in (2, 3, 4):
            contract_values(diag, build_hn(n), every_character(diag, n))
    for n in (2, 3, 4):
        rules = _rules(build_hn(n))
        reps = set(rules.rep)
        assert reps == {0, n}
        r = build_hn(n).algebra.dim // n
        assert set(rules.terms) <= set(itertools.product(
            (False, True), (False, True), (None, False, True)))
        runs = reps | {None}
        for table in rules.terms.values():
            assert len(table) <= r * (r + 1) ** 2
            for rem, lt, rt in table:
                assert rem in reps and lt in runs and rt in runs


def frontier(monkeypatch, diag, pkg, chars):
    """The values of one sweep, its peak frontier and its frontier states
    summed over crossings."""
    peak, summed, cross = [0], [0], kuperberg._cross

    def spy(states, *args):
        out = cross(states, *args)
        peak[0] = max(peak[0], len(states), len(out))
        summed[0] += len(out)
        return out

    monkeypatch.setattr(kuperberg, "_cross", spy)
    values = contract_values(diag, pkg, chars)
    monkeypatch.undo()
    return values, peak[0], summed[0]


def test_the_fold_keeps_the_frontier_small(monkeypatch):
    """Hopf slid and back to d = 4 at n = 3, every character: the peak
    frontier stays at 10 states, where keying runs and remainders by basis
    index held 2,592 (19 without dropping dead runs).  A fold that
    switched itself off would keep every value and fail here."""
    diag = anchored(slid_and_back(load("hopf"), 4))
    chars = every_character(diag, 3)
    assert len(chars) == 27
    _, peak, _ = frontier(monkeypatch, diag, build_hn(3), chars)
    assert 0 < peak <= 10


def unpruned(pkg):
    """A copy of the package whose sweep keeps every run, dead or not."""
    copy = dataclasses.replace(pkg)
    _rules(copy).dead = {True: frozenset(), False: frozenset()}
    return copy


def test_dropping_dead_runs_shrinks_the_frontier(monkeypatch):
    """The same sweep with and without dropping the runs that pi_B kills,
    an X on an unfinished arc: the same values, the peak frontier 10
    states instead of 19 and 306 summed states instead of 559."""
    diag = anchored(slid_and_back(load("hopf"), 4))
    chars = every_character(diag, 3)
    pruned = frontier(monkeypatch, diag, build_hn(3), chars)
    kept = frontier(monkeypatch, diag, unpruned(build_hn(3)), chars)
    assert pruned[0] == kept[0]
    assert pruned[1:] == (10, 306)
    assert kept[1:] == (19, 559)


def test_the_sweep_stops_at_an_empty_frontier(monkeypatch):
    """Hopf at n = 2 and the trivial character: the frontier is empty
    after the fourth of its 8 closed-alpha crossings, and an empty
    frontier stays empty, so the sweep stops there with the value 0, as
    the Fox engine's.  No crossing is placed on an empty frontier."""
    diag = anchored(load("hopf"))
    chars = CharacterAssignment.from_character(
        all_characters(homology(diag), 2)[0])
    sizes, cross = [], kuperberg._cross

    def spy(states, *args):
        out = cross(states, *args)
        sizes.append((len(states), len(out)))
        return out

    monkeypatch.setattr(kuperberg, "_cross", spy)
    assert contract_values(diag, build_hn(2), [chars]) == \
        [CyclotomicScalar.from_coeffs([0, 0], 2)]
    assert sum(len(c.order) for c in diag.closed_alphas) == 8
    assert len(sizes) == 4 and sizes[-1][1] == 0
    assert all(before for before, _ in sizes)
    assert evaluate(fox_determinant(diag), chars.h1).is_zero()


def test_odd_elements_that_commute_do_not_supercommute():
    """The exterior fixture with y x = x y, not -x y: two odd elements
    whose product is nonzero and commutes fail m = m o tau, so the sweep
    takes each beta's own order, and gives the term walk's value."""
    pkg = exterior_package()
    mul_sc = {**pkg.algebra.mul_sc, (2, 1): {3: 1}}
    pkg = dataclasses.replace(pkg, algebra=dataclasses.replace(
        pkg.algebra, mul_sc=mul_sc))
    assert not _rules(pkg).supercommutes
    for name in ("hopf", "trefoil", "figure8", "lens_2_1"):
        diag = based_at_first(load(name))
        for based in (diag, apply_move(diag, ReverseCurve("b1"))):
            assert contract(based, pkg, CharacterAssignment.trivial()) == \
                CyclotomicScalar.integer(walked(based, pkg), 1), name


def test_both_product_orders_agree_on_hn():
    """H_2 and H_3 at every character, on every corpus diagram, seeded move
    copies and rotations of them: the sweep in arrival order gives what
    the sweep in each beta's own order gives."""
    bases = [(name, load(name)) for name in corpus_names()]
    pkgs = {n: (build_hn(n), in_beta_order(build_hn(n))) for n in (2, 3)}
    for label, diag in moved_and_rotated(bases):
        for n, (pkg, ordered) in pkgs.items():
            assert _rules(pkg).supercommutes
            chars = every_character(diag, n)
            assert contract_values(diag, pkg, chars) == \
                contract_values(diag, ordered, chars), (label, n)


def test_a_supercommutative_sweep_keeps_one_run_per_beta(monkeypatch):
    """Every frontier key entering a crossing holds, per beta, at most one
    run; in each beta's own order the same sweep holds several runs on
    one beta.  A key is the remainder, the parity word and the runs, an
    integer in which each beta, in family order, owns a field of w-bit
    digits, w = dim.bit_length(): one digit in arrival order and
    (k + 1) // 2 for a beta of k crossings in beta order, each run one
    digit holding its representative + 1 from the field's low end, 0 for
    no run."""
    diag = slid_and_back(load("hopf"), 3)
    betas = diag.family("beta")
    widest, cross = [], kuperberg._cross

    def decoded(runs, w, caps):
        """Each beta's runs, read digit by digit from its field."""
        parts = []
        for cap in caps:
            digits = [(runs >> w * k) & ((1 << w) - 1) for k in range(cap)]
            runs >>= w * cap
            parts.append([d - 1 for d in digits if d])
            assert digits == sorted(digits, key=lambda d: not d)
        assert runs == 0
        return parts

    def sweep(pkg):
        w = pkg.algebra.dim.bit_length()
        caps = [1 if _rules(pkg).supercommutes else (len(c.order) + 1) // 2
                for c in betas]

        def spy(states, *args):
            widest.append(max((len(part) for key in states
                               for part in decoded(key[2], w, caps)),
                              default=0))
            return cross(states, *args)

        monkeypatch.setattr(kuperberg, "_cross", spy)
        contract_values(diag, pkg, [CharacterAssignment.trivial(3)])
        monkeypatch.setattr(kuperberg, "_cross", cross)

    for pkg in (build_hn(3), exterior_package()):
        sweep(pkg)
        assert widest and max(widest) == 1, pkg.name
        widest.clear()
        sweep(in_beta_order(pkg))
        assert max(widest) > 1, pkg.name
        widest.clear()


def symmetric_group_package():
    """The group algebra of S_3, built from its multiplication table as
    :func:`build_cyclic_group_algebra` builds Z/m: basis the six
    permutations of (0, 1, 2), identity first, all even, integral delta_e,
    cointegral the sum of all group elements.  It does not commute, so its
    sweep keeps each beta's runs in the beta's own order.  Its
    homomorphism counts cannot see that order: reversing every product
    gives the opposite group, and S_3^op is S_3 by inversion."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    mul_sc = {(i, j): {index[tuple(p[x] for x in q)]: 1}
              for i, p in enumerate(perms) for j, q in enumerate(perms)}
    antipode_sc = {i: {index[tuple(sorted(range(3), key=p.__getitem__))]: 1}
                   for i, p in enumerate(perms)}
    alg = PresentedAlgebra(m, tuple("".join(map(str, p)) for p in perms),
                           (0,) * m, mul_sc,
                           {i: {(i, i): 1} for i in range(m)}, antipode_sc,
                           (1,) * m, 0)
    integral = RelativeIntegralData(
        b_basis=(0,), i_b={0: {0: 1}}, pi_b={i: {0: 1} for i in range(m)},
        mu={0: {0: 1}}, glike_b=0, glike_b_order=1, b_dlog=(0,),
        mu_parity=0)
    cointegral = RelativeCointegralData(
        a_basis=(0,), pi_a={i: {0: 1} for i in range(m)}, i_a={0: {0: 1}},
        iota={0: {i: 1 for i in range(m)}}, astar_exps=(0,), astar_order=1,
        iota_prefactor=Fraction(1), iota_parity=0)
    return HopfPackage(alg, integral, cointegral, name="S_3")


def s3_homomorphisms(diag):
    """|Hom(<closed betas | closed alpha words>, S_3)| by brute force, a
    letter on an arc beta read as the identity."""
    perms = list(itertools.permutations(range(3)))
    gens = [c.id for c in diag.family("beta", "closed")]
    words = [[(diag.crossing(x).beta, diag.crossing(x).sign) for x in c.order
              if diag.crossing(x).beta in gens]
             for c in diag.family("alpha", "closed")]
    count = 0
    for images in itertools.product(perms, repeat=len(gens)):
        image = dict(zip(gens, images))
        for word in words:
            p = perms[0]
            for beta, sign in word:
                q = image[beta]
                if sign < 0:
                    q = tuple(sorted(range(3), key=q.__getitem__))
                p = tuple(p[x] for x in q)
            if p != perms[0]:
                break
        else:
            count += 1
    return count


def test_the_group_algebra_of_s3_counts_homomorphisms():
    """Its axiom suite passes, it does not supercommute, and its
    contraction at the trivial character is the homomorphism count on
    every corpus diagram and its slide-and-back growth to each d <= 3."""
    pkg = symmetric_group_package()
    assert check_axioms(pkg).passed
    assert not _rules(pkg).supercommutes
    triv = CharacterAssignment.trivial()
    for name in corpus_names():
        base = load(name)
        for d in range(base.d, 4):
            diag = slid_and_back(base, d)
            assert contract(diag, pkg, triv) == CyclotomicScalar.integer(
                s3_homomorphisms(diag), 1), (name, d)


def test_the_supercommutation_flag():
    """H_n, Z/m and the exterior algebra supercommute; S_3 does not, nor
    does the exterior algebra with an odd square x^2 = 1, which commutes
    on every pair of distinct basis elements."""
    ext = exterior_package()
    mul = dict(ext.algebra.mul_sc)
    mul.update({(1, 1): {0: 1}, (1, 3): {2: 1}, (3, 1): {2: -1}})
    clifford = dataclasses.replace(ext, algebra=dataclasses.replace(
        ext.algebra, mul_sc=mul))
    for pkg, flag in ((build_hn(1), True), (build_hn(4), True),
                      (build_cyclic_group_algebra(5), True), (ext, True),
                      (symmetric_group_package(), False), (clifford, False)):
        assert _rules(pkg).supercommutes is flag, pkg.name


def test_the_dead_runs():
    """The representatives whose runs a beta's closing table kills in
    every product.  H_n: none on a closed beta, where mu kills the K
    orbit but X K^i = K^i X takes it out, and the X orbit on an arc, which
    pi_B kills.  Z/3 and S_3: none, as g g^-1 = 1 is never killed.  The
    exterior algebra: none on a closed beta, x, y and xy on an arc."""
    for n in range(1, 5):
        assert _rules(build_hn(n)).dead == {True: set(), False: {n}}, n
    for pkg in (build_cyclic_group_algebra(3), symmetric_group_package()):
        assert _rules(pkg).dead == {True: set(), False: set()}, pkg.name
    assert _rules(exterior_package()).dead == \
        {True: set(), False: {1, 2, 3}}


@pytest.mark.parametrize("name,d,ns", [("trefoil", 3, (2, 3)),
                                       ("figure8", 3, (2, 3)),
                                       ("hopf", 4, (3,)),
                                       ("lens_3_1", 4, (3,))])
def test_engines_agree_past_the_old_frontier_wall(name, d, ns):
    """Slide-and-back growth that took the sweep seconds to minutes while
    it kept a run per stretch of each beta's placed slots: the contraction
    equals the evaluated Fox determinant at every character."""
    diag = slid_and_back(load(name), d)
    g = homology(diag)
    based = anchored(diag)
    det = fox_determinant(based, g)
    for n in ns:
        chars = all_characters(g, n)
        assert contract_values(based, build_hn(n), [
            CharacterAssignment.from_character(chi) for chi in chars]) == \
            [evaluate(det, chi) for chi in chars], (name, d, n)
