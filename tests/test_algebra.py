import dataclasses

import pytest

from suturant import (build_cyclic_group_algebra, build_hn, check_axioms,
                      coproduct_power)
from suturant.algebra import apply


def labels(pkg, terms):
    return sorted((c, tuple(pkg.algebra.label(i) for i in key))
                  for c, key in terms)


def x_index(pkg):
    # X is the first odd basis element of the hn family
    return next(i for i, p in enumerate(pkg.algebra.parity) if p == 1)


def test_hn2_coproduct_of_x():
    pkg = build_hn(2)
    terms = coproduct_power(pkg, x_index(pkg), 2)
    assert labels(pkg, terms) == [(1, ("K", "X")), (1, ("X", "1"))]


def test_hn3_antipode_of_x():
    pkg = build_hn(3)
    s = pkg.algebra.antipode({x_index(pkg): 1})
    assert {pkg.algebra.label(k): v for k, v in s.items()} == {"K^2X": -1}


def test_hn1_is_the_exterior_algebra():
    pkg = build_hn(1)
    assert pkg.algebra.dim == 2
    terms = coproduct_power(pkg, x_index(pkg), 2)
    assert labels(pkg, terms) == [(1, ("1", "X")), (1, ("X", "1"))]
    assert check_axioms(pkg).passed


def test_degenerate_sizes_rejected():
    with pytest.raises(ValueError):
        build_hn(0)
    with pytest.raises(ValueError):
        build_cyclic_group_algebra(0)


def test_iterated_coproduct_of_x():
    pkg = build_hn(4)
    x = x_index(pkg)
    assert coproduct_power(pkg, x, 1) == [(1, (x,))]
    # Delta^0 = counit
    assert coproduct_power(pkg, x, 0) == []
    assert coproduct_power(pkg, 0, 0) == [(1, ())]
    # Delta^5(X): X in slot j, K before, 1 after
    terms = coproduct_power(pkg, x, 5)
    assert len(terms) == 5
    for coeff, key in terms:
        assert coeff == 1
        j = key.index(x)
        names = tuple(pkg.algebra.label(i) for i in key)
        assert names == ("K",) * j + ("X",) + ("1",) * (4 - j)


def test_cyclic_integral_and_cointegral():
    pkg = build_cyclic_group_algebra(3)
    # mu picks the coefficient of the identity out of the cointegral
    val = apply(pkg.integral.mu, apply(pkg.cointegral.iota, {0: 1}))
    assert val == {0: 1}


def test_cyclic_antipode_is_inversion():
    pkg = build_cyclic_group_algebra(4)
    alg = pkg.algebra
    for i in range(4):
        assert alg.antipode({i: 1}) == {(-i) % 4: 1}
        assert alg.antipode(alg.antipode({i: 1})) == {i: 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_hn_axiom_suite(n):
    rep = check_axioms(build_hn(n))
    assert rep.passed, str(rep)


@pytest.mark.parametrize("m", [1, 2, 5, 6])
def test_cyclic_axiom_suite(m):
    rep = check_axioms(build_cyclic_group_algebra(m))
    assert rep.passed, str(rep)


def test_parity_bookkeeping():
    for pkg in (build_hn(3), build_cyclic_group_algebra(4)):
        assert pkg.integral.mu_parity == pkg.cointegral.iota_parity


def test_corrupted_antipode_fails_with_witness():
    pkg = build_hn(2)
    bad_sc = dict(pkg.algebra.antipode_sc)
    x = x_index(pkg)
    bad_sc[x] = {k: -v for k, v in bad_sc[x].items()}     # S(X) = +K^-1 X
    alg = dataclasses.replace(pkg.algebra, antipode_sc=bad_sc)
    rep = check_axioms(dataclasses.replace(pkg, algebra=alg))
    assert not rep.passed
    failing = {e.check: e for e in rep.failures()}
    assert "antipode" in failing
    assert failing["antipode"].witness == "X"
