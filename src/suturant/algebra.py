"""Finite-dimensional involutive Hopf superalgebras given by structure constants.

An algebra is presented by an integer basis: multiplication, comultiplication,
antipode and counit are sparse integer structure-constant tables.  Two
families ship with the package, ``build_hn(n)`` (2n-dimensional, on K and
an odd X) and ``build_cyclic_group_algebra(m)`` (the group algebra of Z/m),
each with its relative integral and cointegral.

Elements are dicts ``{basis index: integer coefficient}``; tensors are dicts
keyed by index tuples, one index per leg, ``()`` being the ground ring.  A
linear map is a table ``{input key: {output key: coefficient}}``, and one
sparse linear-map core acts on them: ``apply`` (the image of an element),
``compose`` (one map after another, possibly on a few legs only),
``tensor``, ``product`` (m o (f (x) g) in one pass, without the table of
f (x) g), ``flipped`` and ``swapped`` (a map after or before the signed
flip tau of two legs, by relabelling its input or its output keys) and
``first_difference``.  ``check_axioms`` states every axiom as equations
``lhs == rhs`` between composites of the structure maps over the whole
basis (dimensions stay small: the ``axioms`` verb takes at most 512), and
a failing equation is witnessed by the least key on which its sides
differ.  Associativity, and once it holds the evenness of m, the
bialgebra equation, eps(x y) = eps(x) eps(y), the centrality of i_B(B)
and, once i_B(B) is closed under m, the B-linearity of mu, are checked by
one rule: one factor among a set of generators (of H, or for mu of B),
D^2 triples (for associativity) or D columns per generator rather than
D^3 or D^2.  A plain unit (two-sided, even, with Delta(u) = u (x) u)
satisfies every one of these equations, so it is left out of the
generators.  The least failing key always has a generator as that
factor, so nothing is rescanned over the whole basis for the least
witness.  Once a gate holds, the trace property of mu is checked with
its second factor among generators too; that decides only a passing
line, and a failing one runs over the whole basis for its witness.  The
Koszul sign convention is ``tau(v (x) w) = (-1)^{|v||w|} w (x) v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .report import Report


# ---------------------------------------------------------------------------
# the sparse linear-map core
# ---------------------------------------------------------------------------

def apply(table, x):
    """The image of the element x under the linear map ``table``."""
    out = {}
    for i, ci in x.items():
        for j, c in table.get(i, {}).items():
            out[j] = out.get(j, 0) + ci * c
    if 0 in out.values():
        out = {j: c for j, c in out.items() if c}
    return out


def legged(table):
    """The table with every key a tuple of legs, a basis index i becoming
    (i,); ``compose`` and ``tensor`` take tables in this form."""
    def legs(k):
        return k if isinstance(k, tuple) else (k,)
    return {legs(k): {legs(o): c for o, c in col.items() if c}
            for k, col in table.items()}


def compose(f, g, at=0):
    """f after g, with f acting on the legs of g's outputs from position
    ``at`` on and the identity on the others, over the nonzero entries of
    g; inputs that the composite sends to 0 are left out."""
    n = len(next(iter(f))) if f else 1
    out = {}
    for key, col in g.items():
        y = {}
        for k, c in col.items():
            head, tail = k[:at], k[at + n:]
            for o, d in f.get(k[at:at + n], {}).items():
                t = head + o + tail
                y[t] = y.get(t, 0) + c * d
        if 0 in y.values():
            y = {t: v for t, v in y.items() if v}
        if y:
            out[key] = y
    return out


def tensor(f, g):
    """f (x) g, over the nonzero entries of both."""
    out = {}
    for a, fa in f.items():
        for b, gb in g.items():
            col = {}
            for o, c in fa.items():
                for p, d in gb.items():
                    cd = c * d
                    if cd:
                        col[o + p] = cd
            if col:
                out[a + b] = col
    return out


def product(m, f, g):
    """m o (f (x) g) in one pass over the columns of f and g, without the
    table of f (x) g: m multiplies each output of f, one leg, by the first
    leg of each output of g, and the identity acts on the others, as in
    ``compose``."""
    split = [(b, [(p[0], p[1:], d) for p, d in gb.items()])
             for b, gb in g.items()]
    out = {}
    for a, fa in f.items():
        for b, gb in split:
            y = {}
            for (o,), c in fa.items():
                for p, tail, d in gb:
                    cd = c * d
                    for t, e in m.get((o, p), {}).items():
                        if tail:
                            t += tail
                        y[t] = y.get(t, 0) + cd * e
            if 0 in y.values():
                y = {t: v for t, v in y.items() if v}
            if y:
                out[a + b] = y
    return out


def flipped(f, par):
    """f o tau for a map f on two legs, tau the Koszul flip: the column of
    (x, y) is f's column of (y, x) times (-1)^{|x||y|}."""
    return {(j, i): {o: -c for o, c in col.items()} if par[i] and par[j]
            else col for (i, j), col in f.items()}


def swapped(f, par, at=0):
    """tau o f, tau the Koszul flip of the output legs ``at`` and
    ``at + 1`` of f, by relabelling its outputs: (.., v, w, ..) becomes
    (.., w, v, ..) times (-1)^{|v||w|}."""
    out = {}
    for key, col in f.items():
        y = {}
        for o, c in col.items():
            v, w = o[at], o[at + 1]
            y[o[:at] + (w, v) + o[at + 2:]] = -c if par[v] and par[w] else c
        out[key] = y
    return out


def first_difference(f, g):
    """The least input key on which the maps f and g differ, or None."""
    if f == g:
        return None
    return min((k for k in f.keys() | g.keys()
                if f.get(k, {}) != g.get(k, {})), default=None)


@dataclass(frozen=True)
class PresentedAlgebra:
    """A Hopf superalgebra presented by integer structure constants."""

    dim: int
    basis_labels: tuple
    parity: tuple
    mul_sc: dict          # (i, j) -> {k: c}   expansion of e_i * e_j
    comul_sc: dict        # i -> {(j, k): c}   expansion of Delta(e_i)
    antipode_sc: dict     # i -> {j: c}
    counit_vec: tuple
    unit_index: int

    # -- elementwise operations -------------------------------------------

    def unit(self):
        return {self.unit_index: 1}

    def mul(self, x, y):
        return apply(self.mul_sc, {(i, j): ci * cj for i, ci in x.items()
                                   for j, cj in y.items()})

    def antipode(self, x):
        return apply(self.antipode_sc, x)

    def counit(self, x):
        return sum(c * self.counit_vec[i] for i, c in x.items())

    def label(self, i):
        return self.basis_labels[i]


@dataclass(frozen=True)
class RelativeIntegralData:
    """A relative right integral (B, i_B, pi_B, mu) with distinguished b.

    ``b_basis`` lists the H-basis indices spanning B; maps in and out of B
    use positions into that list.  ``b_dlog`` records the discrete log of
    each B-basis element with respect to the group-like ``b`` (character
    evaluation assumes B is the group algebra of the cyclic group <b>,
    which holds for every shipped package).
    """

    b_basis: tuple
    i_b: dict        # b_pos -> {h_idx: c}
    pi_b: dict       # h_idx -> {b_pos: c}
    mu: dict         # h_idx -> {b_pos: c}
    glike_b: int     # position of b in b_basis
    glike_b_order: int
    b_dlog: tuple
    mu_parity: int


@dataclass(frozen=True)
class RelativeCointegralData:
    """A relative right cointegral (A, pi_A, i_A, iota) with character a*.

    ``iota`` is stored with integer coefficients; ``iota_prefactor`` is the
    exact rational applied once per cointegral at contraction time.  The
    character a* is an exponent functional: a*(e_pos) = zeta^astar_exps[pos]
    in a cyclic group of order ``astar_order``.
    """

    a_basis: tuple
    pi_a: dict       # h_idx -> {a_pos: c}
    i_a: dict        # a_pos -> {h_idx: c}
    iota: dict       # a_pos -> {h_idx: c}
    astar_exps: tuple
    astar_order: int
    iota_prefactor: Fraction
    iota_parity: int


@dataclass(frozen=True)
class HopfPackage:
    """An algebra with its relative integral and cointegral.  A package is
    immutable once built: its tables are never changed in place (a changed
    package is a ``dataclasses.replace`` copy), so what its :attr:`memo`
    holds stays valid for the package's life."""

    algebra: PresentedAlgebra
    integral: RelativeIntegralData
    cointegral: RelativeCointegralData
    name: str

    @property
    def unit_a(self):
        """Position of the unit of A: the first whose image under i_A is
        the unit of H, else 0."""
        return next((p for p in range(len(self.cointegral.a_basis))
                     if apply(self.cointegral.i_a, {p: 1})
                     == self.algebra.unit()), 0)

    @cached_property
    def memo(self):
        """Values computed from this package alone, filled on first use by
        the code that reads them (the tensor engine's crossing rules) and
        kept for the package's life.  Not a field: a ``dataclasses.replace``
        copy starts with an empty memo, and equality stays that of the
        fields."""
        return {}


# ---------------------------------------------------------------------------
# shipped instances
# ---------------------------------------------------------------------------

@cache
def build_hn(n):
    """The 2n-dimensional superalgebra on an even K and an odd X with
    K^n = 1, X^2 = 0; basis K^i, K^i X for 0 <= i < n.

    Coproducts: Delta(K) = K (x) K and Delta(X) = K (x) X + X (x) 1;
    antipode S(X) = -K^{-1} X; relative integral mu(K^i X) = K^i,
    mu(K^i) = 0 with b = K; cointegral (1 + K + ... + K^{n-1}) X over the
    trivial A, prefactor 1/n, a* = counit.  n = 1 is the exterior algebra
    on one odd generator.  Built once per n and process: the package is
    immutable, so every caller shares it and its ``memo``.
    """
    if n < 1:
        raise ValueError("n must be >= 1 (the n = 0 Borel is infinite "
                         "dimensional and handled by the Fox engine)")
    dim = 2 * n
    # indices: i -> K^i  (even), n + i -> K^i X  (odd)
    labels = []
    for i in range(n):
        labels.append("1" if i == 0 else ("K" if i == 1 else f"K^{i}"))
    for i in range(n):
        labels.append("X" if i == 0 else ("KX" if i == 1 else f"K^{i}X"))
    parity = tuple([0] * n + [1] * n)

    mul_sc = {}
    for i in range(n):
        for j in range(n):
            k = (i + j) % n
            mul_sc[(i, j)] = {k: 1}
            mul_sc[(i, n + j)] = {n + k: 1}
            mul_sc[(n + i, j)] = {n + k: 1}
            mul_sc[(n + i, n + j)] = {}   # X^2 = 0

    comul_sc = {}
    for i in range(n):
        comul_sc[i] = {(i, i): 1}
        # Delta(K^i X) = K^{i+1} (x) K^i X + K^i X (x) K^i
        comul_sc[n + i] = {((i + 1) % n, n + i): 1, (n + i, i): 1}

    antipode_sc = {}
    for i in range(n):
        antipode_sc[i] = {(-i) % n: 1}
        antipode_sc[n + i] = {n + ((-i - 1) % n): -1}

    counit_vec = tuple([1] * n + [0] * n)
    alg = PresentedAlgebra(dim, tuple(labels), parity, mul_sc, comul_sc,
                           antipode_sc, counit_vec, unit_index=0)

    b_basis = tuple(range(n))
    i_b = {pos: {pos: 1} for pos in range(n)}
    pi_b = {i: {i: 1} for i in range(n)}       # kills the X half
    mu = {n + i: {i: 1} for i in range(n)}     # mu(K^i X) = K^i, mu(K^i) = 0
    integral = RelativeIntegralData(
        b_basis=b_basis, i_b=i_b, pi_b=pi_b, mu=mu,
        glike_b=1 % n, glike_b_order=n, b_dlog=tuple(range(n)), mu_parity=1)

    cointegral = RelativeCointegralData(
        a_basis=(0,),
        pi_a={i: {0: counit_vec[i]} for i in range(dim) if counit_vec[i]},
        i_a={0: {0: 1}},
        iota={0: {n + i: 1 for i in range(n)}},
        astar_exps=(0,), astar_order=1,
        iota_prefactor=Fraction(1, n), iota_parity=1)

    return HopfPackage(alg, integral, cointegral, name="hn")


@cache
def build_cyclic_group_algebra(m):
    """Group algebra of Z/m: basis g^i, all even, integral delta_e,
    cointegral the sum of all group elements, trivial A = B = k.  Built
    once per m and process, like :func:`build_hn`."""
    if m < 1:
        raise ValueError("m must be >= 1")
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g^{i}")
                   for i in range(m))
    mul_sc = {(i, j): {(i + j) % m: 1} for i in range(m) for j in range(m)}
    comul_sc = {i: {(i, i): 1} for i in range(m)}
    antipode_sc = {i: {(-i) % m: 1} for i in range(m)}
    counit_vec = tuple([1] * m)
    alg = PresentedAlgebra(m, labels, tuple([0] * m), mul_sc, comul_sc,
                           antipode_sc, counit_vec, unit_index=0)

    integral = RelativeIntegralData(
        b_basis=(0,), i_b={0: {0: 1}},
        pi_b={i: {0: counit_vec[i]} for i in range(m)},
        mu={0: {0: 1}},                       # mu(g^i) = [i == 0]
        glike_b=0, glike_b_order=1, b_dlog=(0,), mu_parity=0)

    cointegral = RelativeCointegralData(
        a_basis=(0,),
        pi_a={i: {0: 1} for i in range(m)},
        i_a={0: {0: 1}},
        iota={0: {i: 1 for i in range(m)}},
        astar_exps=(0,), astar_order=1,
        iota_prefactor=Fraction(1, 1), iota_parity=0)

    return HopfPackage(alg, integral, cointegral, name="cyclic-group-algebra")


# ---------------------------------------------------------------------------
# iterated coproduct
# ---------------------------------------------------------------------------

def coproduct_power(pkg, x, k):
    """Expansion of Delta^{(k)}(x) as a list of (coefficient, index tuple).

    Delta^{(0)} is the counit (empty tuples), Delta^{(1)} the identity,
    and each further power splits the last leg: k - 1 ``compose`` of the
    legged coproduct.  Terms are merged and returned sorted by key.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    alg = pkg.algebra
    if isinstance(x, int):
        x = {x: 1}
    if k == 0:
        c = alg.counit(x)
        return [(c, ())] if c else []
    dl = legged(alg.comul_sc)
    terms = {(): {(i,): c for i, c in x.items() if c}}
    for last in range(k - 1):
        terms = compose(dl, terms, last)
    return [(c, key) for key, c in sorted(terms.get((), {}).items())]


# ---------------------------------------------------------------------------
# exhaustive axiom verification
# ---------------------------------------------------------------------------

def _names(*kinds, head=""):
    """Witness text for a key, one name per leg: ``(b_0,X)``, ``S(K)``."""
    def fmt(key):
        text = ",".join(kind(leg) for kind, leg in zip(kinds, key))
        return f"{head}({text})" if head or len(kinds) > 1 else text
    return fmt


def _check(rep, name, *equations):
    """One report line: every (lhs, rhs, witness) equation must hold.  The
    witness, a formatter of the key or fixed text, is that of the least
    failing key, the earlier equation first on a tie.  Returns whether the
    line passed."""
    fails = []
    for n, (lhs, rhs, wit) in enumerate(equations):
        k = first_difference(lhs, rhs)
        if k is not None:
            fails.append((k, n, wit))
    if fails:
        k, _, wit = min(fails)
        rep.add(name, False, wit if isinstance(wit, str) else wit(k))
    else:
        rep.add(name, True)
    return not fails


def _diagonal(indices):
    """The identity on the basis indices given."""
    return {(i,): {(i,): 1} for i in indices}


def _generators(table, dim, reached):
    """Basis indices whose products under the legged product ``table`` on
    ``dim`` basis elements, with the indices already ``reached``, reach the
    whole basis, chosen greedily in index order: an index is reached once it
    is chosen, or once it is the single output index of a product e_k e_g
    with k and g reached (a nonzero multiple of e_o: the table holds no
    zero coefficient); the least index not yet reached is chosen next."""
    gens, order, seen = [], list(reached), [False] * dim
    for i in order:
        seen[i] = True
    for start in range(dim):
        if seen[start]:
            continue
        gens.append(start)
        seen[start] = True
        order.append(start)
        todo = [start]
        while todo:
            new = todo.pop()
            for k in order:             # grows as indices are reached
                for pair in ((k, new), (new, k)):
                    col = table.get(pair, {})
                    if len(col) == 1:
                        (o,), = col
                        if not seen[o]:
                            seen[o] = True
                            order.append(o)
                            todo.append(o)
    return gens


def check_axioms(pkg):
    """Every Hopf, relative-(co)integral, compatibility and handleslide
    identity as equations between composites of the structure maps, over
    the whole basis.  A map into B or A is read in coordinates there; that
    it lands in B or A is one more equation, with a fixed witness."""
    alg, integ, coint = pkg.algebra, pkg.integral, pkg.cointegral
    rep, par = Report(), alg.parity
    m, dl, s, i_b, mu, pi_b, iota, i_a, pi_a = map(legged, (
        alg.mul_sc, alg.comul_sc, alg.antipode_sc, integ.i_b, integ.mu,
        integ.pi_b, coint.iota, coint.i_a, coint.pi_a))
    ident = _diagonal(range(alg.dim))
    grade = {(i,): {(i,): -1 if p else 1} for i, p in enumerate(par)}
    eps = {(i,): {(): c} for i, c in enumerate(alg.counit_vec) if c}
    u = alg.unit_index
    eta = {(): {(u,): 1}}
    m_op = flipped(m, par)
    # coordinates cB, cA on B and A, projections PB, PA onto their spans
    cB = {(h,): {(p,): 1} for p, h in enumerate(integ.b_basis)}
    cA = {(h,): {(p,): 1} for p, h in enumerate(coint.a_basis)}
    PB, PA = ({(h,): {(h,): 1} for (h,) in c} for c in (cB, cA))
    id_b, id_a = (_diagonal(range(len(basis)))
                  for basis in (integ.b_basis, coint.a_basis))
    H, A, B = alg.label, (lambda p: f"a_{p}"), (lambda p: f"b_{p}")

    # Six equations are checked with one factor among generators, the left
    # one (associativity, the evenness of m, the bialgebra equation,
    # eps(x y) = eps(x) eps(y), and mu(i_B(b) x) = b mu(x) with b among
    # the generators of B's own product) or the right one
    # (i_B(b) x = m^op(i_B(b) (x) x)): D^2 columns per generator for
    # associativity, D or dim B for the others.  Closure: the factors
    # satisfying an equation for all other factors form a subspace closed
    # under products.  For associativity (any bilinear product)
    # ((a b) x) y = (a (b x)) y = a ((b x) y) = a (b (x y)) = (a b) (x y).
    # Once m is associative (and, for Delta, even)
    # Delta((a b) y) = Delta(a (b y)) = Delta(a) Delta(b) Delta(y)
    # = Delta(a b) Delta(y), likewise for grade(a y) = grade(a) grade(y) and
    # eps(a y) = eps(a) eps(y).  Once m is associative and even, a
    # homogeneous x with z x = m^op(z (x) x), z = i_B(b), satisfies it on
    # each parity part of z: z_0 x = x z_0 and z_1 x = (-1)^{|x|} x z_1.  So
    # z x = x g^{|x|}(z) with g = grade, x satisfies it for g(z) too, and
    # z (x y) = x g^{|x|}(z) y = (x y) g^{|x| + |y|}(z), the sign adding up
    # as |x y| = |x| + |y| for an even m.  B's product b c is the
    # coordinates in B of i_B(b) i_B(c); once m is associative and i_B(B)
    # is closed under it, i_B(b c) = i_B(b) i_B(c) (checked on dim B^2
    # pairs; as i_B lands in B's span, the first equation of the pi_B line,
    # the line's products lie in B too), and
    # mu(i_B(b c) x) = mu(i_B(b) i_B(c) x) = b mu(i_B(c) x) = (b c) mu(x).
    # Least witness: each generator is the least index not yet reached, so
    # every index is a multiple of a product of generators no larger than
    # it and of the unit; if it fails, so does a generator no larger, and
    # the least failing key over the whole basis (for i_B(B) central, at
    # each b) has a generator as its factor.  Without closure the equation
    # runs over the whole basis.  The unit is left out of the generators
    # when it is plain: a two-sided unit, even, with Delta(u) = u (x) u.  A
    # plain unit satisfies the five equations on H as that factor, except
    # eps(u y) = eps(u) eps(y) when eps(u) != 1, which fails eps(u) = 1 in
    # the same line, whose witness is fixed text.  B's unit, the position
    # that i_B sends to a plain unit of H, is left out of B's generators
    # when it is a left unit of B's product: mu(i_B(u_B) x) = u_B mu(x).
    # Associativity is decided first, as the others rely on it, and
    # reported second
    unit_left, unit_right = product(m, eta, ident), product(m, ident, eta)
    dl_eta, eta_eta = compose(dl, eta), tensor(eta, eta)
    plain = (unit_left == ident == unit_right and not par[u]
             and dl_eta == eta_eta)
    on_gens = _diagonal(_generators(m, alg.dim, [u] if plain else []))
    gens_m = product(m, on_gens, ident)
    k = first_difference(product(m, gens_m, ident), product(m, on_gens, m))
    wit = "" if k is None else _names(H, H, H)(k)

    # the factors an equation runs over, and m with the left one
    gens, gens_m = (ident, m) if wit else (on_gens, gens_m)
    graded = (compose(grade, gens_m), product(m, compose(grade, gens), grade))
    even = _check(rep, "parity-compatibility",
                  (*graded, _names(H, H, head="m")),
                  (compose(grade, compose(grade, dl), 1), compose(dl, grade),
                   _names(H, head="Delta")),
                  (compose(grade, s), compose(s, grade), _names(H, head="S")),
                  (compose(eps, grade), eps, _names(H, head="eps")))
    rep.add("associativity", not wit, wit)
    _check(rep, "unitality", (unit_left, ident, ""), (unit_right, ident, ""))
    _check(rep, "coassociativity",
           (compose(dl, dl), compose(dl, dl, 1), _names(H)))
    _check(rep, "counitality", (compose(eps, dl), ident, _names(H)),
           (compose(eps, dl, 1), ident, _names(H)))

    # Delta(xy) = sum (-1)^{|x2||y1|} x1*y1 (x) x2*y2; the product of
    # H (x) H is associative once m is and is even
    if graded[0] != graded[1]:
        gens, gens_m = ident, m
    bialgebra = _check(rep, "bialgebra", (compose(dl, gens_m), compose(
        m, compose(m, swapped(tensor(compose(dl, gens), dl), par, 1), 2)),
        _names(H, H)))
    _check(rep, "unit/counit morphisms",
           (compose(eps, gens_m), tensor(compose(eps, gens), eps), ""),
           (dl_eta, eta_eta, ""), (compose(eps, eta), {(): {(): 1}}, ""))
    _check(rep, "antipode",
           (compose(m, compose(s, dl)), compose(eta, eps), _names(H)),
           (compose(m, compose(s, dl, 1)), compose(eta, eps), _names(H)))
    _check(rep, "involutivity S^2 = id", (compose(s, s), ident, _names(H)))

    i_b_in_b = compose(PB, i_b)
    _check(rep, "pi_B o i_B = id_B", (i_b_in_b, i_b, ""),
           (compose(pi_b, i_b), id_b, ""))
    # i_B(b) x = (-1)^{|b||x|} x i_B(b) and mu(i_B(b) x) = b * mu(x) in B
    _check(rep, "i_B(B) central",
           (product(m, i_b, gens), product(m_op, i_b, gens), _names(B, H)))
    b_b = product(m, i_b, i_b)
    mul_b, rows = compose(cB, b_b), id_b
    if not wit and i_b_in_b == i_b and compose(i_b, mul_b) == b_b:
        u_b = next((p for (p,), col in i_b.items() if col == {(u,): 1}),
                   None)
        plain_b = plain and u_b is not None and all(
            mul_b.get((u_b, q)) == {(q,): 1} for (q,) in id_b)
        rows = _diagonal(_generators(mul_b, len(id_b),
                                     [u_b] if plain_b else []))
    left = compose(i_b, rows)
    prod = product(m, left, compose(i_b, mu))
    _check(rep, "mu is B-linear", (compose(PB, prod), prod, "product left B"),
           (compose(mu, product(m, left, ident)), compose(cB, prod),
            _names(B, H)))
    # (mu (x) id) Delta = (id (x) i_B) Delta_B mu
    d_b = compose(dl, compose(i_b, mu))
    _check(rep, "relative integral relation",
           (compose(PB, d_b), d_b, "Delta_B left B (x) B"),
           (compose(mu, dl), compose(cB, d_b), _names(H)))

    _check(rep, "pi_A o i_A = id_A", (compose(pi_a, i_a), id_a, ""))
    _check(rep, "pi_A cocentral",
           (compose(pi_a, dl), compose(pi_a, swapped(dl, par)), _names(H)))
    # (pi_A (x) id) Delta iota = (id (x) iota) Delta_A
    d_a = compose(dl, i_a)
    _check(rep, "iota is A-colinear",
           (compose(PA, compose(PA, d_a), 1), d_a, "Delta_A left A (x) A"),
           (compose(pi_a, compose(dl, iota)),
            compose(iota, compose(cA, compose(cA, d_a), 1), 1), _names(A)))
    # iota(a) x = iota(a * pi_A(x))
    prod = product(m, i_a, compose(i_a, pi_a))
    _check(rep, "relative cointegral relation",
           (compose(PA, prod), prod, "product left A"),
           (product(m, iota, ident), compose(iota, compose(cA, prod)),
            _names(A, H)))

    # b is the distinguished group-like of B; the values of the character
    # a* of A are kept as exponents in Z/astar_order, (0,) being 1, and
    # psi = a* pi_A is valued in the group ring of the exponents
    order = coint.astar_order
    b = compose(i_b, {(): {(integ.glike_b,): 1}})
    left_b = product(m, b, ident)
    psi = compose({(p,): {(e % order,): 1}
                   for p, e in enumerate(coint.astar_exps)}, pi_a)
    dl_astar = compose(psi, dl)
    sign_mu = {(): {(): -1 if integ.mu_parity else 1}}
    sign_iota = {(): {(0,): -1 if coint.iota_parity else 1}}
    s_b = compose(s, compose(i_b, compose(mu, s)))
    _check(rep, "compatibility (1): mu o m_b = (-1)^{|mu|} S_B mu S_H",
           (compose(PB, s_b), s_b, "S_B left B"),
           (compose(mu, left_b), tensor(sign_mu, compose(cB, s_b)),
            _names(H)))
    s_a = compose(s, i_a)
    _check(rep, "compatibility (2): Delta_a* iota = (-1)^{|iota|} S iota S_A",
           (compose(PA, s_a), s_a, "S_A left A"),
           (compose(dl_astar, iota), tensor(sign_iota, compose(
               s, compose(iota, compose(cA, s_a)))), _names(A)))
    # mu m^op = mu m (id (x) Delta_a*), the a* exponent flipped to the back
    # (an even leg: no sign) and 0 put after the left side; that is,
    # (-1)^{|x||y|} mu(y x) = mu(x phi(y)) with phi(y) = psi(y_1) y_2.  It
    # holds for y z when it holds for y and z once m is associative, the
    # parity-compatibility line (m and Delta even) and the bialgebra line
    # pass, psi is 0 on odd basis elements and psi(y z) = psi(y) psi(z):
    # (-1)^{|x||y z|} mu(y z x) = (-1)^{|x||z| + |y||z|} psi(y_1) mu(z x y_2)
    # = (-1)^{|z|(|y| + |y_2|)} psi(y_1) psi(z_1) mu(x y_2 z_2), the sign 1
    # as y_1 is even, and phi(y z) = psi(y_1 z_1) y_2 z_2, the bialgebra
    # sign 1 as z_1 is even.  psi(g x) = psi(g) psi(x) for all x is itself
    # closed under products of g, by associativity, so it is checked with g
    # among generators, the unit among them unless it is plain with
    # psi(u) = 1 (then it holds at u, as does the trace property).  So y
    # among generators shows that the line passes.  It gives no least
    # witness: y is the second leg of the key (x, y), and the y that pass
    # for one fixed x are not closed under products, so a failing line runs
    # over the whole basis again
    one = {(): {(0,): 1}}
    y_gens = on_gens if compose(psi, eta) == one else {
        **on_gens, (u,): {(u,): 1}}
    mul_r = {(e, f): {((e + f) % order,): 1}
             for e in range(order) for f in range(order)}
    gate = (not wit and even and bialgebra
            and not any(par[h] for (h,) in psi)
            and compose(psi, product(m, y_gens, ident))
            == product(mul_r, compose(psi, y_gens), psi))
    dl_back = {k: {o[::-1]: c for o, c in col.items()}
               for k, col in dl_astar.items()}
    mu_0 = tensor(mu, one)

    def trace(ys):
        return (compose(mu_0, product(m_op, ident, ys)),
                compose(mu, product(m, ident, compose(dl_back, ys))))
    sides = trace(y_gens if gate else ident)
    if gate and sides[0] != sides[1]:
        sides = trace(ident)
    _check(rep, "compatibility (3): trace property of mu",
           (*sides, _names(H, H)))
    # Delta^op iota = (id (x) m_b) Delta iota
    dl_iota = compose(dl, iota)
    _check(rep, "compatibility (4): cotrace property of iota",
           (swapped(dl_iota, par), compose(left_b, dl_iota, 1), _names(A)))
    _check(rep, "compatibility (5): pi_B i_A = eta_B eps_A",
           (compose(pi_b, i_a),
            compose(cB, compose(eta, compose(eps, i_a))), _names(A)))
    unit_a = {(): {(pkg.unit_a,): 1}}
    value = tensor({(): {(): coint.iota_prefactor}}, compose(
        eps, compose(i_b, compose(mu, compose(iota, unit_a)))))
    _check(rep, "compatibility (6): eps_B mu iota eta_A = 1",
           (value, {(): {(): 1}}, f"value {value.get((), {}).get((), 0)}"))

    # (m (x) id)(f1 (x) Delta f2) = (f1 (x) f2)(m_A (x) id)(id (x) Delta_A)
    # on A (x) A, for f1, f2 among iota and i_A
    pairs = tensor(id_a, d_a)
    prod = compose(m, compose(i_a, compose(i_a, compose(cA, pairs, 1), 1)))
    maps = {"iota": iota, "i_A": i_a}
    for tag1, tag2 in (("iota", "iota"), ("iota", "i_A"), ("i_A", "i_A")):
        f1, f2 = maps[tag1], maps[tag2]
        _check(rep, f"handleslide identity ({tag1},{tag2})",
               (compose(PA, compose(PA, pairs, 1), 2), pairs,
                "Delta_A left A (x) A"),
               (compose(PA, prod), prod, "m_A left A"),
               (product(m, f1, compose(dl, f2)), compose(
                   f2, compose(cA, compose(f1, compose(cA, prod)), 1), 1),
                _names(A, A)))
    return rep
