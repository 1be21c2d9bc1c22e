"""The super-tensor-network engine.

The network of a based, ordered, oriented diagram has one vertex per
crossing.  Every alpha curve feeds its (co)integral seed into an iterated
coproduct with one slot per crossing, in the curve's order; a negative
crossing applies the antipode to its slot; every beta curve multiplies its
slots in its own order, maps the product into B by the integral (closed)
or the projection (arc), and evaluates its character there.

The contraction evaluates the network in one fixed order, a sweep over the
alpha curves in family order and each alpha's crossings in its own order,
and merges equal frontier states after every crossing.  A state is keyed
by the orbit representative (see below) of the current alpha's
not-yet-split coproduct factor, a parity word whose bit b is the parity of
what beta b holds, and one integer of runs, in which beta b owns cap_b
digits of w = dim.bit_length() bits: each of its maximal runs of placed
slots is one digit, its representative + 1 (0 for none), and it has none
before its first slot or after its last.  When the package supercommutes
(see below) a beta's slots are placed in the order they arrive, each at
the right end of what the beta holds, so an open beta holds one run and
cap_b = 1; otherwise cap_b = (k + 1) // 2, the most runs of k slots.  At a
crossing the factor is split by the coproduct (the last crossing of an
alpha takes it whole, an alpha without crossings contributes the counit of
its seed), the antipode acts if the crossing is negative, and the slot is
multiplied into its beta as left run * slot * right run.  Completing a
beta evaluates it; a beta without crossings is evaluated on the unit at
the start.

Orbits of b: let b = i_B(glike_b), of order n = ``glike_b_order``, and
suppose that b is an even basis element and central, and that left
multiplication by b permutes the basis in orbits of exactly n elements,
so that each basis element is b^t c for one representative c and one
degree t mod n.  Suppose also that both closing tables shift by one
degree along an orbit (mu(b x) = b mu(x), pi_B(b x) = b pi_B(x)) and
that Delta(b x) = (b (x) b) Delta(x) and S(b x) = b^-1 S(x) on every
basis element x.  Then a run b^t c, a slot s and a run b^u d on one beta
multiply to b^(t + u) (c s d), which closes to x^(e * (t + u)) times what
c s d closes to: a run is keyed by its representative, and its degree
goes into the value as soon as its slot is placed.  And a remainder
b^a r splits into (b^a s) (x) (b^a r'), the slot becoming b^-a S(s) at a
negative crossing: b^a lands on every later slot of the alpha, so the
remainder is keyed by r and the value takes x^(a * F), F the signed sum
of the character exponents over the alpha's crossings after the split
(over all of them at the seed).  b is even, so a representative has the
parity of its orbit and the Koszul signs read from keys do not change.
The sweep reads Delta and S only through the two equivariances, so
Delta(b) = b (x) b and S(b) b = 1, which they give at a group-like unit,
are not checked apart.  ``_Rules`` checks the conditions once per
package; if one fails, every basis element is its own representative at
degree 0, which is the sweep without the fold, on the same code path.
H_n, free over B = <K>, has the orbits {K^i} and {K^i X}: a key holds one
of 2 representatives where it held one of 2n basis elements.

The terms a state contributes at a crossing depend only on three
representatives in its key, the remainder and the runs left and right of
the slot, and on the crossing: its sign, whether it is the alpha's last,
and whether it completes a closed beta, an arc or none.  The coproduct
split, the antipode, left run * slot * right run and, if the beta
completes, its image in B read in discrete logs of b, each split into
representatives and degrees, depend on H alone.  So they are expanded
once per package and process, the first time any sweep meets the
configuration, and kept in the package's memo with the package's other
character-free rules: the orbits, the alpha seeds folded by orbit, the
closing tables and their dead runs (below).
Each state looks its triple up once and applies what is its own: the
Koszul sign of the odd-slot terms, its character degrees and the rest
of its key, from which it clears its beta's digits once and to which it
adds the new run's digit, if any, and its beta's new parity bit.

Dead runs: let K be the basis indices that a closing table, mu or pi_B,
sends to 0, shrunk until span(K) is a two-sided ideal: any index i for
which some basis element x puts an index outside K into the support of
x e_i or e_i x leaves K, repeatedly.  Then span(K) is an ideal inside the
table's kernel.  A run is a contiguous factor of its beta's final product
in both product orders (a prefix in arrival order), so a run in span(K)
puts the final product in span(K), whose image is 0, whatever is placed
later; and since b^t x lies in span(K) with x, a run keyed by a
representative in K has image 0 at every degree.  So ``_cross`` drops a term
whose new run is such a representative, for the beta's table; a term
that completes its beta is read by the table itself.  The sweep's value
is a sum of its terms, so every final value is unchanged.  For H_n, pi_B
kills the X orbit, an ideal, and mu kills the K orbit, which X takes out
of K: an X placed on an unfinished arc is dropped, and nothing on a
closed beta.

Koszul sign: rerouting the slots from alpha order to beta-traversal order
(the betas in family order, each in its own order) costs the inversion
parity of the odd slots.  The sweep pays it as it goes: placing an odd
slot flips the sign by the parity of the content already placed later in
traversal order, the runs after it on its own beta and everything placed
on later betas, which the parity word's bits above its beta count.

Arrival order: assume the product is associative and even (both are
lines of the axiom suite), and that it supercommutes, e_a e_b =
(-1)^(|a||b|) e_b e_a on every pair of basis elements, a = b included.
Then it supercommutes on homogeneous elements, and for the slots L of a
beta placed before position j, R placed after it and s at j,
L * s * R = (-1)^(|s||R|) (L * R) * s.  The factor (-1)^(|s||R|) is
exactly the own-beta part of the Koszul sign above.  So a sweep that
multiplies each slot into the right end of its beta, L * R * s, and pays
the sign of later betas only gives every final state the same value.  The
shipped packages H_n and Z/m supercommute; ``_Rules`` finds out once per
package, and a package that does not takes the sweep in each beta's own
order, the same code with the slot's home position.

Scalars: a character of order N reads the group-like b^t of B as
x^(e * t), e its exponent on the beta, so every value is an integer vector
over exponents mod N, an element of Z[x]/(x^N - 1).  Only degrees read the
character: a run's, a remainder's and those of a completing beta's image;
the splits, antipodes, products and signs do not.  So ``contract_values``
runs one sweep for a list of characters: a state's value is one such
block per character, in list order, each block of its own N.  A term of a
crossing carries its degrees as pairs (t, a), t of its run or of its
beta's image and a of its remainder, and each block j is multiplied by
x^(e_j * t + F_j * a), which moves its entries in place, by one cyclic
shift mod N_j, into the new state's block.  A crossing's blocks hold
its beta's e_j and the F_j of its alpha's later crossings.  The sum over
the final states is reduced modulo Phi_N once per block, then the single
rational cointegral prefactor is applied.  Everything is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .algebra import apply, compose, first_difference, flipped, legged
from .cyclotomic import CyclotomicScalar
from .diagram import beta_word, check_balanced
from .errors import (ArcCurveError, CharacterMismatchError, OddScalarError)


@dataclass(frozen=True)
class CharacterAssignment:
    """Character data for a contraction: one exponent mod N per beta curve
    (the value of psi(beta*) on the distinguished group-like b) and, when
    constructed from an H_1 character, the character itself for the
    zeta-normalization bookkeeping."""

    order: int
    psi: dict                    # beta id -> exponent mod order
    h1: object | None = None     # a foxcalc.Character, not imported: the
                                 # engine imports nothing from foxcalc

    @classmethod
    def trivial(cls, order=1):
        return cls(order=order, psi={})

    @classmethod
    def from_character(cls, chi):
        """Induce beta-level exponents from a character of H_1."""
        group = chi.group
        psi = dict(zip(group.gens, map(chi.exponent, group.projection)))
        return cls(order=chi.order, psi=psi, h1=chi)

    def psi_exponent(self, beta_id):
        return self.psi.get(beta_id, 0) % self.order


def check_admissible(diag, n, chars):
    """The one admissibility rule of both engines: the order is at least
    1, and each beta's value psi(beta) = zeta^e, zeta of order
    ``chars.order``, is an order-n root of unity, n * e = 0 mod order, as
    psi is read on the group-like K of H_n (b of order n).  The Fox engine
    never evaluates on H_n and applies it as a rule; ``contract`` with n
    the order of its package's group-like."""
    if chars.order < 1:
        raise CharacterMismatchError(f"order {chars.order} is below 1")
    for c in diag.family("beta"):
        e = chars.psi_exponent(c.id)
        if (e * n) % chars.order != 0:
            raise CharacterMismatchError(
                f"psi({c.id}) = zeta^{e} is not an order-{n} root of "
                f"unity in Z/{chars.order}")


def _closing(pkg, closed):
    """Per basis index i of H, mu(e_i) (closed beta) or pi_B(e_i) (arc) as
    {discrete log with respect to b, mod its order: coefficient}; a
    character reads b^t as x^(e * t), e its exponent on the beta, and every
    admissible e has n * e = 0 mod N, n the order of b."""
    integ = pkg.integral
    table = integ.mu if closed else integ.pi_b
    n = integ.glike_b_order
    out = {}
    for i in range(pkg.algebra.dim):
        poly = out[i] = {}
        for pos, c in apply(table, {i: 1}).items():
            t = integ.b_dlog[pos] % n
            poly[t] = poly.get(t, 0) + c
    return out


def _supercommutes(alg):
    """Whether m = m o tau, tau the Koszul flip the axiom suite builds
    m^op from: e_a e_b = (-1)^(|a||b|) e_b e_a for all basis indices a, b,
    so e_a^2 = 0 for odd a.  A zero coefficient stored on one side only
    reads as a difference, which costs the sweep speed, never a value."""
    mul = alg.mul_sc
    return first_difference(mul, flipped(mul, alg.parity)) is None


def _orbits(pkg, closing):
    """Per basis index, its orbit representative, the least index of its
    orbit, and its degree under left multiplication L by b, as two tuples,
    when the conditions of the module docstring hold, Delta and S read as
    composites of the legged tables with L; otherwise every index is its
    own representative at degree 0.  A zero stored in a closing table, or
    an antipode column stored empty, reads as a difference, which costs
    the sweep speed, never a value."""
    alg, integ = pkg.algebra, pkg.integral
    dim, n = alg.dim, integ.glike_b_order
    plain = tuple(range(dim)), (0,) * dim
    b = apply(integ.i_b, {integ.glike_b: 1})
    g = next(iter(b), None)
    if b != {g: 1} or alg.parity[g]:
        return plain
    step = []                   # b e_i = e_step(i) = e_i b
    for i in range(dim):
        col = alg.mul({g: 1}, {i: 1})
        if alg.mul({i: 1}, {g: 1}) != col or list(col.values()) != [1]:
            return plain
        step.extend(col)
    rep, deg = [None] * dim, [0] * dim
    for i in range(dim):
        j = i
        for t in range(n if rep[i] is None else 0):
            if rep[j] is not None:
                return plain
            rep[j], deg[j], j = i, t, step[j]
        if j != i:
            return plain
    left = {(i,): {(j,): 1} for i, j in enumerate(step)}
    dl, s = legged(alg.comul_sc), legged(alg.antipode_sc)
    if (any(table[j] != {(t + 1) % n: c for t, c in table[i].items()}
            for table in closing.values() for i, j in enumerate(step))
            or compose(dl, left) != compose(left, compose(left, dl), 1)
            or compose(left, compose(s, left)) != s):
        return plain
    return tuple(rep), tuple(deg)


def _dead(alg, rep, closing):
    """The representatives of the orbits that the closing table
    ``closing`` (of :func:`_closing`) kills in every product they are a
    factor of: K, the indices it sends to 0, less every index i for which
    some basis element x puts an index outside K into the support of
    x e_i or e_i x, repeatedly, and then only whole orbits (the module
    docstring says why a run there can be dropped).  A zero coefficient
    stored in a product reads as support, which costs pruning, never a
    value."""
    dead = {i for i, image in closing.items() if not any(image.values())}
    shrunk = True
    while dead and shrunk:
        shrunk = False
        for (a, b), prod in alg.mul_sc.items():
            if (a in dead or b in dead) and not dead.issuperset(prod):
                dead.difference_update((a, b))
                shrunk = True
    return frozenset(rep) - {r for i, r in enumerate(rep) if i not in dead}


class _Rules:
    """What the sweep reads from a package alone: ``unit_a``; keyed by the
    curve's ``closed``, the alpha ``seeds`` folded by orbit
    ({representative: {(0, degree): coefficient}}), their ``counits`` (for
    an alpha without crossings), the ``closing`` tables and the ``dead``
    representatives of :func:`_dead`; each basis index's orbit
    representative ``rep`` and degree ``deg`` (see :func:`_orbits`);
    whether the product ``supercommutes`` (see :func:`contract_values`);
    and the ``terms`` of :func:`_expand`, filled as sweeps meet them.
    ``terms`` holds one table per (negative, last, closing kind), the kind
    None when the crossing completes no beta, so at most 12 tables; each
    is keyed by the local triple (remainder, left run, right run), a
    representative and two representatives or None, so with r
    representatives, dim / n when the package folds and dim when it does
    not, it holds at most r * (r + 1)^2 entries."""

    def __init__(self, pkg):
        alg, coint = pkg.algebra, pkg.cointegral
        self.unit_a = unit_a = pkg.unit_a
        seeds = {True: apply(coint.iota, {unit_a: 1}),
                 False: apply(coint.i_a, {unit_a: 1})}
        self.counits = {closed: alg.counit(seed)
                        for closed, seed in seeds.items()}
        self.closing = {closed: _closing(pkg, closed)
                        for closed in (True, False)}
        self.rep, self.deg = rep, deg = _orbits(pkg, self.closing)
        self.seeds = {closed: {} for closed in seeds}
        for closed, seed in seeds.items():
            for i, c in seed.items():
                poly = self.seeds[closed].setdefault(rep[i], {})
                poly[0, deg[i]] = poly.get((0, deg[i]), 0) + c
        self.dead = {closed: _dead(alg, rep, table)
                     for closed, table in self.closing.items()}
        self.supercommutes = _supercommutes(alg)
        self.terms = {}


def _rules(pkg):
    """The package's :class:`_Rules`, built on the first contraction
    against it and kept in its memo for every later one."""
    rules = pkg.memo.get(_Rules)
    if rules is None:
        rules = pkg.memo[_Rules] = _Rules(pkg)
    return rules


def _add(out, vec, poly, blocks, sign=1):
    """Add sign * vec times the polynomial {(t, a): coefficient} to out,
    blockwise: ``blocks`` holds (start, order N, e, f) per block, and the
    block's entry k moves to start + (k + e * t + f * a) mod N; returns
    out."""
    for (t, a), c in poly.items():
        c *= sign
        for lo, n, e, f in blocks:
            s = e * t + f * a
            for k, v in enumerate(vec[lo:lo + n]):
                out[lo + (k + s) % n] += c * v
    return out


def _expand(alg, rep, deg, rem, lt, rt, neg, last, closing):
    """The terms of one local configuration at a crossing: the factor
    ``rem`` split by the coproduct into slot and rest (taken whole at the
    alpha's last crossing), the antipode on the slot if ``neg``, and the
    product ``lt`` * slot * ``rt`` with the runs that are not None.  Returns
    whether a term has an odd slot and the terms: (rest, run, odd,
    {(t, a): coefficient}) with the rest and the run read as
    representatives (``rep``) and degrees (``deg``), t the run's and a the
    rest's, or (rest, parity, odd, {(t, a): coefficient}), t the discrete
    log of the product's image, when ``closing``, the beta's table of
    :func:`_closing`, completes it.  The terms depend on the package
    alone, so the sweep keeps them in :attr:`_Rules.terms`."""
    par, acc = alg.parity, {}
    splits = (((rem, None), 1),) if last else alg.comul_sc.get(rem, {}).items()
    for (slot, rest), c in splits:
        images = alg.antipode({slot: 1}) if neg else {slot: 1}
        for s, cs in images.items():
            prod = {s: cs} if lt is None else alg.mul({lt: 1}, {s: cs})
            if rt is not None:
                prod = alg.mul(prod, {rt: 1})
            for m, cm in prod.items():
                k = (rest, m, par[s])
                acc[k] = acc.get(k, 0) + c * cm
    polys = {}
    for (rest, m, odd), c in acc.items():
        r, a = (None, 0) if rest is None else (rep[rest], deg[rest])
        if closing is None:
            part, image = rep[m], {deg[m]: c}
        else:
            part, image = par[m], {t: c * ct for t, ct in closing[m].items()}
        poly = polys.setdefault((r, part, odd), {})
        for t, ct in image.items():
            poly[t, a] = poly.get((t, a), 0) + ct
    terms = [(r, part, odd, {ta: c for ta, c in poly.items() if c})
             for (r, part, odd), poly in polys.items() if any(poly.values())]
    return any(term[2] for term in terms), terms


def _join(spans, j):
    """Place position j on a beta whose filled positions form the runs
    ``spans``, (first, last) pairs in order, and return (lo, r, hi): the
    runs before j are spans[:r], and the slot joins spans[lo:hi], which
    become one run in ``spans``.  One bisection, so no scan of the beta."""
    r = bisect_left(spans, (j,))
    lo = r - (r > 0 and spans[r - 1][1] == j - 1)
    hi = r + (r < len(spans) and spans[r][0] == j + 1)
    spans[lo:hi] = [(spans[lo][0] if lo < r else j,
                     spans[hi - 1][1] if hi > r else j)]
    return lo, r, hi


def _cross(states, alg, rules, b, at, lo, r, hi, neg, last, kind, dead,
           blocks):
    """The frontier after placing the next slot of the current alpha on
    beta b, between its runs r - 1 and r, joining runs lo..hi - 1 (see
    :func:`_join`); b's runs are digits at[b] to at[b + 1] - 1 of a key's
    runs.  ``kind`` is b's ``closed`` if this completes b, else None;
    ``dead`` holds the representatives whose runs b's table kills (empty
    if this completes b), ``blocks`` the crossing's blocks for :func:`_add`.
    A state's local triple is looked up in the table of ``rules`` for
    (``neg``, ``last``, ``kind``), which :func:`_expand` fills on first use."""
    par, w = alg.parity, alg.dim.bit_length()
    memo = rules.terms.setdefault((neg, last, kind), {})
    table = None if kind is None else rules.closing[kind]
    left, right = lo < r, hi > r
    # b's runs from lo on are ``top``, digit 0 the left run if any
    put, mask = w * (at[b] + lo), (1 << w * (at[b + 1] - at[b] - lo)) - 1
    digit, rsh, hsh = (1 << w) - 1, w * (r - lo), w * (hi - lo)
    out = {}
    for (rem, word, runs), vec in states.items():
        top = (runs >> put) & mask
        lt = (top & digit) - 1 if left else None
        rt = ((top >> rsh) & digit) - 1 if right else None
        local = rem, lt, rt
        expansion = memo.get(local)
        if expansion is None:
            expansion = memo[local] = _expand(
                alg, rules.rep, rules.deg, *local, neg, last, table)
        has_odd, terms = expansion
        # the Koszul tail, only for odd slots: later betas, b's runs from r
        tail, after = has_odd and (word >> b + 1).bit_count(), top >> rsh
        while has_odd and after:
            tail, after = tail + par[(after & digit) - 1], after >> w
        word ^= ((left and par[lt]) ^ (right and par[rt])) << b
        # b's runs after the joined ones move to just after the new run
        kept = runs - ((top - (top >> hsh << w)) << put)
        for rest, part, odd, poly in terms:
            if part in dead:
                continue
            new = ((rest, word ^ par[part] << b, kept + ((part + 1) << put))
                   if kind is None else (rest, word ^ part << b, kept))
            _add(out.get(new) or out.setdefault(new, [0] * len(vec)), vec,
                 poly, blocks, -1 if odd and tail % 2 else 1)
    return {key: vec for key, vec in out.items() if any(vec)}


def contract(based, pkg, chars):
    """The unnormalized scalar of a based, ordered, oriented diagram: the
    one-element case of :func:`contract_values`."""
    return contract_values(based, pkg, [chars])[0]


def contract_values(based, pkg, assignments):
    """The unnormalized scalar at each of ``assignments``, in their order,
    from one sweep whose state values hold one block per assignment.  What
    depends on the package alone comes from its :func:`_rules`, shared by
    every call with the same package; each crossing's blocks for
    :func:`_add`, which depend on the diagram and the characters, are
    listed as the sweep reaches it.  When the rules say the product
    supercommutes, each slot goes to the next free position of its beta,
    not its home position (the module docstring says why the values are
    the same).  An empty frontier stays empty, so the sweep stops at one,
    and every value is then 0.  An unbalanced diagram is refused first
    (:func:`diagram.check_balanced`)."""
    check_balanced(based)
    for chars in assignments:
        check_admissible(based, pkg.integral.glike_b_order, chars)
    alg, integ, coint = pkg.algebra, pkg.integral, pkg.cointegral
    rules = _rules(pkg)
    ordered, place = based.ordered, based.place
    alphas, betas = based.family("alpha"), based.family("beta")
    beta_pos = {c.id: b for b, c in enumerate(betas)}
    orders = [chars.order for chars in assignments]
    starts = list(accumulate(orders, initial=0))
    # per beta, the exponent of each block
    exps = {c.id: [chars.psi_exponent(c.id) for chars in assignments]
            for c in betas}
    zero = [0] * len(orders)

    vec, word = [0] * starts[-1], 0
    for lo in starts[:-1]:
        vec[lo] = 1
    for b, c in enumerate(betas):
        if not c.order:
            unit = rules.closing[c.closed][alg.unit_index]
            vec = _add([0] * len(vec), vec,
                       {(t, 0): v for t, v in unit.items()},
                       list(zip(starts, orders, exps[c.id], zero)))
            word |= alg.parity[alg.unit_index] << b
    # beta b's runs are digits at[b] to at[b + 1] - 1 of a key's runs
    at = list(accumulate((1 if rules.supercommutes else (len(c.order) + 1) // 2
                          for c in betas), initial=0))
    states = {(None, word, 0): vec}
    filled, spans = [0] * len(betas), [[] for _ in betas]
    for c in alphas:
        if not states:                  # an empty frontier stays empty
            break
        if not c.order:
            k = rules.counits[c.closed]
            states = {key: [k * v for v in vec]
                      for key, vec in states.items()}
            continue
        # rests[t]: per block, the signed exponent sum over crossings t..
        rests = [tuple(zero)]
        for x in reversed(ordered[c.id]):
            rests.append(tuple((f + x.sign * e) % n for f, e, n
                               in zip(rests[-1], exps[x.beta], orders)))
        rests.reverse()
        blocks, seeded = list(zip(starts, orders, zero, rests[0])), {}
        for key, vec in states.items():
            for r, poly in rules.seeds[c.closed].items():
                _add(seeded.setdefault((r,) + key[1:], [0] * len(vec)),
                     vec, poly, blocks)
        states = seeded
        for t, x in enumerate(ordered[c.id]):
            b = beta_pos[x.beta]
            j = filled[b] if rules.supercommutes else place[x.id][1]
            filled[b] += 1
            done = filled[b] == len(betas[b].order)
            states = _cross(states, alg, rules, b, at, *_join(spans[b], j),
                            x.sign < 0, t == len(c.order) - 1,
                            betas[b].closed if done else None,
                            () if done else rules.dead[betas[b].closed],
                            list(zip(starts, orders, exps[x.beta],
                                     rests[t + 1])))
            if not states:
                break

    functional_parity = sum(integ.mu_parity for c in betas if c.closed)
    total = [0] * starts[-1]
    for key, vec in states.items():
        if (functional_parity + key[1].bit_count()) % 2 == 0:
            total = [a + v for a, v in zip(total, vec)]
        elif any(not CyclotomicScalar.from_coeffs(vec[lo:lo + n], n).is_zero()
                 for lo, n in zip(starts, orders)):
            raise OddScalarError(
                "nonzero contribution with odd total parity; "
                "the package data is corrupt")
    prefactor = coint.iota_prefactor ** sum(1 for c in alphas if c.closed)
    return [CyclotomicScalar.from_coeffs(total[lo:lo + n], n).scale(prefactor)
            for lo, n in zip(starts, orders)]


def basepoint_shift(based, curve_id, new_start, pkg, chars):
    """Predicted unit relating the contraction after rotating one closed
    curve's basepoint: psi evaluated on the traversed segment for an alpha
    curve, a* on the segment's alpha duals for a beta curve."""
    c = based.curve(curve_id)
    if not c.closed:
        raise ArcCurveError(f"{curve_id} is an arc; arcs have no basepoint")
    k = len(c.order)
    if k == 0:
        return CyclotomicScalar.one(chars.order)
    if not 0 <= new_start < k:
        raise ArcCurveError(f"position {new_start} out of range")
    if c.family == "alpha":
        exp = sum(x.sign * chars.psi_exponent(x.beta)
                  for x in based.ordered[curve_id][new_start:])
        return CyclotomicScalar.root_power(exp, chars.order)
    # beta curve: the unit is <a*, segment word>, every alpha dual read as
    # the A-group-like unit_a
    coint = pkg.cointegral
    if chars.order % coint.astar_order != 0:
        raise CharacterMismatchError(
            f"cyclotomic order {chars.order} incompatible with the a* "
            f"order {coint.astar_order}")
    scalefac = chars.order // coint.astar_order
    word = beta_word(based, curve_id)
    exp = (sum(e for _, e in word.letters[new_start:])
           * coint.astar_exps[_rules(pkg).unit_a])
    return CyclotomicScalar.root_power(exp * scalefac, chars.order)
